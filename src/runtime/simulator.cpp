#include "runtime/simulator.h"

#include <algorithm>

#include "arch/chip.h"
#include "common/strings.h"

namespace pim::runtime {

std::string Report::summary() const {
  return strformat(
      "%s [%s]: latency %.4f ms, energy %.3f uJ, avg power %.1f mW, "
      "%llu instructions, %llu NoC bytes, %llu kernel events%s",
      network.c_str(), policy.c_str(), latency_ms(), energy_uj(), avg_power_mw(),
      static_cast<unsigned long long>(stats.total_instructions()),
      static_cast<unsigned long long>(stats.total_bytes_on_noc()),
      static_cast<unsigned long long>(stats.kernel_events),
      finished ? "" : "  ** DID NOT FINISH **");
}

std::string Report::layer_table(const nn::Graph& graph) const {
  std::string out =
      "| layer | type | span (us) | matrix (us) | vector (us) | transfer (us) | comm ratio "
      "|\n|---|---|---|---|---|---|---|\n";
  for (const auto& [id, ls] : stats.layers) {
    const nn::Layer& l = graph.layer(id);
    out += strformat("| %s | %s | %.2f | %.2f | %.2f | %.2f | %.1f%% |\n", l.name.c_str(),
                     nn::op_name(l.type), ls.span_ps() * 1e-6, ls.matrix_busy_ps * 1e-6,
                     ls.vector_busy_ps * 1e-6, ls.transfer_busy_ps * 1e-6,
                     ls.comm_ratio() * 100.0);
  }
  return out;
}

json::Value Report::to_json() const {
  json::Value v;
  v["network"] = json::Value(network);
  v["policy"] = json::Value(policy);
  v["finished"] = json::Value(finished);
  if (wall_timed_out) v["wall_timed_out"] = json::Value(true);
  v["latency_ms"] = json::Value(latency_ms());
  v["energy_uj"] = json::Value(energy_uj());
  v["avg_power_mw"] = json::Value(avg_power_mw());
  v["instructions"] = json::Value(stats.total_instructions());
  v["kernel_events"] = json::Value(stats.kernel_events);
  json::Value energy;
  for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
    energy[arch::component_name(static_cast<arch::Component>(c))] =
        json::Value(stats.energy.get(static_cast<arch::Component>(c)));
  }
  v["energy_pj_by_component"] = std::move(energy);
  json::Value layers;
  for (const auto& [id, ls] : stats.layers) {
    json::Value lj;
    lj["span_us"] = json::Value(ls.span_ps() * 1e-6);
    lj["matrix_us"] = json::Value(ls.matrix_busy_ps * 1e-6);
    lj["vector_us"] = json::Value(ls.vector_busy_ps * 1e-6);
    lj["transfer_us"] = json::Value(ls.transfer_busy_ps * 1e-6);
    lj["comm_ratio"] = json::Value(ls.comm_ratio());
    lj["bytes_moved"] = json::Value(ls.bytes_moved);
    lj["mvm_count"] = json::Value(ls.mvm_count);
    layers[std::to_string(id)] = std::move(lj);
  }
  v["layers"] = std::move(layers);
  return v;
}

namespace {

/// simulate_program's body; `proof`, when it covers `program` under `cfg`,
/// spares the chip its verify.
Report run_program(const isa::Program& program, const isa::VerifyProof* proof,
                   const config::ArchConfig& cfg, const std::vector<int8_t>* input_bytes,
                   uint64_t input_gaddr, uint64_t output_gaddr, size_t output_elems,
                   telemetry::TraceSink* trace) {
  arch::Chip chip(cfg, program, trace, proof);
  if (input_bytes != nullptr) {
    chip.write_global(input_gaddr,
                      std::span<const uint8_t>(
                          reinterpret_cast<const uint8_t*>(input_bytes->data()),
                          input_bytes->size()));
  }
  Report report;
  report.network = program.network_name;
  report.policy = program.mapping_policy;
  report.stats = chip.run();
  report.finished = chip.finished();
  report.wall_timed_out = chip.wall_expired();
  if (trace != nullptr) {
    // Layer phases, reconstructed post-run from the per-layer stats: one
    // complete event per layer spanning first issue to last completion.
    // stats.layers is a std::map, so the tid/event order is deterministic.
    for (const auto& [id, ls] : report.stats.layers) {
      if (ls.first_issue_ps == sim::kTimeMax) continue;  // layer never issued
      const uint32_t tid =
          trace->tid(chip.trace_pid(), "layer/" + std::to_string(id));
      trace->complete(tid, "layer" + std::to_string(id), ls.first_issue_ps,
                      ls.last_complete_ps - ls.first_issue_ps);
    }
  }
  if (output_elems > 0) {
    std::vector<uint8_t> raw = chip.read_global(output_gaddr, output_elems);
    report.output.assign(raw.begin(), raw.end());
    std::transform(raw.begin(), raw.end(), report.output.begin(),
                   [](uint8_t b) { return static_cast<int8_t>(b); });
  }
  return report;
}

}  // namespace

Report simulate_program(const isa::Program& program, const config::ArchConfig& cfg,
                        const std::vector<int8_t>* input_bytes, uint64_t input_gaddr,
                        uint64_t output_gaddr, size_t output_elems,
                        telemetry::TraceSink* trace) {
  return run_program(program, nullptr, cfg, input_bytes, input_gaddr, output_gaddr,
                     output_elems, trace);
}

CompiledNetwork::CompiledNetwork(const nn::Graph& graph, const config::ArchConfig& cfg,
                                 const compiler::CompileOptions& options)
    : copts(options), program(compiler::compile(graph, cfg, options, &compile, &proof_)) {
  const std::vector<int32_t> outs = graph.outputs();
  if (outs.size() == 1) {
    output_elems_per_image = static_cast<size_t>(graph.layer(outs[0]).out_shape.elems());
  }
}

bool CompiledNetwork::proven_for(const config::ArchConfig& cfg) const {
  return proof_.has_value() && proof_->covers(program, cfg);
}

CompiledNetwork compile_network(const nn::Graph& graph, const config::ArchConfig& cfg,
                                const compiler::CompileOptions& copts) {
  return CompiledNetwork(graph, cfg, copts);
}

Report simulate_compiled(const CompiledNetwork& net, const config::ArchConfig& cfg,
                         const nn::Tensor* input, telemetry::TraceSink* trace) {
  const uint32_t batch = std::max(1u, net.copts.batch);
  const size_t output_elems = net.output_elems_per_image * batch;
  // The same input tensor is replicated for every batch position; batched
  // callers wanting distinct images should use simulate_program directly.
  std::vector<int8_t> input_bytes;
  const std::vector<int8_t>* in_ptr = nullptr;
  if (input != nullptr) {
    input_bytes.reserve(input->data.size() * batch);
    for (uint32_t b = 0; b < batch; ++b) {
      input_bytes.insert(input_bytes.end(), input->data.begin(), input->data.end());
    }
    in_ptr = &input_bytes;
  }
  Report report = run_program(net.program, net.proof_ ? &*net.proof_ : nullptr, cfg, in_ptr,
                              net.copts.input_gaddr, net.copts.output_gaddr, output_elems,
                              trace);
  report.compile = net.compile;
  return report;
}

Report simulate_network(const nn::Graph& graph, const config::ArchConfig& cfg,
                        const compiler::CompileOptions& copts, const nn::Tensor* input,
                        telemetry::TraceSink* trace) {
  return simulate_compiled(compile_network(graph, cfg, copts), cfg, input, trace);
}

}  // namespace pim::runtime
