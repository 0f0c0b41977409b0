// Throughput — batched, pipelined inference.
//
// The motivation the paper opens with is "high-throughput, low-power DNN
// inference accelerators". Single-image latency pays the full pipeline
// fill/drain; streaming a batch through the layer pipeline amortizes it.
// This harness sweeps the batch size and reports per-image latency
// (latency/B) and throughput, on the paper's 64-core chip with
// performance-first mapping.
//
// Besides the human-readable table it writes BENCH_throughput.json (path
// overridable via PIM_BENCH_JSON) with every measured point, so successive
// PRs have a machine-readable perf trajectory to diff against. Each point
// carries its compile/simulate host-time split, and a "sim_knob_sweep"
// section measures the artifact-cache win: a 4-point simulation-knob sweep
// run once recompiling per point and once through artifact::Store (one
// compile shared by all points), with the results checked bit-identical.
#include "bench_common.h"

#include <chrono>

#include "artifact/artifact.h"
#include "json/json.h"
#include "workload/workload.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main() {
  using namespace pim;

  bench::print_header("Throughput — batched pipelined inference",
                      "the paper's §I motivation (throughput accelerators)");

  const std::vector<uint32_t> batches = {1, 2, 4, 8};
  std::vector<std::string> nets = {"alexnet", "squeezenet"};
  if (bench::quick()) nets = {"squeezenet"};

  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  cfg.core.rob_size = 16;
  cfg.sim.functional = false;

  std::vector<std::vector<std::string>> rows;
  std::vector<stats::Series> series;
  for (uint32_t b : batches) series.push_back({"B=" + std::to_string(b), {}});

  json::Array measurements;
  for (const std::string& name : nets) {
    nn::Graph net = bench::bench_model(name);
    std::vector<std::string> row = {name};
    double base_per_image = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      compiler::CompileOptions copts;
      copts.include_weights = false;
      copts.batch = batches[i];
      const Clock::time_point t0 = Clock::now();
      const runtime::CompiledNetwork compiled = runtime::compile_network(net, cfg, copts);
      const double compile_ms = ms_since(t0);
      const Clock::time_point t1 = Clock::now();
      runtime::Report rep = runtime::simulate_compiled(compiled, cfg);
      const double simulate_ms = ms_since(t1);
      const double per_image = rep.latency_ms() / batches[i];
      if (i == 0) base_per_image = per_image;
      row.push_back(stats::fmt(per_image));
      series[i].values.push_back(per_image / base_per_image);

      json::Value m;
      m["network"] = json::Value(name);
      m["batch"] = json::Value(batches[i]);
      m["latency_ms"] = json::Value(rep.latency_ms());
      m["per_image_ms"] = json::Value(per_image);
      m["images_per_s"] = json::Value(per_image > 0 ? 1e3 / per_image : 0.0);
      m["energy_uj"] = json::Value(rep.energy_uj());
      m["avg_power_mw"] = json::Value(rep.avg_power_mw());
      m["instructions"] = json::Value(rep.stats.total_instructions());
      m["compile_ms"] = json::Value(compile_ms);
      m["simulate_ms"] = json::Value(simulate_ms);
      measurements.push_back(std::move(m));
    }
    rows.push_back(row);
  }

  std::vector<std::string> header = {"network"};
  for (uint32_t b : batches) header.push_back("B=" + std::to_string(b) + " ms/img");
  std::printf("%s\n", stats::markdown_table(header, rows).c_str());
  std::printf("%s\n", stats::bar_chart("per-image latency normalized to batch=1", nets,
                                       series)
                          .c_str());
  std::printf("expected shape: per-image latency falls with batch size as the layer\n"
              "pipeline stays full, approaching the bottleneck stage's service time.\n");

  // Artifact-cache win on a simulation-knob sweep: ROB size and NoC link
  // width don't feed the compiler, so all four points share one compile
  // identity. Each point carries the same simulated-time budget DSE uses
  // for budgeted evaluation (`sim.max_time_ps`), the regime the cache
  // targets — many short budgeted simulations per compile. Run the sweep
  // twice — recompiling per point (the pre-cache path) and through
  // artifact::Store (compile once, simulate four times) — and require
  // bit-identical results.
  const std::string sweep_net = nets.back();
  const workload::WorkloadSpec sweep_spec =
      workload::WorkloadSpec::builtin(sweep_net, bench::input_hw());
  std::vector<config::ArchConfig> sweep_cfgs;
  for (uint32_t rob : {8u, 32u}) {
    for (uint32_t link : {32u, 64u}) {
      config::ArchConfig c = cfg;
      c.core.rob_size = rob;
      c.noc.link_bytes_per_cycle = link;
      c.sim.max_time_ps = 20'000'000;  // 0.02 ms simulated per point
      sweep_cfgs.push_back(c);
    }
  }
  compiler::CompileOptions sweep_copts;
  sweep_copts.include_weights = false;

  const nn::Graph sweep_graph = workload::build(sweep_spec, /*init_params=*/false).graph;
  std::vector<runtime::Report> recompiled;
  const Clock::time_point ta = Clock::now();
  for (const config::ArchConfig& c : sweep_cfgs) {
    recompiled.push_back(runtime::simulate_network(sweep_graph, c, sweep_copts));
  }
  const double recompile_ms = ms_since(ta);

  artifact::Store store;
  std::vector<runtime::Report> cached;
  const Clock::time_point tb = Clock::now();
  const artifact::GraphHandle handle = store.graph(sweep_spec, /*init_params=*/false);
  for (const config::ArchConfig& c : sweep_cfgs) {
    const auto net = store.program(handle, c, sweep_copts);
    cached.push_back(runtime::simulate_compiled(*net, c));
  }
  const double cached_ms = ms_since(tb);

  bool bit_identical = true;
  for (size_t i = 0; i < sweep_cfgs.size(); ++i) {
    if (recompiled[i].stats.total_ps != cached[i].stats.total_ps ||
        recompiled[i].stats.total_instructions() != cached[i].stats.total_instructions()) {
      bit_identical = false;
      std::fprintf(stderr,
                   "throughput_batch: sim_knob_sweep point %zu differs between the "
                   "recompile and artifact-cache paths\n",
                   i);
    }
  }
  const artifact::StoreStats sweep_stats = store.stats();
  std::printf("\nsim-knob sweep (%s, %zu points): recompile-per-point %.1f ms, "
              "artifact cache %.1f ms (%.2fx, %zu compile%s); results %s\n",
              sweep_net.c_str(), sweep_cfgs.size(), recompile_ms, cached_ms,
              cached_ms > 0 ? recompile_ms / cached_ms : 0.0, sweep_stats.program_misses,
              sweep_stats.program_misses == 1 ? "" : "s",
              bit_identical ? "bit-identical" : "MISMATCH");

  // Machine-readable trajectory for future PRs to compare against. Written
  // last, and best-effort: an unwritable path must not discard the tables
  // above.
  const char* json_env = std::getenv("PIM_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_throughput.json";
  json::Value out;
  out["bench"] = json::Value("throughput_batch");
  out["arch"] = json::Value(cfg.name);
  out["input_hw"] = json::Value(static_cast<int64_t>(bench::input_hw()));
  out["measurements"] = json::Value(std::move(measurements));
  json::Value sweep;
  sweep["network"] = json::Value(sweep_net);
  sweep["points"] = json::Value(sweep_cfgs.size());
  sweep["recompile_ms"] = json::Value(recompile_ms);
  sweep["cached_ms"] = json::Value(cached_ms);
  sweep["speedup"] = json::Value(cached_ms > 0 ? recompile_ms / cached_ms : 0.0);
  sweep["program_compiles"] = json::Value(sweep_stats.program_misses);
  sweep["bit_identical"] = json::Value(bit_identical);
  out["sim_knob_sweep"] = std::move(sweep);
  try {
    json::write_file(json_path, out);
    std::printf("wrote %s\n", json_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "throughput_batch: cannot write %s: %s\n", json_path.c_str(),
                 e.what());
  }
  return bit_identical ? 0 : 1;
}
