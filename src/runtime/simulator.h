// Runtime facade: compile-and-simulate in one call, with a consolidated
// report (latency / energy / power, per-layer and per-core breakdowns,
// functional network output).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/stats.h"
#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "isa/program.h"
#include "nn/executor.h"
#include "nn/graph.h"
#include "telemetry/telemetry.h"

namespace pim::runtime {

/// Consolidated result of one simulation.
struct Report {
  std::string network;
  std::string policy;
  bool finished = false;        ///< all cores halted (no deadlock/timeout)
  /// The run was abandoned by the wall-clock watchdog
  /// (SimSettings.max_wall_ms); implies !finished. Serialized only when
  /// true, so existing report JSON stays byte-identical.
  bool wall_timed_out = false;
  arch::RunStats stats;
  compiler::CompileReport compile;
  /// Functional network output (int8), read back from global memory.
  std::vector<int8_t> output;

  double latency_ms() const { return stats.latency_ms(); }
  double energy_uj() const { return stats.total_energy_pj() * 1e-6; }
  double avg_power_mw() const { return stats.avg_power_mw(); }

  /// Human-readable summary (one paragraph).
  std::string summary() const;
  /// Markdown table of per-layer statistics (latency span, busy times,
  /// communication ratio) in layer-id order.
  std::string layer_table(const nn::Graph& graph) const;
  json::Value to_json() const;
};

struct CompiledNetwork;

/// Back half of simulate_network: simulate an already-compiled network on
/// `cfg`. When `input` is provided it is replicated per batch position and
/// `report.output` holds the simulated network output. `trace`, when
/// non-null, records the run's structural timeline (core units, NoC links,
/// per-layer phases); tracing never changes the Report. The chip skips
/// re-verifying the program when `cfg` has the compile-relevant key it was
/// compiled (and verified) under, and verifies it as simulate_program does
/// otherwise.
Report simulate_compiled(const CompiledNetwork& net, const config::ArchConfig& cfg,
                         const nn::Tensor* input = nullptr,
                         telemetry::TraceSink* trace = nullptr);

/// A compiled network: the program plus the compile-time facts the simulate
/// half needs. Immutable once built — safe to share across threads and to
/// reuse under any configuration whose compile-relevant fields (see
/// config::compile_relevant_arch) match the one it was compiled for.
struct CompiledNetwork {
  /// Compile `graph` under `options` for `cfg` (what compile_network does).
  CompiledNetwork(const nn::Graph& graph, const config::ArchConfig& cfg,
                  const compiler::CompileOptions& options);

  /// True when simulate_compiled under `cfg` skips re-verifying: the
  /// compiler's proof covers this object's program under `cfg`'s
  /// compile-relevant key. A copy re-verifies (the proof names the
  /// original's program).
  bool proven_for(const config::ArchConfig& cfg) const;

 private:
  friend Report simulate_compiled(const CompiledNetwork&, const config::ArchConfig&,
                                  const nn::Tensor*, telemetry::TraceSink*);
  /// The compiler's verify proof for `program` (declared first: compile
  /// fills it while `program` is built).
  std::optional<isa::VerifyProof> proof_;

 public:
  compiler::CompileReport compile;
  compiler::CompileOptions copts;  ///< options the program was built under
  /// Const: the proof above covers exactly these contents.
  const isa::Program program;
  /// Output elements of one image (the single output layer's elems); 0 when
  /// the graph does not have exactly one output and nothing is read back.
  size_t output_elems_per_image = 0;
};

/// Front half of simulate_network: compile `graph` under `copts` for `cfg`.
CompiledNetwork compile_network(const nn::Graph& graph, const config::ArchConfig& cfg,
                                const compiler::CompileOptions& copts = {});

/// End-to-end: compile `graph` under `copts`, simulate on `cfg`, return the
/// report. When `input` is provided the run is functional and
/// `report.output` holds the simulated network output (bit-comparable to
/// nn::execute_reference_output). Facade over compile_network +
/// simulate_compiled.
Report simulate_network(const nn::Graph& graph, const config::ArchConfig& cfg,
                        const compiler::CompileOptions& copts = {},
                        const nn::Tensor* input = nullptr,
                        telemetry::TraceSink* trace = nullptr);

/// Simulate an already-compiled program. `input_bytes`, when provided, is
/// written to global memory at `input_gaddr` before the run; `output_elems`
/// bytes are read back from `output_gaddr` after it. `trace`, when non-null,
/// records the run's structural timeline.
Report simulate_program(const isa::Program& program, const config::ArchConfig& cfg,
                        const std::vector<int8_t>* input_bytes = nullptr,
                        uint64_t input_gaddr = 0, uint64_t output_gaddr = 0,
                        size_t output_elems = 0, telemetry::TraceSink* trace = nullptr);

}  // namespace pim::runtime
