// Parallel scenario driver: fan independent simulations out across host
// threads.
//
// The sim::Kernel is single-threaded and deterministic by design, so
// throughput on multi-scenario sweeps (design-space exploration, model zoo
// regressions, figure reproduction) comes from running many independent
// kernels concurrently — one Scenario = one compile + one sim::Kernel, with
// no shared mutable state between workers (pim::log is mutex-guarded).
// Results are returned in input order and are bit-identical to a serial run
// of the same scenario list.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "json/json.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace pim::runtime {

/// One independent simulation: a declarative workload (builtin zoo network,
/// JSON graph file, or parameterized mlp — see workload::WorkloadSpec), an
/// architecture configuration, and compile options.
struct Scenario {
  std::string name;              ///< unique label; derive_name() when empty
  workload::WorkloadSpec workload;  ///< what network runs
  config::ArchConfig arch;
  compiler::CompileOptions copts;
  bool functional = false;       ///< move real data and read back the output
  uint64_t input_seed = 7;       ///< deterministic functional input

  /// Artifact-layer prebuild: when set, run() simulates exactly this graph
  /// (whose content `prebuilt_fingerprint` names) instead of re-resolving
  /// `workload` — so a caller that keyed results on the fingerprint is
  /// guaranteed the keyed content is what runs. dse::Evaluator fills these;
  /// plain sweeps leave them empty and run() resolves workloads itself.
  std::shared_ptr<const workload::BuiltWorkload> prebuilt;
  uint64_t prebuilt_fingerprint = 0;

  /// "<workload>/<policy>/b<batch>[/rN]" — the default scenario label.
  std::string derive_name() const;
};

/// Structured cause of a scenario failure, alongside the free-text `error`.
enum class FailKind {
  None,        ///< ok, or skipped before it ever ran (cancelled batch)
  Exception,   ///< compile/simulate threw (after any retries)
  SimTimeout,  ///< simulated-time budget (SimSettings.max_time_ps) expired
  WallTimeout, ///< wall-clock watchdog (scenario timeout) killed the run
};
const char* fail_kind_name(FailKind k);

/// Outcome of one scenario. `ok == false` means the compile or simulation
/// threw; `error` holds the message and `report` is default-constructed.
struct ScenarioResult {
  std::string name;
  std::string workload;          ///< WorkloadSpec::label() of the scenario
  std::string policy;
  uint32_t batch = 1;
  bool ok = false;
  /// ok == false because a simulated-time budget (SimSettings.max_time_ps)
  /// was active and the simulation stopped before all cores halted
  /// (indistinguishable from a deadlock under a budget).
  bool timed_out = false;
  FailKind fail_kind = FailKind::None;
  /// The batch was cancelled before this scenario started; it never ran
  /// (ok == false, report empty). In-flight scenarios at cancel time drain
  /// to completion and are *not* skipped.
  bool skipped = false;
  unsigned retries = 0;          ///< re-attempts after transient failures (resolve + run)
  std::string error;
  Report report;
  double wall_ms = 0.0;          ///< host wall-clock spent on this scenario

  json::Value to_json() const;
};

/// Aggregate outcome of one batch run.
struct BatchResult {
  std::vector<ScenarioResult> results;  ///< same order as the input scenarios
  unsigned jobs = 1;
  double wall_ms = 0.0;                 ///< end-to-end host wall-clock
  /// Host wall-clock of the prefetch pass's workload resolves (retries
  /// included), summed over the unique workloads.
  double prefetch_ms = 0.0;
  /// Cancellation was requested mid-run: some results are skipped.
  /// Serialized only when true, so existing batch JSON stays byte-identical.
  bool interrupted = false;
  /// Artifact-store activity of this run (a delta when the runner shares a
  /// store across runs): graph/program cache hits, misses, evictions.
  artifact::StoreStats artifacts;

  bool all_ok() const;
  /// prefetch_ms plus the per-scenario wall-clock — what a serial run
  /// would cost.
  double serial_ms() const;
  /// serial_ms() / wall_ms — measured scaling over `--jobs 1`.
  double speedup() const;

  /// Markdown: per-scenario table plus an aggregate footer.
  std::string markdown() const;
  json::Value to_json() const;
};

/// Thread-pool scenario driver.
class BatchRunner {
 public:
  /// `jobs` = worker threads; 0 picks std::thread::hardware_concurrency().
  explicit BatchRunner(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Called after each scenario completes (from worker threads, serialized
  /// internally): (result, completed count, total count).
  using Progress = std::function<void(const ScenarioResult&, size_t, size_t)>;
  void set_progress(Progress cb) { progress_ = std::move(cb); }

  /// Share one artifact store across run() calls (and with other runners or
  /// evaluators). Unset, every run() uses a private store — artifacts are
  /// still shared across the scenarios and workers of that one run.
  void set_artifacts(std::shared_ptr<artifact::Store> store) { artifacts_ = std::move(store); }

  /// Trace every run() through `sink` (null = off, the default): simulated
  /// timelines from each scenario's chip, plus host-time worker/scenario
  /// spans under a "host" process row. The sink must outlive the runner's
  /// run() calls. Tracing never changes results — `--verify` stays bit-exact.
  void set_trace(telemetry::TraceSink* sink) { trace_ = sink; }

  /// Publish batch metrics into `registry` on every run(): scenario counts,
  /// per-scenario wall-time histogram, queue depth, and the run's artifact
  /// store delta. Null (the default) disables.
  void set_metrics(telemetry::Registry* registry) { metrics_ = registry; }

  /// Per-scenario wall-clock watchdog (0 = off, the default): a scenario
  /// whose simulation holds a worker longer than `ms` is abandoned and fails
  /// with FailKind::WallTimeout (counted as `batch.watchdog_kills`). This is
  /// host-machine-dependent — results killed by the watchdog must never be
  /// treated as properties of the architecture point.
  void set_scenario_timeout_ms(uint64_t ms) { scenario_timeout_ms_ = ms; }

  /// Bounded retry for transient failures (a pim::TransientError, such as a
  /// graph file that vanished mid-rename): up to `max_retries` extra
  /// attempts, sleeping `backoff_ms << attempt` between them. A workload
  /// resolve and a scenario's compile-and-simulate each get that budget;
  /// a resolve that fails for good fails its scenarios without further
  /// attempts. Retries are counted per scenario and as `batch.retries`.
  /// Default: no retries.
  void set_retry(unsigned max_retries, unsigned backoff_ms = 10) {
    max_retries_ = max_retries;
    retry_backoff_ms_ = backoff_ms;
  }

  /// Cooperative cancellation (e.g. a SIGINT flag): once `*flag` becomes
  /// true, workers finish the scenarios they are on (results stay valid) and
  /// claim no more; unstarted scenarios come back with skipped = true and
  /// BatchResult.interrupted is set. The flag must outlive run().
  void set_cancel(const std::atomic<bool>* flag) { cancel_ = flag; }

  /// Run every scenario, `jobs` at a time. Workloads are resolved up front
  /// (one graph build per unique workload) and programs are compiled once
  /// per unique (graph, compile-relevant arch, options) key, shared across
  /// workers. Never throws for per-scenario failures — inspect
  /// ScenarioResult::ok.
  BatchResult run(const std::vector<Scenario>& scenarios) const;

 private:
  unsigned jobs_;
  Progress progress_;
  std::shared_ptr<artifact::Store> artifacts_;
  telemetry::TraceSink* trace_ = nullptr;
  telemetry::Registry* metrics_ = nullptr;
  uint64_t scenario_timeout_ms_ = 0;
  unsigned max_retries_ = 0;
  unsigned retry_backoff_ms_ = 10;
  const std::atomic<bool>* cancel_ = nullptr;
};

/// Cross product {workloads} x {policies} x {batches} -> scenario list, all
/// on the same architecture. Workloads carry their own input resolution.
/// Scenario names are made unique: colliding labels (two graph files with
/// the same basename) get a "#N" suffix in list order.
std::vector<Scenario> expand_sweep(const std::vector<workload::WorkloadSpec>& workloads,
                                   const std::vector<compiler::MappingPolicy>& policies,
                                   const std::vector<uint32_t>& batches,
                                   const config::ArchConfig& arch, bool functional = false);

/// "perf" | "util" -> MappingPolicy; throws std::invalid_argument otherwise.
compiler::MappingPolicy policy_from_name(const std::string& name);

/// Sweep spec from a JSON value — the `pimbatch --scenarios` schema, shared
/// with the serving layer:
///   {"models": ["tiny_cnn", "net.json", ...],       // and/or "workloads"
///    "workloads": [{"kind": "graph_file", ...}],
///    "policies": ["perf", "util"], "batches": [1, 2],
///    "arch": "tiny" | "config": "arch.json",
///    "input_hw": 8, "functional": true, "replication": 1}
/// Relative file paths resolve against `base_dir`. Throws json::Error on
/// shape errors and std::invalid_argument on bad values.
std::vector<Scenario> sweep_from_json(const json::Value& spec, const std::string& base_dir = "");

/// Bit-exact comparison of two runs of the same scenario list (e.g. parallel
/// vs serial): latency in ps, per-component energy in pJ, instruction count
/// and functional output must match exactly. Returns one human-readable
/// message per mismatch; empty = identical.
std::vector<std::string> compare_results(const BatchResult& a, const BatchResult& b);

}  // namespace pim::runtime
