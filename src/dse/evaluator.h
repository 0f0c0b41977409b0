// Point evaluator: turns search-space points into runtime::BatchRunner
// scenarios, fans the uncached ones out across host threads, and serves the
// rest from the on-disk result cache (cache.h).
//
// Results are deterministic: the returned vector is in input order, each
// simulation is bit-identical regardless of the job count (the BatchRunner
// guarantee), and cached metrics round-trip exactly (JSON doubles are
// written with 17 significant digits).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "dse/cache.h"
#include "dse/search_space.h"
#include "runtime/batch_runner.h"

namespace pim::dse {

/// Analytic silicon-area proxy [mm^2] of one configuration — the fourth DSE
/// objective. Not a layout estimate: a monotonic cost model (crossbar cells,
/// ADCs, SIMD lanes, SRAM, ROB, routers scaled by link width) that lets the
/// Pareto frontier trade performance against hardware spent. Deterministic
/// in the configuration alone.
double area_proxy_mm2(const config::ArchConfig& cfg);

/// Evaluator knobs beyond the search space itself.
struct EvalOptions {
  unsigned jobs = 0;              ///< BatchRunner jobs; 0 = all hardware threads
  std::string cache_dir;          ///< empty = no result cache
  uint64_t cache_max_bytes = 0;   ///< result-cache size cap; 0 = unbounded
  /// Per-point simulated-time budget in picoseconds (SimSettings.max_time_ps);
  /// 0 = no budget. Paper-scale points often finish in tens of microseconds,
  /// so the budget is ps-granular (pimdse: --max-point-us / --max-point-ms).
  /// Points that exceed it are reported like infeasible ones, so a
  /// pathological knob corner cannot stall a whole exploration.
  uint64_t max_point_time_ps = 0;
  /// Artifact store shared with other evaluators/runners; null = the
  /// evaluator creates a private store (still shared across all of its own
  /// evaluate() calls and BatchRunner workers).
  std::shared_ptr<artifact::Store> artifacts;
  /// Metrics registry (dse.cache_hits / dse.cache_misses, plus the batch and
  /// artifact metrics of the underlying BatchRunner); null = off. Must
  /// outlive the evaluator.
  telemetry::Registry* metrics = nullptr;
  /// Trace sink threaded to every simulation this evaluator runs; null =
  /// off. Must outlive the evaluator.
  telemetry::TraceSink* trace = nullptr;
  /// Per-scenario wall-clock watchdog in ms (0 = off). Machine-dependent by
  /// nature, so it is runtime-only: never part of the cache key, and a
  /// watchdog-killed point is never cached (rerunning on a faster host must
  /// re-simulate it).
  uint64_t scenario_timeout_ms = 0;
  /// Bounded retry for transient per-point failures (BatchRunner policy).
  unsigned max_retries = 0;
  unsigned retry_backoff_ms = 10;
  /// Cooperative cancellation flag (SIGINT): in-flight points drain, queued
  /// ones come back with EvaluatedPoint::skipped. Must outlive the evaluator.
  const std::atomic<bool>* cancel = nullptr;
};

/// Cap `scenario`'s simulated-time budget at `max_time_ps` (no-op when 0;
/// keeps a stricter budget already present on the scenario).
void apply_time_budget(runtime::Scenario* scenario, uint64_t max_time_ps);

/// Evaluates points through BatchRunner, consulting the result cache first.
class Evaluator {
 public:
  Evaluator(const SearchSpace& space, const EvalOptions& opts);

  /// Called after each point resolves (cache hit or simulation), serialized:
  /// (point, resolved count, total count of this evaluate() call).
  using Progress = std::function<void(const EvaluatedPoint&, size_t, size_t)>;
  void set_progress(Progress cb) { progress_ = std::move(cb); }

  /// Evaluate every point; infeasible points are reported, not simulated.
  /// Never throws for per-point failures. Results are in input order.
  std::vector<EvaluatedPoint> evaluate(const std::vector<Point>& points);

  /// Cumulative over all evaluate() calls (infeasible points don't count).
  const CacheStats& cache_stats() const { return stats_; }
  unsigned jobs() const { return runner_.jobs(); }
  const ResultCache& cache() const { return cache_; }

  /// The artifact store this evaluator simulates through (never null).
  const std::shared_ptr<artifact::Store>& artifacts() const { return artifacts_; }
  /// Snapshot of the store's cumulative counters (the store may be shared).
  artifact::StoreStats artifact_stats() const { return artifacts_->stats(); }

 private:
  const SearchSpace& space_;
  std::shared_ptr<artifact::Store> artifacts_;
  runtime::BatchRunner runner_;
  ResultCache cache_;
  CacheStats stats_;
  Progress progress_;
  uint64_t max_point_time_ps_ = 0;
  telemetry::Registry* metrics_ = nullptr;
};

}  // namespace pim::dse
