#include "dse/evaluator.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/strings.h"

namespace pim::dse {

double area_proxy_mm2(const config::ArchConfig& cfg) {
  // Per-unit area constants (mm^2). Order-of-magnitude figures in the spirit
  // of ISAAC/PUMA-style estimates: a 4F^2 memristor cell at F ~ 50 nm, a
  // compact SAR ADC, SRAM at ~0.2 mm^2/MB. The absolute scale is a proxy;
  // only monotonicity in each knob matters for frontier extraction.
  constexpr double kCellMm2 = 1e-8;           // one memristor cell
  constexpr double kAdcMm2 = 1.5e-3;          // one SAR ADC channel
  constexpr double kLaneMm2 = 2e-3;           // one vector SIMD lane
  constexpr double kSramMm2PerByte = 0.2 / (1024.0 * 1024.0);
  constexpr double kCoreLogicMm2 = 0.05;      // front end, scalar unit, misc
  constexpr double kRobEntryMm2 = 2e-3;       // ROB + wakeup CAM per entry
  constexpr double kRouterMm2 = 0.05;         // mesh router at 32 B/cycle links

  const config::CoreConfig& core = cfg.core;
  const double xbar_cells = static_cast<double>(core.matrix.xbar.rows) *
                            static_cast<double>(core.matrix.xbar.cols);
  double core_area = 0.0;
  core_area += static_cast<double>(core.matrix.xbar_count) * xbar_cells * kCellMm2;
  core_area += static_cast<double>(core.matrix.adc_count) * kAdcMm2;
  core_area += static_cast<double>(core.vector.lanes) * kLaneMm2;
  core_area += static_cast<double>(core.local_memory.size_bytes) * kSramMm2PerByte;
  core_area += kCoreLogicMm2 + static_cast<double>(core.rob_size) * kRobEntryMm2;

  // Router datapath area scales with link width.
  const double router = kRouterMm2 * static_cast<double>(cfg.noc.link_bytes_per_cycle) / 32.0;
  return static_cast<double>(cfg.core_count) * (core_area + router);
}

void apply_time_budget(runtime::Scenario* scenario, uint64_t max_time_ps) {
  if (max_time_ps == 0) return;
  uint64_t& budget = scenario->arch.sim.max_time_ps;
  budget = budget == 0 ? max_time_ps : std::min(budget, max_time_ps);
}

Evaluator::Evaluator(const SearchSpace& space, const EvalOptions& opts)
    : space_(space),
      artifacts_(opts.artifacts ? opts.artifacts : std::make_shared<artifact::Store>()),
      runner_(opts.jobs),
      cache_(opts.cache_dir, opts.cache_max_bytes),
      max_point_time_ps_(opts.max_point_time_ps),
      metrics_(opts.metrics) {
  runner_.set_artifacts(artifacts_);
  runner_.set_metrics(opts.metrics);
  runner_.set_trace(opts.trace);
  runner_.set_scenario_timeout_ms(opts.scenario_timeout_ms);
  runner_.set_retry(opts.max_retries, opts.retry_backoff_ms);
  runner_.set_cancel(opts.cancel);
  cache_.set_metrics(opts.metrics);
}

std::vector<EvaluatedPoint> Evaluator::evaluate(const std::vector<Point>& points) {
  std::vector<EvaluatedPoint> out(points.size());
  std::vector<size_t> to_run;        // indices into `out`
  std::vector<runtime::Scenario> scenarios;
  std::vector<std::string> keys;     // parallel to `to_run`
  std::map<std::string, size_t> pending;           // key -> slot in `to_run`
  std::vector<std::pair<size_t, size_t>> aliases;  // (out index, to_run slot)
  size_t resolved = 0;

  // Resolving a graph-file workload parses the file; most batches share one
  // workload (or a handful under a "model" knob), so memoize the handle per
  // unique (spec, init_params) instead of re-reading the file per point. The
  // handle carries the exact graph its fingerprint was computed on — the
  // scenario simulates that graph, so the cache key and the simulated
  // content cannot disagree even if the file is edited mid-batch.
  std::vector<std::tuple<workload::WorkloadSpec, bool, artifact::GraphHandle>> handle_memo;
  const auto handle_of = [&](const workload::WorkloadSpec& w, bool init_params) {
    for (const auto& [spec, init, handle] : handle_memo) {
      if (init == init_params && spec == w) return handle;
    }
    const artifact::GraphHandle handle = artifacts_->graph(w, init_params);
    handle_memo.emplace_back(w, init_params, handle);
    return handle;
  };

  for (size_t i = 0; i < points.size(); ++i) {
    EvaluatedPoint& ep = out[i];
    ep.point = points[i];
    ep.label = point_label(points[i]);

    MaterializedPoint m = materialize(space_, points[i]);
    if (!m.feasible) {
      ep.feasible = false;
      ep.error = m.error;
      if (progress_) progress_(ep, ++resolved, points.size());
      continue;
    }
    // The budget is part of the scenario, hence of the cache key: a capped
    // run and an uncapped run of the same point are different simulations.
    apply_time_budget(&m.scenario, max_point_time_ps_);
    std::string key;
    try {
      // Workload resolution reads graph description files; one that
      // vanished or broke since the space was loaded degrades to an
      // infeasible point, not a crashed exploration.
      const artifact::GraphHandle handle = handle_of(m.scenario.workload, m.scenario.functional);
      key = scenario_key(m.scenario, handle.fingerprint);
      m.scenario.prebuilt = handle.built;
      m.scenario.prebuilt_fingerprint = handle.fingerprint;
    } catch (const std::exception& e) {
      ep.feasible = false;
      ep.error = e.what();
      if (progress_) progress_(ep, ++resolved, points.size());
      continue;
    }
    if (cache_.load(key, &ep)) {
      ep.from_cache = true;
      ++stats_.hits;
      if (metrics_ != nullptr) metrics_->counter("dse.cache_hits").add();
      if (progress_) progress_(ep, ++resolved, points.size());
      continue;
    }
    // Distinct points can share a cache key when a knob cannot affect the
    // simulation (e.g. an input_hw sweep over a graph-file workload, whose
    // resolution is fixed by the file). Simulate the first occurrence only
    // and alias the rest to its result — same outcome, one simulation.
    if (const auto dup = pending.find(key); dup != pending.end()) {
      ++stats_.hits;
      if (metrics_ != nullptr) metrics_->counter("dse.cache_hits").add();
      aliases.emplace_back(i, dup->second);
      continue;  // resolved after the batch completes
    }
    ++stats_.misses;
    if (metrics_ != nullptr) metrics_->counter("dse.cache_misses").add();
    pending.emplace(key, to_run.size());
    to_run.push_back(i);
    keys.push_back(key);
    scenarios.push_back(std::move(m.scenario));
  }

  if (!scenarios.empty()) {
    // Fill results from the BatchRunner completion callback (serialized by
    // the runner) so cache writes and progress reporting happen as each
    // point finishes, not after the whole batch.
    std::map<std::string, size_t> by_name;  // scenario name -> index into to_run
    for (size_t j = 0; j < scenarios.size(); ++j) by_name[scenarios[j].name] = j;
    runner_.set_progress([&](const runtime::ScenarioResult& r, size_t, size_t) {
      const size_t j = by_name.at(r.name);
      EvaluatedPoint& ep = out[to_run[j]];
      ep.feasible = true;
      ep.ok = r.ok;
      ep.error = r.error;
      if (r.fail_kind == runtime::FailKind::WallTimeout) {
        // Killed by this machine's watchdog — says nothing durable about the
        // point, so it is reported as a failure but never persisted: a rerun
        // (or a faster host) must re-simulate it.
        if (progress_) progress_(ep, ++resolved, points.size());
        return;
      }
      if (r.timed_out) {
        // The simulation hit the per-point budget (or deadlocked under it).
        // Report it like an infeasible corner: excluded from the frontier,
        // never silently treated as a valid design.
        ep.feasible = false;
        ep.error = strformat("timed out: exceeded %llu ps simulated-time budget (or deadlocked)",
                             static_cast<unsigned long long>(scenarios[j].arch.sim.max_time_ps));
      }
      if (r.ok) {
        ep.metrics.latency_ms = r.report.latency_ms();
        ep.metrics.energy_uj = r.report.energy_uj();
        ep.metrics.power_mw = r.report.avg_power_mw();
        ep.metrics.area_mm2 = area_proxy_mm2(scenarios[j].arch);
        ep.metrics.instructions = r.report.stats.total_instructions();
        ep.metrics.noc_bytes = r.report.stats.total_bytes_on_noc();
        ep.metrics.total_ps = static_cast<uint64_t>(r.report.stats.total_ps);
      }
      // Safe to persist unconditionally: the scenario carried the prebuilt
      // graph its key was fingerprinted on, so a description file edited
      // mid-batch cannot make the key and the simulated content disagree.
      cache_.store(keys[j], ep);
      if (progress_) progress_(ep, ++resolved, points.size());
    });
    const runtime::BatchResult br = runner_.run(scenarios);
    runner_.set_progress(nullptr);
    // Scenarios the cancelled run never started get no progress callback —
    // mark their points skipped so the explore loop drops them (they were
    // never simulated; keeping them as "failed" would poison a resume).
    for (size_t j = 0; j < br.results.size(); ++j) {
      if (br.results[j].skipped) out[to_run[j]].skipped = true;
    }
  }
  for (const auto& [i, slot] : aliases) {
    const EvaluatedPoint& src = out[to_run[slot]];
    EvaluatedPoint& ep = out[i];  // keeps its own point/label
    ep.feasible = src.feasible;
    ep.ok = src.ok;
    ep.skipped = src.skipped;
    ep.error = src.error;
    ep.metrics = src.metrics;
    ep.from_cache = true;  // served without a simulation of its own
    if (progress_) progress_(ep, ++resolved, points.size());
  }
  return out;
}

}  // namespace pim::dse
