#include "dse/explorer.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/journal.h"
#include "common/strings.h"
#include "dse/cache.h"
#include "dse/pareto.h"
#include "stats/report.h"

namespace pim::dse {
namespace {

std::vector<const EvaluatedPoint*> usable_points(const std::vector<EvaluatedPoint>& pts) {
  std::vector<const EvaluatedPoint*> out;
  for (const EvaluatedPoint& p : pts) {
    if (p.feasible && p.ok) out.push_back(&p);
  }
  return out;
}

}  // namespace

size_t ExploreResult::infeasible_count() const {
  return static_cast<size_t>(
      std::count_if(points.begin(), points.end(),
                    [](const EvaluatedPoint& p) { return !p.feasible; }));
}

size_t ExploreResult::failed_count() const {
  return static_cast<size_t>(
      std::count_if(points.begin(), points.end(),
                    [](const EvaluatedPoint& p) { return p.feasible && !p.ok; }));
}

std::string exploration_fingerprint(const SearchSpace& space, const ExploreOptions& opts) {
  json::Value f;
  f["model_version"] = json::Value(kSimModelVersion);
  f["space"] = json::Value(space.name);
  f["base"] = space.base.to_json();
  // The workload contributes its *content* fingerprint: editing a graph
  // description file makes an old journal unusable, exactly like the result
  // cache's key discipline.
  f["workload"] = json::Value(strformat(
      "%016llx", static_cast<unsigned long long>(space.workload.fingerprint())));
  f["functional"] = json::Value(space.functional);
  f["input_seed"] = json::Value(space.input_seed);
  json::Value knobs;
  for (const Knob& k : space.knobs) {
    json::Array vals(k.values.begin(), k.values.end());
    knobs[k.name] = json::Value(std::move(vals));
  }
  f["knobs"] = std::move(knobs);
  json::Array objs;
  for (const std::string& o : space.objectives) objs.push_back(json::Value(o));
  f["objectives"] = json::Value(std::move(objs));
  json::Array cons;
  for (const Constraint& c : space.constraints) cons.push_back(json::Value(c.text));
  f["constraints"] = json::Value(std::move(cons));
  f["sampler"] = json::Value(opts.sampler);
  f["seed"] = json::Value(opts.seed);
  f["population"] = json::Value(opts.population);
  f["generations"] = json::Value(opts.generations);
  f["max_point_time_ps"] = json::Value(opts.max_point_time_ps);
  return strformat("%016llx", static_cast<unsigned long long>(fnv1a64(f.dump())));
}

json::Value ExploreResult::to_json() const {
  json::Value v;
  if (interrupted) v["interrupted"] = json::Value(true);
  v["space"] = json::Value(space_name);
  v["sampler"] = json::Value(sampler);
  json::Array objs;
  for (const std::string& o : objectives) objs.push_back(json::Value(o));
  v["objectives"] = json::Value(std::move(objs));
  v["evaluated"] = json::Value(points.size());
  v["infeasible"] = json::Value(infeasible_count());
  v["failed"] = json::Value(failed_count());
  v["constraints_skipped"] = json::Value(constraints_skipped);
  json::Array pts;
  pts.reserve(points.size());
  for (const EvaluatedPoint& p : points) pts.push_back(p.to_json());
  v["points"] = json::Value(std::move(pts));
  json::Array front;
  for (const size_t i : frontier) front.push_back(json::Value(static_cast<int64_t>(i)));
  v["frontier"] = json::Value(std::move(front));
  return v;
}

std::string ExploreResult::frontier_table() const {
  std::vector<std::string> header = {"rank", "point"};
  for (const std::string& o : objectives) header.push_back(o);
  std::vector<std::vector<std::string>> rows;
  for (size_t r = 0; r < frontier.size(); ++r) {
    const EvaluatedPoint& p = points[frontier[r]];
    std::vector<std::string> row = {std::to_string(r + 1), p.label};
    for (const std::string& o : objectives) row.push_back(stats::fmt(p.metrics.objective(o)));
    rows.push_back(std::move(row));
  }
  return stats::markdown_table(header, rows);
}

std::string ExploreResult::csv() const {
  const std::vector<std::string> header = {"point",      "feasible",  "ok",
                                           "latency_ms", "energy_uj", "power_mw",
                                           "area_mm2",   "instructions", "pareto"};
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < points.size(); ++i) {
    const EvaluatedPoint& p = points[i];
    const bool on_front = std::find(frontier.begin(), frontier.end(), i) != frontier.end();
    if (p.feasible && p.ok) {
      rows.push_back({p.label, "1", "1", stats::fmt(p.metrics.latency_ms),
                      stats::fmt(p.metrics.energy_uj), stats::fmt(p.metrics.power_mw),
                      stats::fmt(p.metrics.area_mm2), std::to_string(p.metrics.instructions),
                      on_front ? "1" : "0"});
    } else {
      rows.push_back({p.label, p.feasible ? "1" : "0", "0", "", "", "", "", "", "0"});
    }
  }
  return stats::csv(header, rows);
}

std::string ExploreResult::chart() const {
  if (objectives.size() < 2) return "";
  const std::vector<const EvaluatedPoint*> usable = usable_points(points);
  if (usable.empty()) return "";
  std::vector<double> xs, ys;
  std::vector<bool> starred;
  for (const EvaluatedPoint* p : usable) {
    xs.push_back(p->metrics.objective(objectives[0]));
    ys.push_back(p->metrics.objective(objectives[1]));
    bool on_front = false;
    for (const size_t i : frontier) on_front = on_front || &points[i] == p;
    starred.push_back(on_front);
  }
  return stats::scatter_chart("design space (" + objectives[0] + " vs " + objectives[1] +
                                  ", * = Pareto frontier)",
                              objectives[0], objectives[1], xs, ys, starred);
}

std::string ExploreResult::summary() const {
  return strformat(
      "evaluated %zu points (%zu infeasible, %zu failed, %zu constraint-skipped) — "
      "Pareto frontier: %zu points",
      points.size(), infeasible_count(), failed_count(), constraints_skipped,
      frontier.size());
}

ExploreResult explore(const SearchSpace& space, const ExploreOptions& opts) {
  const auto start = std::chrono::steady_clock::now();

  ExploreResult res;
  res.space_name = space.name;
  res.objectives = space.objectives;

  SamplerOptions sopts;
  sopts.seed = opts.seed;
  sopts.population = opts.population;
  sopts.generations = opts.generations;
  std::unique_ptr<Sampler> sampler = make_sampler(opts.sampler, space, sopts);
  res.sampler = sampler->name();

  EvalOptions eopts;
  eopts.jobs = opts.jobs;
  eopts.cache_dir = opts.cache_dir;
  eopts.cache_max_bytes = opts.cache_max_bytes;
  eopts.max_point_time_ps = opts.max_point_time_ps;
  eopts.artifacts = opts.artifacts;
  eopts.metrics = opts.metrics;
  eopts.trace = opts.trace;
  eopts.scenario_timeout_ms = opts.scenario_timeout_ms;
  eopts.max_retries = opts.max_retries;
  eopts.retry_backoff_ms = opts.retry_backoff_ms;
  eopts.cancel = opts.cancel;
  Evaluator evaluator(space, eopts);
  if (opts.progress) evaluator.set_progress(opts.progress);
  res.jobs = evaluator.jobs();
  const artifact::StoreStats artifacts_before = evaluator.artifact_stats();

  // Crash-safety sidecar. Resume works by *replay*, not by skipping ahead:
  // the sampler re-proposes the exact same stream (same seed, same accepted
  // history), and points the journal already holds are served from it
  // instead of re-simulated — so the finished output is byte-identical to an
  // uninterrupted run, and the sampler's internal RNG state ends up exactly
  // where it would have.
  journal::Journal jrnl;
  std::map<std::string, EvaluatedPoint> journaled;  // point_key -> replayed result
  if (!opts.journal_path.empty()) {
    jrnl.open(opts.journal_path, exploration_fingerprint(space, opts),
              [&journaled](const json::Value& rec) {
                EvaluatedPoint ep = EvaluatedPoint::from_json(rec);
                std::string key = point_key(ep.point);
                journaled.emplace(std::move(key), std::move(ep));
              });
    res.journal_replayed = jrnl.replayed();
    res.journal_discarded = jrnl.discarded();
  }

  const auto cancelled = [&opts] {
    return opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed);
  };

  while (res.points.size() < opts.budget) {
    if (cancelled()) {
      res.interrupted = true;
      break;
    }
    const size_t remaining = opts.budget - res.points.size();
    const size_t ask = std::min(remaining, sampler->generation_size());
    std::vector<Point> proposed = sampler->propose(ask, res.points);
    if (proposed.empty()) break;  // space exhausted

    // Serve journaled points in place; evaluate only the rest. The batch is
    // reassembled in proposed order, so output order matches an
    // uninterrupted run no matter how the journal split it.
    std::vector<EvaluatedPoint> evaluated(proposed.size());
    std::vector<Point> need;
    std::vector<size_t> need_idx;
    for (size_t i = 0; i < proposed.size(); ++i) {
      const auto it = journaled.find(point_key(proposed[i]));
      if (it != journaled.end()) {
        evaluated[i] = it->second;
        evaluated[i].from_cache = true;  // served without a simulation
      } else {
        need_idx.push_back(i);
        need.push_back(proposed[i]);
      }
    }
    if (!need.empty()) {
      std::vector<EvaluatedPoint> fresh = evaluator.evaluate(need);
      for (size_t j = 0; j < fresh.size(); ++j) {
        // Freshly completed (not cancelled-and-skipped) points are the only
        // thing worth journaling — replayed ones are already on disk.
        if (jrnl.is_open() && !fresh[j].skipped) jrnl.append(fresh[j].to_json());
        evaluated[need_idx[j]] = std::move(fresh[j]);
      }
      if (jrnl.is_open()) jrnl.flush();  // one fsync per batch bounds the loss window
    }

    bool batch_interrupted = false;
    for (EvaluatedPoint& ep : evaluated) {
      if (ep.skipped) {
        batch_interrupted = true;  // cancelled mid-batch; drop unstarted points
        continue;
      }
      res.points.push_back(std::move(ep));
    }
    if (batch_interrupted || cancelled()) {
      res.interrupted = cancelled() || batch_interrupted;
      break;
    }
  }
  res.constraints_skipped = sampler->constraint_skips();
  if (opts.metrics != nullptr) {
    opts.metrics->counter("dse.points_evaluated").add(res.points.size());
    opts.metrics->counter("dse.constraints_skipped").add(res.constraints_skipped);
  }

  // Frontier over the feasible, finished points, reported as indices into
  // the full evaluation-order list and ranked by the first objective.
  std::vector<size_t> usable_idx;
  std::vector<std::vector<double>> objs;
  for (size_t i = 0; i < res.points.size(); ++i) {
    if (res.points[i].feasible && res.points[i].ok) {
      usable_idx.push_back(i);
      objs.push_back(res.points[i].objective_values(space.objectives));
    }
  }
  for (const size_t local : pareto_frontier(objs)) {
    res.frontier.push_back(usable_idx[local]);
  }
  std::stable_sort(res.frontier.begin(), res.frontier.end(), [&](size_t a, size_t b) {
    return res.points[a].metrics.objective(space.objectives[0]) <
           res.points[b].metrics.objective(space.objectives[0]);
  });

  res.cache = evaluator.cache_stats();
  res.artifacts = evaluator.artifact_stats() - artifacts_before;
  res.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          start)
                    .count();
  return res;
}

}  // namespace pim::dse
