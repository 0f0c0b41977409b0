#include "runtime/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/transient_error.h"
#include "compiler/mapping.h"
#include "nn/executor.h"

namespace pim::runtime {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

const char* policy_short(compiler::MappingPolicy p) {
  return p == compiler::MappingPolicy::UtilizationFirst ? "util" : "perf";
}

/// A scenario's workload resolved (or failed) up front by run()'s prefetch
/// pass — run_one never touches the filesystem or builds a graph itself.
struct ResolvedWorkload {
  artifact::GraphHandle handle;
  std::string error;     ///< non-empty: the resolve failed for good; fail the scenario
  unsigned retries = 0;  ///< re-attempts the resolve took
  double wall_ms = 0.0;  ///< host wall-clock of the resolve, retries included
};

/// Retry/watchdog knobs run() threads down to each attempt.
struct RunPolicy {
  uint64_t scenario_timeout_ms = 0;
  unsigned max_retries = 0;
  unsigned retry_backoff_ms = 10;
  telemetry::Registry* metrics = nullptr;
};

/// The one retry loop: run `body`, and run it again after each TransientError
/// it throws, up to policy.max_retries more times with exponential backoff.
/// Every re-attempt counts in `*retries` and `batch.retries`. Any other
/// exception, and the last TransientError, propagate.
template <typename Body>
void retry_transient(const RunPolicy& policy, const std::string& what, unsigned* retries,
                     Body&& body) {
  for (unsigned attempt = 0;; ++attempt) {
    try {
      body();
      return;
    } catch (const TransientError& e) {
      if (attempt >= policy.max_retries) throw;
      PIM_LOG(Warn) << "batch: retrying " << what << " after transient failure (attempt "
                    << (attempt + 2) << "): " << e.what();
      // 10 ms << 3 tops out well under a scenario's own runtime, so retries
      // never dominate the batch.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<uint64_t>(policy.retry_backoff_ms) << std::min(attempt, 6u)));
      ++*retries;
      if (policy.metrics != nullptr) policy.metrics->counter("batch.retries").add();
    }
  }
}

ScenarioResult run_one(const Scenario& s, const ResolvedWorkload& wl, artifact::Store& store,
                       telemetry::TraceSink* trace, const RunPolicy& policy) {
  ScenarioResult r;
  r.name = s.name.empty() ? s.derive_name() : s.name;
  r.workload = s.workload.label();
  r.policy = policy_short(s.copts.policy);
  r.batch = std::max(1u, s.copts.batch);
  r.retries = wl.retries;
  const Clock::time_point start = Clock::now();
  try {
    // The prefetch pass already spent the retries on a resolve error.
    if (!wl.error.empty()) throw std::runtime_error(wl.error);
    config::ArchConfig cfg = s.arch;
    cfg.sim.functional = s.functional;
    cfg.sim.max_wall_ms = policy.scenario_timeout_ms;
    retry_transient(policy, r.name, &r.retries, [&] {
      if (testing::failpoint_hit("scenario_transient")) {
        throw TransientError("failpoint scenario_transient");
      }
      compiler::CompileOptions copts = s.copts;
      copts.include_weights = s.functional;
      const std::shared_ptr<const CompiledNetwork> net = store.program(wl.handle, cfg, copts);
      nn::Tensor input;
      const nn::Tensor* in_ptr = nullptr;
      if (s.functional) {
        input = nn::random_input(wl.handle.built->input_shape, s.input_seed);
        in_ptr = &input;
      }
      r.report = simulate_compiled(*net, cfg, in_ptr, trace);
    });
    r.ok = r.report.finished;
    if (!r.ok) {
      if (r.report.wall_timed_out) {
        // Killed by the host-side watchdog: a property of this machine and
        // this moment, never of the architecture point — callers must not
        // cache it. Not transient either: rerunning would spend another
        // full timeout.
        r.fail_kind = FailKind::WallTimeout;
        r.error = strformat("wall-clock watchdog expired after %llu ms",
                            static_cast<unsigned long long>(policy.scenario_timeout_ms));
        if (policy.metrics != nullptr) policy.metrics->counter("batch.watchdog_kills").add();
      } else {
        r.timed_out = cfg.sim.max_time_ps > 0;
        r.fail_kind = FailKind::SimTimeout;
        r.error = "simulation did not finish (deadlock or time limit)";
      }
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    r.fail_kind = FailKind::Exception;
  }
  r.wall_ms = ms_since(start);
  return r;
}

}  // namespace

const char* fail_kind_name(FailKind k) {
  switch (k) {
    case FailKind::None: return "none";
    case FailKind::Exception: return "exception";
    case FailKind::SimTimeout: return "sim_timeout";
    case FailKind::WallTimeout: return "wall_timeout";
  }
  return "none";
}

std::string Scenario::derive_name() const {
  std::string n = strformat("%s/%s/b%u", workload.label().c_str(), policy_short(copts.policy),
                            std::max(1u, copts.batch));
  if (copts.replication > 1) n += strformat("/r%u", copts.replication);
  return n;
}

json::Value ScenarioResult::to_json() const {
  json::Value v;
  v["name"] = json::Value(name);
  v["workload"] = json::Value(workload);
  v["policy"] = json::Value(policy);
  v["batch"] = json::Value(batch);
  v["ok"] = json::Value(ok);
  v["wall_ms"] = json::Value(wall_ms);
  if (retries > 0) v["retries"] = json::Value(retries);
  if (!ok) {
    v["error"] = json::Value(error);
    v["timed_out"] = json::Value(timed_out);
    if (fail_kind != FailKind::None) v["fail_kind"] = json::Value(fail_kind_name(fail_kind));
    if (skipped) v["skipped"] = json::Value(true);
    return v;
  }
  v["latency_ms"] = json::Value(report.latency_ms());
  v["energy_uj"] = json::Value(report.energy_uj());
  v["avg_power_mw"] = json::Value(report.avg_power_mw());
  v["instructions"] = json::Value(report.stats.total_instructions());
  v["noc_bytes"] = json::Value(report.stats.total_bytes_on_noc());
  v["total_ps"] = json::Value(static_cast<uint64_t>(report.stats.total_ps));
  return v;
}

bool BatchResult::all_ok() const {
  for (const ScenarioResult& r : results) {
    if (!r.ok) return false;
  }
  return !results.empty();
}

double BatchResult::serial_ms() const {
  double sum = prefetch_ms;
  for (const ScenarioResult& r : results) sum += r.wall_ms;
  return sum;
}

double BatchResult::speedup() const { return wall_ms > 0.0 ? serial_ms() / wall_ms : 0.0; }

std::string BatchResult::markdown() const {
  std::string out =
      "| scenario | ok | latency (ms) | energy (uJ) | power (mW) | instructions | host wall "
      "(ms) |\n|---|---|---|---|---|---|---|\n";
  for (const ScenarioResult& r : results) {
    if (r.ok) {
      out += strformat("| %s | yes | %.4f | %.3f | %.1f | %llu | %.1f |\n", r.name.c_str(),
                       r.report.latency_ms(), r.report.energy_uj(), r.report.avg_power_mw(),
                       static_cast<unsigned long long>(r.report.stats.total_instructions()),
                       r.wall_ms);
    } else {
      // Exception text can contain table-breaking characters.
      std::string err = r.error;
      for (char& c : err) {
        if (c == '|' || c == '\n') c = c == '|' ? '/' : ' ';
      }
      out += strformat("| %s | **no** (%s) | - | - | - | - | %.1f |\n", r.name.c_str(),
                       err.c_str(), r.wall_ms);
    }
  }
  out += strformat(
      "\n%zu scenarios, %u jobs: %.1f ms wall, %.1f ms aggregate scenario time, "
      "speedup %.2fx vs serial\n",
      results.size(), jobs, wall_ms, serial_ms(), speedup());
  out += strformat("artifacts: %s\n", artifacts.summary().c_str());
  return out;
}

json::Value BatchResult::to_json() const {
  json::Value v;
  if (interrupted) v["interrupted"] = json::Value(true);
  v["jobs"] = json::Value(jobs);
  v["wall_ms"] = json::Value(wall_ms);
  v["serial_ms"] = json::Value(serial_ms());
  v["speedup"] = json::Value(speedup());
  v["all_ok"] = json::Value(all_ok());
  v["artifacts"] = artifacts.to_json();
  json::Array arr;
  arr.reserve(results.size());
  for (const ScenarioResult& r : results) arr.push_back(r.to_json());
  v["scenarios"] = json::Value(std::move(arr));
  return v;
}

BatchRunner::BatchRunner(unsigned jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) jobs_ = 1;
  }
}

BatchResult BatchRunner::run(const std::vector<Scenario>& scenarios) const {
  BatchResult batch;
  batch.results.resize(scenarios.size());
  batch.jobs = std::max(1u, std::min<unsigned>(
                                jobs_, static_cast<unsigned>(std::max<size_t>(1, scenarios.size()))));
  const Clock::time_point start = Clock::now();

  const std::shared_ptr<artifact::Store> store =
      artifacts_ ? artifacts_ : std::make_shared<artifact::Store>();
  const artifact::StoreStats before = store->stats();

  // Resolve every workload up front: one graph build (and for graph files,
  // one file read) per unique (workload, init_params) pair, before any worker
  // starts. Prebuilt scenarios (dse::Evaluator) pass straight through so the
  // graph their key was fingerprinted on is exactly what runs. The dedup map
  // is computed serially (a cheap equality scan); the unique resolves then
  // fan out over a bounded worker pool — artifact::Store is thread-safe and
  // single-flight, so a cold multi-workload sweep stops building graphs
  // one-at-a-time while staying one-build-per-unique-graph.
  std::vector<ResolvedWorkload> resolved(scenarios.size());
  constexpr size_t kNotDup = static_cast<size_t>(-1);
  std::vector<size_t> dup_of(scenarios.size(), kNotDup);
  std::vector<size_t> uniques;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    if (s.prebuilt != nullptr) {
      resolved[i].handle = {s.prebuilt_fingerprint, s.functional, s.prebuilt};
      continue;
    }
    for (size_t j : uniques) {
      if (scenarios[j].functional == s.functional && scenarios[j].workload == s.workload) {
        dup_of[i] = j;
        break;
      }
    }
    if (dup_of[i] == kNotDup) uniques.push_back(i);
  }

  RunPolicy policy;
  policy.scenario_timeout_ms = scenario_timeout_ms_;
  policy.max_retries = max_retries_;
  policy.retry_backoff_ms = retry_backoff_ms_;
  policy.metrics = metrics_;

  // Transient resolve failures (vanished graph file, unreadable mount) get
  // the same bounded retry as scenarios; a deterministic parse error fails
  // immediately. Either way the error is final, and run_one reports it per
  // scenario.
  auto resolve_one = [&](size_t i) {
    const Clock::time_point t0 = Clock::now();
    const Scenario& s = scenarios[i];
    const std::string what = "workload resolve for " + (s.name.empty() ? s.derive_name() : s.name);
    try {
      retry_transient(policy, what, &resolved[i].retries, [&] {
        if (testing::failpoint_hit("graph_resolve")) throw TransientError("failpoint graph_resolve");
        resolved[i].handle = store->graph(s.workload, /*init_params=*/s.functional);
      });
    } catch (const std::exception& e) {
      resolved[i].error = e.what();
    }
    resolved[i].wall_ms = ms_since(t0);
  };

  const unsigned prefetch_jobs =
      std::max(1u, std::min<unsigned>(batch.jobs, static_cast<unsigned>(uniques.size())));
  if (prefetch_jobs <= 1) {
    for (size_t i : uniques) resolve_one(i);
  } else {
    std::atomic<size_t> next_unique{0};
    std::vector<std::thread> prefetchers;
    prefetchers.reserve(prefetch_jobs);
    for (unsigned t = 0; t < prefetch_jobs; ++t) {
      prefetchers.emplace_back([&] {
        for (;;) {
          const size_t u = next_unique.fetch_add(1, std::memory_order_relaxed);
          if (u >= uniques.size()) return;
          resolve_one(uniques[u]);
        }
      });
    }
    for (std::thread& t : prefetchers) t.join();
  }
  for (size_t i : uniques) batch.prefetch_ms += resolved[i].wall_ms;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (dup_of[i] != kNotDup) resolved[i] = resolved[dup_of[i]];
  }

  // Host-side trace rows: one process ("host") with a thread per worker.
  // Simulated chip timelines land in their own per-scenario processes.
  uint32_t host_pid = 0;
  std::vector<uint32_t> worker_tids;
  if (trace_ != nullptr) {
    host_pid = trace_->pid("host");
    worker_tids.resize(batch.jobs);
    for (unsigned t = 0; t < batch.jobs; ++t) {
      worker_tids[t] = trace_->tid(host_pid, "worker" + std::to_string(t));
    }
  }

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex progress_mutex;
  auto worker = [&](unsigned wt) {
    for (;;) {
      // Cancellation drains, it does not abort: the scenario a worker is on
      // finishes normally (its result stays valid); only *unclaimed*
      // scenarios are skipped.
      if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= scenarios.size()) return;
      {
        const Scenario& s = scenarios[i];
        telemetry::HostSpan span(trace_, trace_ != nullptr ? worker_tids[wt] : 0,
                                 s.name.empty() ? s.derive_name() : s.name);
        // Distinct slots: no lock needed for the write itself.
        batch.results[i] = run_one(s, resolved[i], *store, trace_, policy);
      }
      const size_t completed = done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (metrics_ != nullptr) {
        metrics_->gauge("batch.queue_depth")
            .set(static_cast<double>(scenarios.size() - completed));
        metrics_->histogram("batch.scenario_wall_ms").record(batch.results[i].wall_ms);
        metrics_->counter(batch.results[i].ok ? "batch.scenarios_ok"
                                              : "batch.scenarios_failed")
            .add();
      }
      if (progress_) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        progress_(batch.results[i], completed, scenarios.size());
      }
    }
  };

  if (batch.jobs == 1) {
    worker(0);  // run inline — the serial reference path, no thread overhead
  } else {
    std::vector<std::thread> pool;
    pool.reserve(batch.jobs);
    for (unsigned t = 0; t < batch.jobs; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  // Slots no worker claimed (cancelled run) still get their identity filled
  // so summaries and by-name matching stay coherent; skipped marks them as
  // never-ran rather than failed.
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    batch.interrupted = true;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      ScenarioResult& r = batch.results[i];
      if (!r.name.empty() || r.wall_ms > 0.0) continue;  // ran (or is running's result)
      const Scenario& s = scenarios[i];
      r.name = s.name.empty() ? s.derive_name() : s.name;
      r.workload = s.workload.label();
      r.policy = policy_short(s.copts.policy);
      r.batch = std::max(1u, s.copts.batch);
      r.ok = false;
      r.skipped = true;
      r.error = "skipped: batch cancelled before this scenario started";
    }
  }

  batch.wall_ms = ms_since(start);
  batch.artifacts = store->stats() - before;
  if (metrics_ != nullptr) {
    metrics_->counter("batch.scenarios").add(scenarios.size());
    batch.artifacts.publish(*metrics_);
  }
  PIM_LOG(Info) << "batch: " << scenarios.size() << " scenarios on " << batch.jobs
                << " jobs in " << batch.wall_ms << " ms (speedup " << batch.speedup()
                << "x vs serial); artifacts: " << batch.artifacts.summary();
  return batch;
}

std::vector<Scenario> expand_sweep(const std::vector<workload::WorkloadSpec>& workloads,
                                   const std::vector<compiler::MappingPolicy>& policies,
                                   const std::vector<uint32_t>& batches,
                                   const config::ArchConfig& arch, bool functional) {
  std::vector<Scenario> out;
  out.reserve(workloads.size() * policies.size() * batches.size());
  for (const workload::WorkloadSpec& wl : workloads) {
    for (compiler::MappingPolicy policy : policies) {
      for (uint32_t batch : batches) {
        Scenario s;
        s.workload = wl;
        s.arch = arch;
        s.copts.policy = policy;
        s.copts.batch = batch;
        s.functional = functional;
        s.name = s.derive_name();
        out.push_back(std::move(s));
      }
    }
  }
  // Two graph files with the same basename derive the same label; suffix
  // later collisions so every scenario name stays unique (the contract the
  // summaries and by-name result matching rely on).
  std::map<std::string, int> seen;
  for (Scenario& s : out) {
    const int n = ++seen[s.name];
    if (n > 1) s.name += strformat("#%d", n);
  }
  return out;
}

compiler::MappingPolicy policy_from_name(const std::string& name) {
  if (name == "util") return compiler::MappingPolicy::UtilizationFirst;
  if (name == "perf") return compiler::MappingPolicy::PerformanceFirst;
  throw std::invalid_argument("unknown policy \"" + name + "\" (expected perf|util)");
}

std::vector<Scenario> sweep_from_json(const json::Value& spec, const std::string& base_dir) {
  const int32_t input_hw = static_cast<int32_t>(spec.get_or("input_hw", 32));

  std::vector<workload::WorkloadSpec> workloads;
  if (spec.contains("models")) {
    for (const json::Value& m : spec.at("models").as_array()) {
      workloads.push_back(workload::parse_workload_token(m.as_string(), input_hw, base_dir));
    }
  }
  if (spec.contains("workloads")) {
    workload::WorkloadSpec defaults;
    defaults.input_hw = input_hw;
    for (const json::Value& w : spec.at("workloads").as_array()) {
      workloads.push_back(workload::WorkloadSpec::from_json(w, base_dir, defaults));
    }
  }
  if (workloads.empty()) {
    throw std::invalid_argument("sweep spec needs \"models\" and/or \"workloads\"");
  }

  std::vector<compiler::MappingPolicy> policies;
  for (const json::Value& p : spec.at("policies").as_array()) {
    policies.push_back(policy_from_name(p.as_string()));
  }
  std::vector<uint32_t> batches;
  for (const json::Value& b : spec.at("batches").as_array()) {
    if (b.as_int() < 1) throw std::invalid_argument("sweep batches entries must be >= 1");
    batches.push_back(static_cast<uint32_t>(b.as_int()));
  }
  config::ArchConfig arch;
  if (spec.contains("config")) {
    arch = config::ArchConfig::load(resolve_path(spec.at("config").as_string(), base_dir));
  } else {
    arch = config::ArchConfig::preset(spec.get_or("arch", "tiny"));
  }
  std::vector<Scenario> out = expand_sweep(workloads, policies, batches, arch,
                                           spec.get_or("functional", false));
  const int64_t repl = spec.get_or("replication", int64_t{1});
  if (repl < 1) throw std::invalid_argument("sweep replication must be >= 1");
  if (repl > 1) {
    for (Scenario& s : out) {
      s.copts.replication = static_cast<uint32_t>(repl);
      s.name = s.derive_name();
    }
  }
  return out;
}

std::vector<std::string> compare_results(const BatchResult& a, const BatchResult& b) {
  std::vector<std::string> diffs;
  if (a.results.size() != b.results.size()) {
    diffs.push_back(strformat("scenario count differs: %zu vs %zu", a.results.size(),
                              b.results.size()));
    return diffs;
  }
  for (size_t i = 0; i < a.results.size(); ++i) {
    const ScenarioResult& x = a.results[i];
    const ScenarioResult& y = b.results[i];
    const std::string& who = x.name;
    if (x.name != y.name) {
      diffs.push_back(strformat("[%zu] name differs: %s vs %s", i, x.name.c_str(),
                                y.name.c_str()));
      continue;
    }
    if (x.ok != y.ok) {
      diffs.push_back(strformat("%s: ok differs: %d vs %d", who.c_str(), x.ok, y.ok));
      continue;
    }
    if (!x.ok) continue;  // both failed the same way; nothing numeric to compare
    if (x.report.stats.total_ps != y.report.stats.total_ps) {
      diffs.push_back(strformat("%s: latency differs: %llu ps vs %llu ps", who.c_str(),
                                static_cast<unsigned long long>(x.report.stats.total_ps),
                                static_cast<unsigned long long>(y.report.stats.total_ps)));
    }
    for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
      const auto comp = static_cast<arch::Component>(c);
      const double ex = x.report.stats.energy.get(comp);
      const double ey = y.report.stats.energy.get(comp);
      // Bit-exact, not epsilon: identical instruction streams must produce
      // identical accumulation order.
      if (std::memcmp(&ex, &ey, sizeof(double)) != 0) {
        diffs.push_back(strformat("%s: %s energy differs: %.17g pJ vs %.17g pJ", who.c_str(),
                                  arch::component_name(comp), ex, ey));
      }
    }
    if (x.report.stats.total_instructions() != y.report.stats.total_instructions()) {
      diffs.push_back(strformat(
          "%s: instruction count differs: %llu vs %llu", who.c_str(),
          static_cast<unsigned long long>(x.report.stats.total_instructions()),
          static_cast<unsigned long long>(y.report.stats.total_instructions())));
    }
    if (x.report.output != y.report.output) {
      diffs.push_back(strformat("%s: functional output differs", who.c_str()));
    }
  }
  return diffs;
}

}  // namespace pim::runtime
