// pimbench — the workload driver behind perfbench/run.py.
//
// One process runs one workload against pimlib's public API:
//
//   pimbench --workload W --seed N --seconds S --trace 0|1 --out-dir DIR [--setup-only]
//   pimbench --self-test --out-dir DIR
//
// Protocol with run.py: after the workload's set-up the process prints
// "READY <steady-clock ns>" on its own stdout line (run.py times spawn ->
// READY as setup_s; --setup-only exits right there). The last stdout line
// is one JSON object of raw measurements (per-evaluation samples, correctness checks, counts);
// run.py turns them into metrics. With --trace 1 the timed phase is split:
// the first half runs untraced (for trace.overhead), the second half
// re-drives the same operations through each layer's public functions with
// every call wrapped in a span; the spans are written to DIR at exit.
//
// Thread budget: zoo_* run on the calling thread, dse_budgeted on 2
// BatchRunner workers, serve_warm on 2 closed-loop client threads against a
// 1-job server. Nothing sizes itself from the host's core count.
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip.h"
#include "artifact/artifact.h"
#include "common/logging.h"
#include "common/strings.h"
#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "dse/explorer.h"
#include "dse/search_space.h"
#include "json/json.h"
#include "nn/executor.h"
#include "runtime/batch_runner.h"
#include "runtime/simulator.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/workload.h"

using namespace pim;

namespace {

using Clock = std::chrono::steady_clock;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double ms_between(int64_t t0, int64_t t1) { return static_cast<double>(t1 - t0) * 1e-6; }

// Deterministic Fisher-Yates (std::shuffle's draw sequence is not specified
// by the standard, so a seed would not pin the order across libraries).
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
}

std::string hex64(uint64_t v) { return strformat("%016" PRIx64, v); }

// Digest of what a simulation computed: latency (ps), per-component energy,
// instruction count and the functional output bytes. Host timings excluded.
uint64_t report_digest(const runtime::Report& r) {
  std::string buf = strformat("%llu|%llu|", static_cast<unsigned long long>(r.stats.total_ps),
                              static_cast<unsigned long long>(r.stats.total_instructions()));
  for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
    const double pj = r.stats.energy.get(static_cast<arch::Component>(c));
    uint64_t bits = 0;
    std::memcpy(&bits, &pj, sizeof bits);
    buf += hex64(bits);
  }
  buf.append(reinterpret_cast<const char*>(r.output.data()), r.output.size());
  return fnv1a64(buf);
}

uint64_t metrics_digest(const dse::EvaluatedPoint& ep) {
  const dse::Metrics& m = ep.metrics;
  std::string buf = strformat("%d|%d|", ep.ok ? 1 : 0, ep.feasible ? 1 : 0);
  for (double d : {m.latency_ms, m.energy_uj, m.power_mw, m.area_mm2}) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    buf += hex64(bits);
  }
  buf += strformat("|%llu|%llu|%llu", static_cast<unsigned long long>(m.instructions),
                   static_cast<unsigned long long>(m.noc_bytes),
                   static_cast<unsigned long long>(m.total_ps));
  return fnv1a64(buf);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ----------------------------------------------------------------- spans

/// In-memory span recorder of the traced run. A span is one call into a
/// layer's public function. `kind` says how run.py accounts it:
///   root  - one evaluation (request, point round); its self time is glue
///   op    - a step of the evaluation's decomposition (counted in self time)
///   probe - an extra call re-driven only to time work another op also does
///           (plan_mapping and verify inside compile/Chip); never counted
///   wall  - a call whose inside is decomposed by other spans (explore,
///           BatchRunner::run, a served round trip); never counted
class Tracer {
 public:
  struct Span {
    std::string name;
    const char* kind;
    int64_t eval;
    int64_t parent;
    int64_t t0;
    int64_t t1;
    std::vector<std::pair<std::string, double>> attrs;
  };

  int64_t begin(std::string name, const char* kind, int64_t eval, int64_t parent) {
    const int64_t t0 = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), kind, eval, parent, t0, 0, {}});
    return static_cast<int64_t>(spans_.size() - 1);
  }
  void end(int64_t id, std::vector<std::pair<std::string, double>> attrs = {}) {
    const int64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].t1 = t1;
    spans_[static_cast<size_t>(id)].attrs = std::move(attrs);
  }

  /// Time `fn` as one span; returns its result.
  template <typename Fn>
  auto span(const std::string& name, const char* kind, int64_t eval, int64_t parent, Fn&& fn) {
    const int64_t id = begin(name, kind, eval, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(id);
    } else {
      auto out = fn();
      end(id);
      return out;
    }
  }

  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    json::Array out;
    out.reserve(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value v;
      v["id"] = json::Value(static_cast<uint64_t>(i));
      v["name"] = json::Value(s.name);
      v["kind"] = json::Value(s.kind);
      v["eval"] = json::Value(s.eval);
      v["parent"] = json::Value(s.parent);
      v["t0"] = json::Value(s.t0);
      v["t1"] = json::Value(s.t1);
      json::Value attrs = json::Value(json::Object{});
      for (const auto& [k, x] : s.attrs) attrs[k] = json::Value(x);
      v["attrs"] = std::move(attrs);
      out.push_back(std::move(v));
    }
    std::ofstream f(path, std::ios::trunc);
    f << json::Value(std::move(out)).dump() << "\n";
    if (!f) throw std::runtime_error("cannot write span file " + path);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- results

struct Sample {
  size_t cls;   ///< cost class: network (zoo), point (dse), 0 (serve)
  double ms;    ///< host latency of one evaluation
  bool ok;
};

struct Phase {
  size_t attempted = 0;
  size_t failed = 0;
  double seconds = 0.0;  ///< host wall of the phase
};

struct Result {
  std::vector<std::string> classes;
  std::vector<size_t> cold_classes;  ///< classes that compile on every evaluation
  std::vector<Sample> samples;  ///< untraced samples (traced runs: first half)
  Phase untraced;
  Phase traced;                 ///< only with --trace 1
  std::map<std::string, std::string> digests;  ///< class -> digest of its first evaluation
  std::vector<std::pair<std::string, std::string>> check_failures;
  size_t checks = 0;
  std::map<std::string, double> counters;

  void check(bool ok, const std::string& name, const std::string& detail) {
    ++checks;
    if (!ok) check_failures.emplace_back(name, detail);
  }
  /// Record a digest; every later evaluation of the class must repeat it.
  void digest(const std::string& cls, uint64_t d) {
    const std::string h = hex64(d);
    auto [it, fresh] = digests.emplace(cls, h);
    if (!fresh) check(it->second == h, "digest_repeats", cls + ": " + it->second + " vs " + h);
  }

  json::Value to_json(const std::string& workload, bool traced_run, double rss_mb) const {
    const auto phase = [](const Phase& p) {
      json::Value v;
      v["attempted"] = json::Value(static_cast<uint64_t>(p.attempted));
      v["failed"] = json::Value(static_cast<uint64_t>(p.failed));
      v["seconds"] = json::Value(p.seconds);
      return v;
    };
    json::Value v;
    v["workload"] = json::Value(workload);
    json::Array cls, cold, smp, failures;
    for (const std::string& c : classes) cls.emplace_back(c);
    for (size_t c : cold_classes) cold.emplace_back(static_cast<uint64_t>(c));
    for (const Sample& x : samples) {
      smp.emplace_back(json::Array{json::Value(static_cast<uint64_t>(x.cls)), json::Value(x.ms),
                                   json::Value(x.ok ? 1 : 0)});
    }
    for (const auto& [name, detail] : check_failures) {
      if (failures.size() == 20) break;
      json::Value f;
      f["name"] = json::Value(name);
      f["detail"] = json::Value(detail);
      failures.push_back(std::move(f));
    }
    v["classes"] = json::Value(std::move(cls));
    v["cold_classes"] = json::Value(std::move(cold));
    v["samples"] = json::Value(std::move(smp));
    v["untraced"] = phase(untraced);
    if (traced_run) v["traced"] = phase(traced);
    json::Value dig = json::Value(json::Object{});
    for (const auto& [k, d] : digests) dig[k] = json::Value(d);
    v["digests"] = std::move(dig);
    v["checks"] = json::Value(static_cast<uint64_t>(checks));
    v["check_failures"] = json::Value(std::move(failures));
    v["check_failure_count"] = json::Value(static_cast<uint64_t>(check_failures.size()));
    json::Value ctr = json::Value(json::Object{});
    for (const auto& [k, x] : counters) ctr[k] = json::Value(x);
    v["counters"] = std::move(ctr);
    v["peak_rss_mb"] = json::Value(rss_mb);
    return v;
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool self_test = false;
  std::string out_dir = ".";
  std::vector<int> cpus;  ///< pin the process here (empty = inherit)
};

/// Announce the end of set-up with the steady-clock time it ended at, so
/// run.py can time spawn -> READY on the same clock (CLOCK_MONOTONIC)
/// without the delay of reading the line from a pipe.
void ready() {
  std::printf("READY %lld\n", static_cast<long long>(now_ns()));
  std::fflush(stdout);
}

/// Run `step` until `seconds` of host time have passed (whole rounds: a
/// round that started before the deadline finishes). Returns the wall time.
double run_for(double seconds, const std::function<void()>& round) {
  const int64_t t0 = now_ns();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  do {
    round();
  } while (now_ns() < deadline);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// Same steps simulate_compiled runs, one public call at a time, each in a
// span. The returned report must digest identically to the untraced path.
runtime::Report traced_simulate(Tracer& tr, int64_t eval, int64_t root,
                                const runtime::CompiledNetwork& net,
                                const config::ArchConfig& cfg, const nn::Tensor* input) {
  tr.span("isa.verify", "probe", eval, root, [&] { return net.program.verify(cfg).size(); });
  const int64_t cid = tr.begin("arch.chip_construct", "op", eval, root);
  auto owned = std::make_unique<arch::Chip>(cfg, net.program);
  tr.end(cid);
  arch::Chip& chip = *owned;
  if (input != nullptr) {
    tr.span("arch.write_global", "op", eval, root, [&] {
      chip.write_global(net.copts.input_gaddr,
                        std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(input->data.data()),
                            input->data.size()));
    });
  }
  runtime::Report report;
  report.network = net.program.network_name;
  report.policy = net.program.mapping_policy;
  const int64_t rid = tr.begin("arch.chip_run", "op", eval, root);
  report.stats = chip.run();
  tr.end(rid, {{"kernel_events", static_cast<double>(report.stats.kernel_events)},
               {"instructions", static_cast<double>(report.stats.total_instructions())}});
  report.finished = chip.finished();
  report.wall_timed_out = chip.wall_expired();
  if (net.output_elems_per_image > 0) {  // read back even timing-only, as simulate_compiled does
    tr.span("arch.read_global", "op", eval, root, [&] {
      const std::vector<uint8_t> raw =
          chip.read_global(net.copts.output_gaddr, net.output_elems_per_image);
      report.output.assign(raw.begin(), raw.end());
    });
  }
  report.compile = net.compile;
  // Freeing a functional chip's memories is a cost simulate_compiled pays too.
  tr.span("arch.chip_destroy", "op", eval, root, [&] { owned.reset(); });
  const int64_t jid = tr.begin("stats.report_json", "op", eval, root);
  const std::string doc = report.to_json().dump();
  tr.end(jid, {{"bytes", static_cast<double>(doc.size())}});
  return report;
}

// ----------------------------------------------------------------- zoo

struct ZooSpec {
  std::vector<std::string> networks;
  int32_t input_hw;
  bool functional;
};

int run_zoo(const Args& a, const ZooSpec& z, Tracer* tr) {
  // Set-up: process-level initialisation only, what a cold pimsim pays.
  const config::ArchConfig base = config::ArchConfig::preset("paper");
  std::vector<workload::WorkloadSpec> specs;
  for (const std::string& n : z.networks) {
    specs.push_back(workload::parse_workload_token(n, z.input_hw));
  }
  std::mt19937_64 rng(a.seed);
  ready();
  if (a.setup_only) return 0;

  Result res;
  res.classes = z.networks;
  // Functional references (set-up, untimed): the reference executor's output
  // on the same deterministic input the runtime feeds (input_seed 7).
  std::vector<nn::Tensor> inputs(specs.size()), refs(specs.size());
  if (z.functional) {
    for (size_t i = 0; i < specs.size(); ++i) {
      const workload::BuiltWorkload b = workload::build(specs[i], /*init_params=*/true);
      inputs[i] = nn::random_input(b.input_shape, 7);
      refs[i] = nn::execute_reference_output(b.graph, inputs[i]);
    }
  }
  config::ArchConfig cfg = base;
  cfg.sim.functional = z.functional;
  compiler::CompileOptions copts;
  copts.include_weights = z.functional;

  std::vector<size_t> order(specs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const auto judge = [&](size_t i, const runtime::Report& r, Phase& ph) {
    ++ph.attempted;
    bool ok = r.finished;
    res.check(r.finished, "halted", z.networks[i]);
    if (z.functional) {
      const bool same = r.output == refs[i].data;
      res.check(same, "output_matches_reference", z.networks[i]);
      ok = ok && same;
    }
    res.digest(z.networks[i], report_digest(r));
    if (!ok) ++ph.failed;
    return ok;
  };

  // Untraced: the cold pimsim path, fresh artifact store per evaluation.
  artifact::StoreStats store_totals;
  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  res.untraced.seconds = run_for(untraced_s, [&] {
    seeded_shuffle(order, rng);
    for (size_t i : order) {
      const int64_t t0 = now_ns();
      artifact::Store store;
      const artifact::GraphHandle h = store.graph(specs[i], z.functional);
      const auto net = store.program(h, cfg, copts);
      const runtime::Report r =
          runtime::simulate_compiled(*net, cfg, z.functional ? &inputs[i] : nullptr);
      const std::string doc = r.to_json().dump();
      const int64_t t1 = now_ns();
      const artifact::StoreStats s = store.stats();
      store_totals.program_hits += s.program_hits;
      store_totals.program_misses += s.program_misses;
      res.samples.push_back(Sample{i, ms_between(t0, t1), judge(i, r, res.untraced)});
    }
  });
  res.counters["artifact.program_hits"] = static_cast<double>(store_totals.program_hits);
  res.counters["artifact.program_misses"] = static_cast<double>(store_totals.program_misses);

  if (tr != nullptr) {
    int64_t eval = 0;
    res.traced.seconds = run_for(a.seconds / 2, [&] {
      seeded_shuffle(order, rng);
      for (size_t i : order) {
        const int64_t root = tr->begin("bench.eval", "root", eval, -1);
        const workload::BuiltWorkload b = tr->span("workload.build", "op", eval, root, [&] {
          return workload::build(specs[i], z.functional);
        });
        tr->span("compiler.mapping", "probe", eval, root, [&] {
          return compiler::plan_mapping(b.graph, cfg, copts.policy, copts.replication);
        });
        const int64_t cid = tr->begin("compiler.compile", "op", eval, root);
        const runtime::CompiledNetwork net = runtime::compile_network(b.graph, cfg, copts);
        tr->end(cid, {{"instructions", static_cast<double>(net.compile.total_instructions)}});
        const runtime::Report r =
            traced_simulate(*tr, eval, root, net, cfg, z.functional ? &inputs[i] : nullptr);
        tr->end(root);
        judge(i, r, res.traced);
        ++eval;
      }
    });
  }
  std::printf("%s\n", res.to_json(a.workload, a.trace, peak_rss_mb()).dump().c_str());
  return 0;
}

// ----------------------------------------------------------------- dse

constexpr uint64_t kPointBudgetPs = 20'000'000;  // 20 us simulated per point
constexpr unsigned kDseJobs = 2;

int run_dse(const Args& a, Tracer* tr) {
  dse::SearchSpace space = dse::SearchSpace::load("configs/dse_paper.json");
  // The seed sets the point order: the grid walks each knob's values in
  // list order (last knob fastest), so permuting the lists and the knobs
  // permutes the points. The knobs that pick the compile identity (core
  // count via the mesh, crossbars per core) stay innermost, so every
  // identity's first point comes early and no point waits on a compile
  // still in flight on the other worker: two cost classes (the 9 points
  // that compile, the 117 served from the store) instead of a third,
  // order-dependent class of waiters.
  std::mt19937_64 rng(a.seed);
  for (dse::Knob& k : space.knobs) seeded_shuffle(k.values, rng);
  seeded_shuffle(space.knobs, rng);
  std::stable_partition(space.knobs.begin(), space.knobs.end(), [](const dse::Knob& k) {
    return k.name != "mesh" && k.name != "xbars_per_core";
  });
  dse::ExploreOptions opts;
  opts.sampler = "grid";
  opts.budget = 1u << 20;  // the whole grid
  opts.jobs = kDseJobs;
  opts.max_point_time_ps = kPointBudgetPs;
  ready();
  if (a.setup_only) return 0;

  // Reference (set-up, untimed): every point through BatchRunner, whose
  // structured FailKind says whether it halted or stopped on its budget.
  const dse::ExploreResult first = [&] {
    dse::ExploreOptions o = opts;
    o.artifacts = std::make_shared<artifact::Store>();
    return dse::explore(space, o);
  }();
  Result res;
  std::map<std::string, size_t> cls_of;
  std::vector<runtime::Scenario> scenarios;
  std::set<uint64_t> identities;
  for (const dse::EvaluatedPoint& ep : first.points) {
    res.digest("explore/" + ep.label, metrics_digest(ep));
    cls_of[ep.label] = res.classes.size();
    dse::MaterializedPoint m = dse::materialize(space, ep.point);
    res.check(m.feasible, "point_feasible", ep.label + ": " + m.error);
    dse::apply_time_budget(&m.scenario, kPointBudgetPs);
    // The first point of each compile identity (in evaluation order) pays
    // the compile in every exploration, since each gets a fresh store: a
    // cost class of its own.
    if (identities.insert(artifact::arch_key(m.scenario.arch)).second) {
      res.cold_classes.push_back(res.classes.size());
    }
    res.classes.push_back(ep.label);
    scenarios.push_back(std::move(m.scenario));
  }
  {
    runtime::BatchRunner ref_runner(1);
    ref_runner.set_artifacts(std::make_shared<artifact::Store>());
    const runtime::BatchResult ref = ref_runner.run(scenarios);
    size_t budget_stops = 0;
    for (const runtime::ScenarioResult& r : ref.results) {
      const bool expected = r.ok || r.fail_kind == runtime::FailKind::SimTimeout;
      res.check(expected, "point_halts_or_stops_on_budget", r.name + ": " + r.error);
      budget_stops += r.fail_kind == runtime::FailKind::SimTimeout;
    }
    res.counters["dse.points"] = static_cast<double>(scenarios.size());
    res.counters["dse.budget_stops"] = static_cast<double>(budget_stops);
    // What each point simulated up to its halt or budget; the traced run's
    // one-point-at-a-time decomposition must reproduce it.
    for (size_t i = 0; i < ref.results.size(); ++i) {
      res.digest(first.points[i].label, report_digest(ref.results[i].report));
    }
  }

  const auto judge_round = [&](const dse::ExploreResult& er, Phase& ph) {
    res.check(er.points.size() == first.points.size(), "explore_point_count",
              strformat("%zu vs %zu", er.points.size(), first.points.size()));
    for (const dse::EvaluatedPoint& ep : er.points) {
      ++ph.attempted;
      const size_t before = res.check_failures.size();
      res.digest("explore/" + ep.label, metrics_digest(ep));
      if (res.check_failures.size() != before) ++ph.failed;
    }
  };

  // Per-point latency: the BatchRunner calls the progress hook on the worker
  // thread that ran the point, right after it finished, so the gap between
  // two completions on one thread is that worker's time for the later point.
  // A worker's first point is timed from the start of the explore call.
  const auto explore_round = [&](bool record) {
    std::mutex mu;
    std::map<std::thread::id, int64_t> last;
    std::vector<Sample> round;
    dse::ExploreOptions o = opts;
    o.artifacts = std::make_shared<artifact::Store>();  // private store per exploration
    const int64_t start = now_ns();
    o.progress = [&](const dse::EvaluatedPoint& ep, size_t, size_t) {
      const int64_t t = now_ns();
      std::lock_guard<std::mutex> lock(mu);
      auto [it, fresh] = last.emplace(std::this_thread::get_id(), start);
      round.push_back(Sample{cls_of.at(ep.label), ms_between(it->second, t), true});
      it->second = t;
    };
    dse::ExploreResult er = dse::explore(space, o);
    if (record) res.samples.insert(res.samples.end(), round.begin(), round.end());
    res.counters["artifact.program_hits"] += static_cast<double>(er.artifacts.program_hits);
    res.counters["artifact.program_misses"] += static_cast<double>(er.artifacts.program_misses);
    return er;
  };

  // One untimed exploration first. The first exploration after the
  // references ran its early store-served points at about twice their
  // steady cost: a class of its own, which put the dse p95 rank on a class
  // boundary.
  Phase warmup;
  judge_round(explore_round(false), warmup);

  res.untraced.seconds = run_for(a.trace ? a.seconds / 2 : a.seconds, [&] {
    judge_round(explore_round(true), res.untraced);
  });

  if (tr != nullptr) {
    int64_t eval = 0;
    res.traced.seconds = run_for(a.seconds / 2, [&] {
      const int64_t root = tr->begin("bench.round", "root", eval, -1);
      const int64_t eid = tr->begin("dse.explore", "wall", eval, root);
      const dse::ExploreResult er = explore_round(false);
      tr->end(eid, {{"points", static_cast<double>(er.points.size())}});
      judge_round(er, res.traced);
      // The same points through the runtime layer alone: explore minus this
      // is the DSE layer's own overhead; serial/wall is worker balance.
      runtime::BatchRunner runner(kDseJobs);
      runner.set_artifacts(std::make_shared<artifact::Store>());
      const int64_t bid = tr->begin("runtime.batch", "wall", eval, root);
      const runtime::BatchResult br = runner.run(scenarios);
      tr->end(bid, {{"serial_ms", br.serial_ms()},
                    {"wall_ms", br.wall_ms},
                    {"jobs", static_cast<double>(br.jobs)}});
      // One point at a time through artifact -> arch -> stats.
      artifact::Store store;
      const artifact::GraphHandle h = tr->span("workload.build", "op", eval, root, [&] {
        return store.graph(space.workload, false);
      });
      for (size_t i = 0; i < scenarios.size(); ++i) {
        const runtime::Scenario& s = scenarios[i];
        res.check(s.workload == space.workload, "point_workload", res.classes[i]);
        config::ArchConfig cfg = s.arch;
        cfg.sim.functional = false;
        compiler::CompileOptions copts = s.copts;
        copts.include_weights = false;
        const size_t hits = store.stats().program_hits;
        const int64_t pid = tr->begin("artifact.program", "op", eval, root);
        const auto net = store.program(h, cfg, copts);
        const bool hit = store.stats().program_hits > hits;
        tr->end(pid, {{"hit", hit ? 1.0 : 0.0},
                      {"instructions", static_cast<double>(net->compile.total_instructions)}});
        res.digest(res.classes[i], report_digest(traced_simulate(*tr, eval, root, *net, cfg, nullptr)));
      }
      tr->end(root);
      ++eval;
    });
  }
  std::printf("%s\n", res.to_json(a.workload, a.trace, peak_rss_mb()).dump().c_str());
  return 0;
}

// ----------------------------------------------------------------- serve

/// One closed-loop client: connect to `path`, then repeatedly send the line
/// `make(i)` and wait for its reply before sending the next. `on_reply`
/// gets the request index, the reply line and the send -> reply latency.
/// Stops at `deadline_ns` (a request in flight completes first) or after
/// `max_requests` replies.
void closed_loop_client(const std::string& path, int64_t deadline_ns, size_t max_requests,
                        const std::function<std::string(size_t)>& make,
                        const std::function<void(size_t, const std::string&, double)>& on_reply) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  std::string buf;
  char chunk[65536];
  for (size_t i = 0; i < max_requests && now_ns() < deadline_ns; ++i) {
    const std::string line = make(i) + "\n";
    const int64_t t0 = now_ns();
    for (size_t off = 0; off < line.size();) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        ::close(fd);
        throw std::runtime_error("send failed");
      }
      off += static_cast<size_t>(n);
    }
    size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ::close(fd);
        throw std::runtime_error("connection closed before the reply");
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    const double ms = ms_between(t0, now_ns());
    const std::string reply = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    on_reply(i, reply, ms);
  }
  ::close(fd);
}

constexpr unsigned kClients = 2;

int run_serve(const Args& a, Tracer* tr) {
  serve::ServerOptions so;
  so.unix_path = a.out_dir + strformat("/serve-%d.sock", static_cast<int>(::getpid()));
  so.jobs = 1;
  so.max_inflight = 2 * kClients;  // socket clients + the traced run's direct calls
  serve::Server server(so);
  server.listen();
  std::thread serving([&server] { server.serve(); });
  struct Stop {
    serve::Server& s;
    std::thread& t;
    ~Stop() {
      s.request_stop();
      t.join();
    }
  } stop{server, serving};

  const std::string shape = "\"workload\":\"tiny_cnn\",\"arch\":\"tiny\",\"input_hw\":8";
  const auto request = [&shape](uint64_t id) {
    return strformat("{\"kind\":\"evaluate\",\"id\":%llu,", static_cast<unsigned long long>(id)) +
           shape + "}";
  };
  std::string warm_reply;
  closed_loop_client(so.unix_path, INT64_MAX, 1, [&](size_t) { return request(0); },
                     [&](size_t, const std::string& r, double) { warm_reply = r; });
  ready();
  if (a.setup_only) return 0;

  Result res;
  res.classes = {"tiny_cnn/tiny/8"};
  // Reference (set-up): the same scenario through runtime::simulate_compiled.
  const serve::Request warm_req = serve::parse_request(request(0));
  const runtime::Scenario scenario = serve::scenario_from_request(warm_req.body);
  config::ArchConfig cfg = scenario.arch;
  cfg.sim.functional = false;
  compiler::CompileOptions copts = scenario.copts;
  copts.include_weights = false;
  const workload::BuiltWorkload built = workload::build(scenario.workload, false);
  const runtime::CompiledNetwork ref_net = runtime::compile_network(built.graph, cfg, copts);
  const runtime::Report ref = runtime::simulate_compiled(ref_net, cfg);
  const std::string ref_doc = ref.to_json().dump();
  res.check(ref.finished, "reference_halts", "tiny_cnn");
  res.digest(res.classes[0], report_digest(ref));
  {
    const json::Value w = json::parse(warm_reply);
    res.check(w.get_or("ok", false) && w.at("report").dump() == ref_doc,
              "served_report_equals_simulate_compiled", warm_reply.substr(0, 200));
  }

  // Request ids come from the seed; each client owns a disjoint id range.
  std::mt19937_64 rng(a.seed);
  const uint64_t id_base = rng() >> 16;
  std::mutex mu;
  size_t error_replies = 0;
  const auto res_check = [&](bool ok, const std::string& name, const std::string& detail) {
    std::lock_guard<std::mutex> lock(mu);
    res.check(ok, name, detail);
  };
  const auto judge = [&](uint64_t id, const std::string& reply, Phase& ph) {
    bool served = false, ok = false;
    try {
      const json::Value v = json::parse(reply);
      served = v.get_or("ok", false);
      ok = served && v.at("id").as_int() == static_cast<int64_t>(id) &&
           v.at("report").dump() == ref_doc;
    } catch (const std::exception&) {
    }
    res_check(ok, "served_report_equals_simulate_compiled", reply.substr(0, 200));
    std::lock_guard<std::mutex> lock(mu);
    ++ph.attempted;
    ph.failed += !ok;
    error_replies += !served;
    return ok;
  };

  const auto run_clients = [&](double seconds, Phase& ph, bool traced) {
    const int64_t start = now_ns();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    std::vector<std::string> errors(kClients);
    std::atomic<int64_t> next_eval{0};
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          const uint64_t base = id_base + (static_cast<uint64_t>(c) << 32);
          artifact::Store store;  // this client's warm store for the decomposition
          const artifact::GraphHandle h = store.graph(scenario.workload, false);
          store.program(h, cfg, copts);
          int64_t root = -1, sent = -1, eval = -1;
          closed_loop_client(
              so.unix_path, deadline, SIZE_MAX,
              [&](size_t i) {
                if (traced) {
                  eval = next_eval.fetch_add(1);
                  root = tr->begin("bench.request", "root", eval, -1);
                  sent = tr->begin("serve.request", "wall", eval, root);
                }
                return request(base + i);
              },
              [&](size_t i, const std::string& reply, double ms) {
                if (!traced) {
                  const bool ok = judge(base + i, reply, ph);
                  std::lock_guard<std::mutex> lock(mu);
                  res.samples.push_back(Sample{0, ms, ok});
                  return;
                }
                tr->end(sent, {{"client_ms", ms}});
                judge(base + i, reply, ph);
                // Re-drive the request in process: handle_line whole (no
                // transport), then its steps one public call at a time.
                const std::string line = request(base + i);
                const std::string direct = tr->span("serve.handle", "wall", eval, root, [&] {
                  return server.handle_line(line);
                });
                const json::Value dv = json::parse(direct);
                res_check(dv.get_or("ok", false) && dv.at("report").dump() == ref_doc,
                          "handle_line_report_equals_simulate_compiled", direct.substr(0, 200));
                const serve::Request req = tr->span("serve.parse", "op", eval, root, [&] {
                  return serve::parse_request(line);
                });
                const runtime::Scenario s = tr->span("serve.scenario", "op", eval, root, [&] {
                  return serve::scenario_from_request(req.body);
                });
                const int64_t pid = tr->begin("artifact.program", "op", eval, root);
                const auto net = store.program(h, cfg, copts);
                tr->end(pid, {{"hit", 1.0}});
                traced_simulate(*tr, eval, root, *net, cfg, nullptr);
                tr->end(root);
              });
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ph.seconds = static_cast<double>(now_ns() - start) * 1e-9;
    for (const std::string& e : errors) res_check(e.empty(), "client_transport", e);
  };

  Phase warm;  // untimed: let both connections and their server threads settle
  run_clients(0.5, warm, false);
  res.samples.clear();
  run_clients(a.trace ? a.seconds / 2 : a.seconds, res.untraced, false);
  if (tr != nullptr) run_clients(a.seconds / 2, res.traced, true);
  const json::Value stats = server.stats_snapshot();
  const json::Value& counters = stats.at("counters");
  res.counters["artifact.program_hits"] =
      static_cast<double>(counters.at("artifact.program_hits").as_int());
  res.counters["artifact.program_misses"] =
      static_cast<double>(counters.at("artifact.program_misses").as_int());
  res.counters["serve.error_replies"] = static_cast<double>(error_replies);
  std::printf("%s\n", res.to_json(a.workload, a.trace, peak_rss_mb()).dump().c_str());
  return 0;
}

// ----------------------------------------------------------------- self-test

/// Closed-loop timing check: a fake server that answers each line after a
/// fixed delay, and records whether a client ever had two requests in
/// flight. Every measured latency must cover the delay, requests must never
/// overlap, and each reply must reach the request that caused it.
int self_test(const Args& a) {
  const std::string path = a.out_dir + strformat("/selftest-%d.sock", static_cast<int>(::getpid()));
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), std::min(path.size() + 1, sizeof(addr.sun_path) - 1));
  ::unlink(path.c_str());
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 4) != 0) {
    std::fprintf(stderr, "self-test: cannot listen on %s\n", path.c_str());
    return 1;
  }
  constexpr int kDelayMs = 4;
  std::atomic<bool> overlapped{false};
  std::thread fake([&] {
    const int c = ::accept(lfd, nullptr, nullptr);
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(c, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (!buf.empty()) overlapped = true;  // a second request before our reply
        std::this_thread::sleep_for(std::chrono::milliseconds(kDelayMs));
        const std::string reply = "echo:" + line + "\n";
        ::send(c, reply.data(), reply.size(), MSG_NOSIGNAL);
      }
    }
    ::close(c);
  });
  size_t replies = 0, mismatched = 0, too_fast = 0;
  closed_loop_client(path, now_ns() + 200'000'000, SIZE_MAX, [](size_t i) { return std::to_string(i); },
                     [&](size_t i, const std::string& reply, double ms) {
                       ++replies;
                       mismatched += reply != "echo:" + std::to_string(i);
                       too_fast += ms < kDelayMs;
                     });
  fake.join();
  ::close(lfd);
  ::unlink(path.c_str());
  const bool ok = replies >= 10 && mismatched == 0 && too_fast == 0 && !overlapped;
  std::printf("{\"self_test\":\"closed_loop\",\"ok\":%s,\"replies\":%zu,\"mismatched\":%zu,"
              "\"faster_than_server\":%zu,\"overlapped\":%s}\n",
              ok ? "true" : "false", replies, mismatched, too_fast,
              overlapped ? "true" : "false");
  return ok ? 0 : 1;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--out-dir") a.out_dir = value();
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--self-test") a.self_test = true;
    else if (k == "--cpus") {
      for (const std::string& c : split(value(), ',')) a.cpus.push_back(std::stoi(c));
    }
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (!a.cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int c : a.cpus) CPU_SET(c, &set);
      if (sched_setaffinity(0, sizeof set, &set) != 0) {
        throw std::runtime_error("cannot pin to the --cpus set");
      }
    }
    // Logging off everywhere: an expected budget expiry logs at ERROR, and
    // log I/O must not land in timed phases.
    log::set_level(log::Level::Off);
    if (a.self_test) return self_test(a);
    std::unique_ptr<Tracer> tracer = a.trace ? std::make_unique<Tracer>() : nullptr;
    int rc = 2;
    if (a.workload == "zoo_timing") {
      rc = run_zoo(a, {{"alexnet", "googlenet", "resnet18", "squeezenet", "vgg8", "vgg16",
                        "tiny_cnn", "mlp"},
                       32, false},
                   tracer.get());
    } else if (a.workload == "zoo_functional") {
      rc = run_zoo(a, {{"tiny_cnn", "vgg8", "squeezenet", "alexnet", "resnet18"}, 16, true},
                   tracer.get());
    } else if (a.workload == "dse_budgeted") {
      rc = run_dse(a, tracer.get());
    } else if (a.workload == "serve_warm") {
      rc = run_serve(a, tracer.get());
    } else {
      std::fprintf(stderr, "pimbench: unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
    if (tracer != nullptr && !a.setup_only) {
      tracer->write(a.out_dir + "/spans-" + a.workload + strformat("-%llu.json",
                                                                    static_cast<unsigned long long>(a.seed)));
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimbench: %s\n", e.what());
    return 1;
  }
}
