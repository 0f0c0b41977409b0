// pim::dse — search-space parsing, sampler determinism, Pareto extraction,
// result-cache behavior, and the ArchConfig override/serialization
// round-trip the subsystem depends on.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <set>

#include "dse/cache.h"
#include "dse/evaluator.h"
#include "dse/explorer.h"
#include "dse/pareto.h"
#include "dse/sampler.h"
#include "dse/search_space.h"

namespace pim::dse {
namespace {

/// Evaluator options: `jobs` workers, a result cache in `cache_dir` (empty =
/// none), everything else at its default.
EvalOptions eval_options(unsigned jobs, std::string cache_dir = {}) {
  EvalOptions opts;
  opts.jobs = jobs;
  opts.cache_dir = std::move(cache_dir);
  return opts;
}

/// A fast space: 4-core chip, FC-only workload at 8x8 input.
SearchSpace small_space() {
  return SearchSpace::from_json(json::parse(R"({
    "name": "test-space",
    "base": "tiny",
    "model": "mlp",
    "input_hw": 8,
    "knobs": {
      "rob_size": [4, 8],
      "adcs_per_core": [2, 4],
      "batch": [1, 2]
    }
  })"));
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "pim_dse_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------- parsing

TEST(SearchSpaceTest, ParsesAllKnobValueForms) {
  const SearchSpace s = SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "knobs": {
      "rob_size": [2, 4, 8],
      "noc_link_bytes": {"range": [8, 24], "step": 8},
      "adcs_per_core": {"log2_range": [2, 16]},
      "xbars_per_core": {"values": [16]},
      "policy": ["perf", "util"]
    }
  })"));
  ASSERT_EQ(s.knobs.size(), 5u);
  // Knobs are stored sorted by name (JSON object order).
  EXPECT_EQ(s.knobs[0].name, "adcs_per_core");
  ASSERT_EQ(s.knobs[0].values.size(), 4u);  // 2, 4, 8, 16
  EXPECT_EQ(s.knobs[0].values[3].as_int(), 16);
  const Knob* link = s.find_knob("noc_link_bytes");
  ASSERT_NE(link, nullptr);
  ASSERT_EQ(link->values.size(), 3u);  // 8, 16, 24
  EXPECT_EQ(link->values[1].as_int(), 16);
  EXPECT_EQ(s.grid_size(), 3u * 3u * 4u * 1u * 2u);
  // Default objectives.
  EXPECT_EQ(s.objectives, (std::vector<std::string>{"latency_ms", "energy_uj", "power_mw",
                                                    "area_mm2"}));
}

TEST(SearchSpaceTest, RejectsMalformedSpecs) {
  const auto parse = [](const char* text) { return SearchSpace::from_json(json::parse(text)); };
  // Unknown knob name (neither structured nor a config path).
  EXPECT_THROW(parse(R"({"base": "tiny", "knobs": {"warp_drive": [1]}})"),
               std::invalid_argument);
  // Unknown dotted config path.
  EXPECT_THROW(parse(R"({"base": "tiny", "knobs": {"core.warp.factor": [1]}})"),
               std::invalid_argument);
  // Empty value list.
  EXPECT_THROW(parse(R"({"base": "tiny", "knobs": {"rob_size": []}})"), std::invalid_argument);
  // Bad policy value.
  EXPECT_THROW(parse(R"({"base": "tiny", "knobs": {"policy": ["fastest"]}})"),
               std::invalid_argument);
  // Bad objective name.
  EXPECT_THROW(
      parse(R"({"base": "tiny", "knobs": {"rob_size": [4]}, "objectives": ["speed"]})"),
      std::invalid_argument);
  // Unknown base preset.
  EXPECT_THROW(parse(R"({"base": "huge", "knobs": {"rob_size": [4]}})"), std::invalid_argument);
  // No knobs at all.
  EXPECT_THROW(parse(R"({"base": "tiny", "knobs": {}})"), std::invalid_argument);
}

TEST(SearchSpaceTest, DottedPathKnobsValidateAgainstSchema) {
  const SearchSpace s = SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "knobs": {"core.local_memory.size_bytes": [65536, 131072], "rob_size": [4]}
  })"));
  EXPECT_EQ(s.grid_size(), 2u);
  // Type mismatch against the schema: string into a numeric field.
  EXPECT_THROW(SearchSpace::from_json(json::parse(
                   R"({"base": "tiny", "knobs": {"core.local_memory.size_bytes": ["big"]}})")),
               std::invalid_argument);
}

// ------------------------------------------------------------ materialize

TEST(MaterializeTest, AppliesStructuredAndPathKnobs) {
  const SearchSpace s = SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "model": "mlp",
    "input_hw": 8,
    "knobs": {
      "rob_size": [4],
      "adcs_per_core": [2],
      "policy": ["util"],
      "batch": [2],
      "core.local_memory.size_bytes": [131072]
    }
  })"));
  Point p;
  for (const Knob& k : s.knobs) p[k.name] = k.values[0];
  const MaterializedPoint m = materialize(s, p);
  ASSERT_TRUE(m.feasible) << m.error;
  EXPECT_EQ(m.scenario.arch.core.rob_size, 4u);
  EXPECT_EQ(m.scenario.arch.core.matrix.adc_count, 2u);
  EXPECT_EQ(m.scenario.arch.core.local_memory.size_bytes, 131072u);
  EXPECT_EQ(m.scenario.copts.policy, compiler::MappingPolicy::UtilizationFirst);
  EXPECT_EQ(m.scenario.copts.batch, 2u);
  EXPECT_EQ(m.scenario.workload.kind, workload::Kind::Mlp);
  EXPECT_EQ(m.scenario.workload.label(), "mlp");
  EXPECT_EQ(m.scenario.workload.input_hw, 8);
}

TEST(MaterializeTest, CoreCountAndMeshCoupling) {
  SearchSpace s = small_space();
  // core_count alone derives the squarest mesh.
  {
    const MaterializedPoint m = materialize(s, Point{{"core_count", json::Value(16)}});
    ASSERT_TRUE(m.feasible) << m.error;
    EXPECT_EQ(m.scenario.arch.core_count, 16u);
    EXPECT_EQ(m.scenario.arch.mesh_width, 4u);
    EXPECT_EQ(m.scenario.arch.mesh_height, 4u);
  }
  // mesh alone derives the core count.
  {
    const MaterializedPoint m = materialize(s, Point{{"mesh", json::Value("2x4")}});
    ASSERT_TRUE(m.feasible) << m.error;
    EXPECT_EQ(m.scenario.arch.core_count, 8u);
  }
  // Inconsistent pair is infeasible with the validate() message.
  {
    const MaterializedPoint m = materialize(
        s, Point{{"core_count", json::Value(8)}, {"mesh", json::Value("3x3")}});
    EXPECT_FALSE(m.feasible);
    EXPECT_NE(m.error.find("mesh_width*mesh_height"), std::string::npos) << m.error;
  }
}

TEST(MaterializeTest, ReportsInfeasibleInsteadOfThrowing) {
  const SearchSpace s = small_space();
  // tiny has 16 crossbars per core; more ADCs than crossbars is invalid.
  const MaterializedPoint m = materialize(s, Point{{"adcs_per_core", json::Value(64)}});
  EXPECT_FALSE(m.feasible);
  EXPECT_NE(m.error.find("adc_count"), std::string::npos) << m.error;
}

// ----------------------------------------------- ArchConfig round-trip fix

TEST(ArchRoundTripTest, OverrideThenSerializeIsLossless) {
  const SearchSpace s = small_space();
  Point p{{"rob_size", json::Value(8)},
          {"adcs_per_core", json::Value(2)},
          {"core_count", json::Value(16)}};
  const MaterializedPoint m = materialize(s, p);
  ASSERT_TRUE(m.feasible) << m.error;
  const config::ArchConfig& cfg = m.scenario.arch;
  const json::Value once = cfg.to_json();
  const json::Value twice = config::ArchConfig::from_json(once).to_json();
  EXPECT_EQ(once.dump(), twice.dump());
}

TEST(ArchRoundTripTest, PresetsRoundTripLossless) {
  for (const config::ArchConfig& cfg :
       {config::ArchConfig::preset("tiny"), config::ArchConfig::preset("paper"),
        config::ArchConfig::preset("mnsim")}) {
    const json::Value once = cfg.to_json();
    const json::Value twice = config::ArchConfig::from_json(once).to_json();
    EXPECT_EQ(once.dump(), twice.dump()) << cfg.name;
  }
}

TEST(ArchRoundTripTest, ValidateRejectsInconsistentMesh) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.mesh_width = 3;
  cfg.mesh_height = 3;  // 9 != 4 cores
  try {
    cfg.validate();
    FAIL() << "validate() accepted an inconsistent mesh";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mesh_width*mesh_height (9)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("core_count (4)"), std::string::npos) << e.what();
  }
  // A wrapped-around 2^16 x 2^16 mesh must not masquerade as consistent.
  cfg.mesh_width = 65536;
  cfg.mesh_height = 65536;
  cfg.core_count = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------- samplers

TEST(SamplerTest, GridEnumeratesTheFullProductExactlyOnce) {
  const SearchSpace s = small_space();
  const auto sampler = make_sampler("grid", s);
  const std::vector<Point> all = sampler->propose(SIZE_MAX, {});
  EXPECT_EQ(all.size(), s.grid_size());
  std::set<std::string> keys;
  for (const Point& p : all) keys.insert(point_key(p));
  EXPECT_EQ(keys.size(), all.size());  // no duplicates
  // Exhausted afterwards.
  EXPECT_TRUE(sampler->propose(SIZE_MAX, {}).empty());
  // Chunked enumeration yields the same sequence.
  const auto chunked = make_sampler("grid", s);
  std::vector<Point> seq;
  for (;;) {
    const std::vector<Point> chunk = chunked->propose(3, {});
    if (chunk.empty()) break;
    seq.insert(seq.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(seq.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(point_key(seq[i]), point_key(all[i]));
}

TEST(SamplerTest, GridBoundsScanOnJointlyUnsatisfiableConstraints) {
  // A 512x512 grid (too large for the parser's joint-satisfiability check)
  // whose two constraints are individually satisfiable but jointly empty:
  // an unbounded odometer walk would scan all 256Ki points inside one
  // propose() call. The sampler must give up after its 64Ki scan budget,
  // return empty (which stops the explorer), and account for every skipped
  // candidate.
  SearchSpace s;
  s.base = config::ArchConfig::preset("tiny");
  Knob a{"noc_link_bytes", {}};
  Knob b{"rob_size", {}};
  for (int v = 1; v <= 512; ++v) {
    a.values.push_back(json::Value(v));
    b.values.push_back(json::Value(v));
  }
  s.knobs = {a, b};  // sorted: noc_link_bytes < rob_size
  ASSERT_EQ(s.grid_size(), 512u * 512u);
  s.constraints.push_back(Constraint::parse("rob_size <= 4", s));
  s.constraints.push_back(Constraint::parse("rob_size >= 8", s));

  const auto sampler = make_sampler("grid", s);
  const std::vector<Point> out = sampler->propose(4, {});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(sampler->constraint_skips(), size_t{64} * 1024)
      << "every scanned candidate must be counted, and only the budgeted amount scanned";
}

TEST(SamplerTest, GridFindsSparseFeasiblePointsWithinTheScanBudget) {
  // Same huge grid, but one value in 512 is admissible: the bounded walk
  // must still surface those needles (they lie within the per-call budget),
  // not bail early.
  SearchSpace s;
  s.base = config::ArchConfig::preset("tiny");
  Knob a{"noc_link_bytes", {}};
  Knob b{"rob_size", {}};
  for (int v = 1; v <= 512; ++v) {
    a.values.push_back(json::Value(v));
    b.values.push_back(json::Value(v));
  }
  s.knobs = {a, b};
  s.constraints.push_back(Constraint::parse("rob_size == 512", s));

  const auto sampler = make_sampler("grid", s);
  const std::vector<Point> out = sampler->propose(4, {});
  ASSERT_EQ(out.size(), 4u);
  // rob_size varies fastest: the 4 needles cost 4 * 512 scans, minus hits.
  EXPECT_EQ(sampler->constraint_skips(), 4u * 512u - 4u);
  EXPECT_EQ(out[0].at("noc_link_bytes").as_int(), 1);
  EXPECT_EQ(out[0].at("rob_size").as_int(), 512);
  EXPECT_EQ(out[3].at("noc_link_bytes").as_int(), 4);
}

TEST(SamplerTest, RandomIsSeededAndWithoutReplacement) {
  const SearchSpace s = small_space();
  const auto a = make_sampler("random", s, 42);
  const auto b = make_sampler("random", s, 42);
  const std::vector<Point> pa = a->propose(6, {});
  const std::vector<Point> pb = b->propose(6, {});
  ASSERT_EQ(pa.size(), 6u);
  ASSERT_EQ(pb.size(), 6u);
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(point_key(pa[i]), point_key(pb[i]));
  // Without replacement, and every value drawn from its knob's domain.
  std::set<std::string> keys;
  for (const Point& p : pa) {
    EXPECT_TRUE(keys.insert(point_key(p)).second);
    for (const auto& [name, value] : p) {
      const Knob* k = s.find_knob(name);
      ASSERT_NE(k, nullptr);
      EXPECT_NE(std::find(k->values.begin(), k->values.end(), value), k->values.end());
    }
  }
  // Asking for more than the space holds terminates with the full space.
  const auto c = make_sampler("random", s, 7);
  EXPECT_EQ(c->propose(10000, {}).size(), s.grid_size());
}

TEST(SamplerTest, RandomExhaustionIsCountedAsDuplicatesNotConstraints) {
  // Draining a small unconstrained space forces re-draws of already-proposed
  // points: the rejection budget that ends the round must be the duplicate
  // one, and the accounting must say so — duplicate_skips() > 0 while
  // constraint_skips() stays 0 (nothing was infeasible).
  const SearchSpace s = small_space();
  const auto sampler = make_sampler("random", s, 11);
  EXPECT_EQ(sampler->propose(10000, {}).size(), s.grid_size());
  EXPECT_GT(sampler->duplicate_skips(), 0u);
  EXPECT_EQ(sampler->constraint_skips(), 0u);
}

TEST(SamplerTest, RandomBoundsScanOnJointlyUnsatisfiableConstraints) {
  // The random mirror of GridBoundsScanOnJointlyUnsatisfiableConstraints:
  // every uniform draw from this 512x512 grid violates the (jointly empty)
  // constraint pair, so the refill loop must stop at its fixed 64Ki
  // constraint budget — attributed entirely to constraint_skips(), with
  // duplicate_skips() untouched (an infeasible draw never reaches the
  // dedup set).
  SearchSpace s;
  s.base = config::ArchConfig::preset("tiny");
  Knob a{"noc_link_bytes", {}};
  Knob b{"rob_size", {}};
  for (int v = 1; v <= 512; ++v) {
    a.values.push_back(json::Value(v));
    b.values.push_back(json::Value(v));
  }
  s.knobs = {a, b};
  s.constraints.push_back(Constraint::parse("rob_size <= 4", s));
  s.constraints.push_back(Constraint::parse("rob_size >= 8", s));

  const auto sampler = make_sampler("random", s, 5);
  EXPECT_TRUE(sampler->propose(4, {}).empty());
  EXPECT_EQ(sampler->constraint_skips(), size_t{64} * 1024);
  EXPECT_EQ(sampler->duplicate_skips(), 0u);
}

TEST(SamplerTest, EvolveIsDeterministicGivenHistory) {
  const SearchSpace s = small_space();
  // Synthetic history: two feasible points with made-up metrics.
  std::vector<EvaluatedPoint> history(2);
  history[0].point = Point{{"adcs_per_core", json::Value(2)}, {"batch", json::Value(1)},
                           {"rob_size", json::Value(4)}};
  history[0].feasible = history[0].ok = true;
  history[0].metrics.latency_ms = 1.0;
  history[0].metrics.energy_uj = 2.0;
  history[1].point = Point{{"adcs_per_core", json::Value(4)}, {"batch", json::Value(2)},
                           {"rob_size", json::Value(8)}};
  history[1].feasible = history[1].ok = true;
  history[1].metrics.latency_ms = 0.5;
  history[1].metrics.energy_uj = 4.0;
  for (EvaluatedPoint& h : history) h.label = point_label(h.point);

  const auto a = make_sampler("evolve", s, 9);
  const auto b = make_sampler("evolve", s, 9);
  const std::vector<Point> pa = a->propose(4, history);
  const std::vector<Point> pb = b->propose(4, history);
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_FALSE(pa.empty());
  std::set<std::string> seen;
  for (const EvaluatedPoint& h : history) seen.insert(point_key(h.point));
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(point_key(pa[i]), point_key(pb[i]));
    // Never re-proposes history.
    EXPECT_TRUE(seen.insert(point_key(pa[i])).second);
  }
}

// ------------------------------------------------------------------ pareto

TEST(ParetoTest, FrontierOnSyntheticPoints) {
  //  A (1,5) and C (3,1) are non-dominated; B (2,6) is dominated by A,
  //  D (4,4) by C... no: C=(3,1), D=(4,4): C dominates D (3<4, 1<4). E ties A.
  const std::vector<std::vector<double>> rows = {
      {1.0, 5.0},  // A
      {2.0, 6.0},  // B — dominated by A
      {3.0, 1.0},  // C
      {4.0, 4.0},  // D — dominated by C
      {1.0, 5.0},  // E — duplicate of A, kept (does not dominate / is not dominated)
  };
  EXPECT_EQ(pareto_frontier(rows), (std::vector<size_t>{0, 2, 4}));
  EXPECT_TRUE(dominates({1.0, 5.0}, {2.0, 6.0}));
  EXPECT_FALSE(dominates({1.0, 5.0}, {1.0, 5.0}));     // equal: no strict gain
  EXPECT_FALSE(dominates({2.0, 1.0}, {1.0, 2.0}));     // trade-off: incomparable
  // Single objective degenerates to argmin.
  EXPECT_EQ(pareto_frontier({{3.0}, {1.0}, {2.0}}), (std::vector<size_t>{1}));
}

// ------------------------------------------------------------------- cache

TEST(CacheTest, HitMissAndCollisionSafety) {
  const std::string dir = fresh_dir("cache");
  const SearchSpace s = small_space();
  const MaterializedPoint m = materialize(s, Point{{"rob_size", json::Value(4)}});
  ASSERT_TRUE(m.feasible);
  const std::string key = scenario_key(m.scenario);

  ResultCache cache(dir);
  ASSERT_TRUE(cache.enabled());
  EvaluatedPoint probe;
  EXPECT_FALSE(cache.load(key, &probe));  // cold

  EvaluatedPoint stored;
  stored.ok = true;
  stored.metrics.latency_ms = 1.25;
  stored.metrics.instructions = 777;
  cache.store(key, stored);

  EvaluatedPoint hit;
  ASSERT_TRUE(cache.load(key, &hit));
  EXPECT_TRUE(hit.ok);
  EXPECT_DOUBLE_EQ(hit.metrics.latency_ms, 1.25);
  EXPECT_EQ(hit.metrics.instructions, 777u);

  // An entry whose stored key string differs (hash collision, stale file)
  // must read as a miss, not as a wrong result.
  const std::string other_key = key + "x";
  std::filesystem::copy_file(
      dir + "/" + [&] {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(fnv1a64(key)));
        return std::string(buf);
      }() + ".json",
      dir + "/" + [&] {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(fnv1a64(other_key)));
        return std::string(buf);
      }() + ".json");
  EvaluatedPoint collided;
  EXPECT_FALSE(cache.load(other_key, &collided));

  // Disabled cache never hits and never stores.
  ResultCache off("");
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.load(key, &probe));
}

TEST(CacheTest, KeyNamesTheSimulatorModelVersion) {
  // Results stored by a build whose simulated answers differ must miss.
  const SearchSpace s = small_space();
  const MaterializedPoint m = materialize(s, Point{{"rob_size", json::Value(4)}});
  ASSERT_TRUE(m.feasible);
  const uint64_t fp = m.scenario.workload.fingerprint();
  const std::string v1 = scenario_key(m.scenario, fp, 1);
  const std::string v2 = scenario_key(m.scenario, fp, 2);
  EXPECT_NE(v1, v2);
  EXPECT_NE(fnv1a64(v1), fnv1a64(v2));
  EXPECT_EQ(scenario_key(m.scenario), scenario_key(m.scenario, fp, kSimModelVersion));
}

TEST(CacheTest, EvaluatorReusesResultsAcrossInstances) {
  const std::string dir = fresh_dir("evaluator");
  const SearchSpace s = small_space();
  const auto sampler = make_sampler("grid", s);
  const std::vector<Point> pts = sampler->propose(SIZE_MAX, {});

  Evaluator first(s, eval_options(2, dir));
  const std::vector<EvaluatedPoint> cold = first.evaluate(pts);
  EXPECT_EQ(first.cache_stats().hits, 0u);
  EXPECT_EQ(first.cache_stats().misses, pts.size());

  // A fresh Evaluator (fresh process, in spirit) sees only hits...
  Evaluator second(s, eval_options(2, dir));
  const std::vector<EvaluatedPoint> warm = second.evaluate(pts);
  EXPECT_EQ(second.cache_stats().hits, pts.size());
  EXPECT_EQ(second.cache_stats().misses, 0u);

  // ...and identical results, to the last bit of every metric.
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache);
    EXPECT_EQ(cold[i].to_json().dump(), warm[i].to_json().dump()) << cold[i].label;
  }
}

TEST(CacheTest, SizeCapEvictsOldestFirst) {
  const std::string dir = fresh_dir("evict");
  const SearchSpace s = small_space();
  const MaterializedPoint m = materialize(s, Point{{"rob_size", json::Value(4)}});
  ASSERT_TRUE(m.feasible);
  EvaluatedPoint stored;
  stored.feasible = true;
  stored.ok = true;
  stored.metrics.latency_ms = 1.0;

  // Fill an unbounded cache with 4 entries whose modification times are
  // forced strictly apart (filesystem mtime granularity is coarser than the
  // writes).
  std::vector<std::string> keys;
  uint64_t entry_bytes = 0;
  {
    ResultCache cache(dir);
    // Strictly in the past: a later store must rank newer than all of these.
    const auto base = std::filesystem::file_time_type::clock::now() - std::chrono::hours(1);
    for (int i = 0; i < 4; ++i) {
      const std::string key = scenario_key(m.scenario) + std::to_string(i);
      keys.push_back(key);
      cache.store(key, stored);
      const std::string path =
          dir + "/" + [&] {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(fnv1a64(key)));
            return std::string(buf);
          }() + ".json";
      std::filesystem::last_write_time(path, base + std::chrono::seconds(i));
      entry_bytes = std::filesystem::file_size(path);
    }
  }

  // Re-opening with a cap of ~2 entries trims the 2 oldest at construction.
  ResultCache capped(dir, entry_bytes * 2 + entry_bytes / 2);
  EXPECT_EQ(capped.evicted(), 2u);
  EvaluatedPoint probe;
  EXPECT_FALSE(capped.load(keys[0], &probe));
  EXPECT_FALSE(capped.load(keys[1], &probe));
  EXPECT_TRUE(capped.load(keys[2], &probe));
  EXPECT_TRUE(capped.load(keys[3], &probe));

  // A store that pushes past the cap evicts the oldest survivor.
  const std::string newest = scenario_key(m.scenario) + "fresh";
  capped.store(newest, stored);
  EXPECT_EQ(capped.evicted(), 3u);
  EXPECT_FALSE(capped.load(keys[2], &probe));
  EXPECT_TRUE(capped.load(keys[3], &probe));
  EXPECT_TRUE(capped.load(newest, &probe));
}

// ------------------------------------------------------------- time budget

TEST(TimeBudgetTest, ApplyTimeBudgetSemantics) {
  const SearchSpace s = small_space();
  MaterializedPoint m = materialize(s, Point{{"rob_size", json::Value(4)}});
  ASSERT_TRUE(m.feasible);

  runtime::Scenario sc = m.scenario;
  apply_time_budget(&sc, 0);  // no budget -> untouched
  EXPECT_EQ(sc.arch.sim.max_time_ps, 0u);
  apply_time_budget(&sc, 25'000'000);  // unset -> takes the exploration cap (25 us)
  EXPECT_EQ(sc.arch.sim.max_time_ps, 25'000'000u);
  apply_time_budget(&sc, 100'000'000);  // looser cap never relaxes a stricter one
  EXPECT_EQ(sc.arch.sim.max_time_ps, 25'000'000u);
  apply_time_budget(&sc, 10'000'000);  // stricter cap wins
  EXPECT_EQ(sc.arch.sim.max_time_ps, 10'000'000u);
}

TEST(TimeBudgetTest, TimedOutPointsReportedLikeInfeasible) {
  // batch=64 on the tiny_cnn workload simulates ~2 ms — far beyond a 1 ms
  // simulated-time budget — so the point must come back budget-infeasible,
  // not hang the exploration or pollute the frontier.
  const SearchSpace s = SearchSpace::from_json(json::parse(R"({
    "name": "budget-space",
    "base": "tiny",
    "model": "tiny_cnn",
    "input_hw": 8,
    "knobs": {"batch": [1, 64]}
  })"));
  EvalOptions opts;
  opts.jobs = 2;
  opts.max_point_time_ps = 1'000'000'000;  // 1 ms
  Evaluator ev(s, opts);
  const auto sampler = make_sampler("grid", s);
  const std::vector<EvaluatedPoint> res = ev.evaluate(sampler->propose(SIZE_MAX, {}));
  ASSERT_EQ(res.size(), 2u);
  EXPECT_TRUE(res[0].feasible);  // batch=1 finishes well under budget
  EXPECT_TRUE(res[0].ok);
  EXPECT_FALSE(res[1].feasible);  // batch=64 exceeds it
  EXPECT_FALSE(res[1].ok);
  EXPECT_NE(res[1].error.find("timed out"), std::string::npos) << res[1].error;
}

// ---------------------------------------------------------------- explorer

TEST(ExplorerTest, EndToEndDeterministicWithNonEmptyFrontier) {
  const SearchSpace s = small_space();
  ExploreOptions opts;
  opts.sampler = "grid";
  opts.budget = 1000;  // more than the grid holds
  opts.jobs = 4;
  opts.cache_dir = fresh_dir("explore");

  const ExploreResult cold = explore(s, opts);
  EXPECT_EQ(cold.points.size(), s.grid_size());
  EXPECT_FALSE(cold.frontier.empty());
  EXPECT_EQ(cold.cache.misses, s.grid_size());

  // Second run: served from cache, byte-identical JSON, >= 90% hits.
  const ExploreResult warm = explore(s, opts);
  EXPECT_EQ(warm.cache.hits, s.grid_size());
  EXPECT_GE(warm.cache.hit_rate(), 0.9);
  EXPECT_EQ(cold.to_json().dump(2), warm.to_json().dump(2));
  EXPECT_EQ(cold.frontier_table(), warm.frontier_table());

  // The frontier is ranked by the first objective.
  for (size_t i = 1; i < warm.frontier.size(); ++i) {
    EXPECT_LE(warm.points[warm.frontier[i - 1]].metrics.latency_ms,
              warm.points[warm.frontier[i]].metrics.latency_ms);
  }
  // Different job counts change nothing.
  ExploreOptions serial = opts;
  serial.jobs = 1;
  serial.cache_dir.clear();  // force re-simulation
  const ExploreResult rerun = explore(s, serial);
  EXPECT_EQ(cold.to_json().dump(2), rerun.to_json().dump(2));
}

// ------------------------------------------------------ golden determinism

TEST(ExplorerTest, GoldenSeededExplorationHashPerSampler) {
  // Each sampler, run twice with the same seed, must produce byte-identical
  // exploration JSON — and that JSON must match a recorded FNV-1a golden,
  // the way sim_test pins Kernel::order_fingerprint(). On this toolchain a
  // mismatch means the determinism contract broke: the same (space,
  // sampler, seed, budget) no longer replays the same exploration, which
  // silently invalidates every cached frontier. (The sampler point
  // sequences are toolchain-portable — see uniform_below in sampler.cpp —
  // but the JSON also embeds simulated floating-point metrics, so on a
  // different compiler/arch a golden mismatch may just be last-ulp metric
  // drift.) If a deliberate sampler/metric change moved the hash,
  // re-record it here and say so in the commit message.
  const SearchSpace s = small_space();
  struct Golden {
    const char* sampler;
    uint64_t hash;
  };
  const Golden goldens[] = {
      {"grid", 0xa936ce0ee85b210dull},
      {"random", 0x9a9918ea715f3c73ull},
      {"evolve", 0x215e8ab7948df3ddull},
      {"nsga2", 0xc4ac1adb9792d0d9ull},
  };
  for (const Golden& g : goldens) {
    ExploreOptions opts;
    opts.sampler = g.sampler;
    opts.budget = 8;
    opts.seed = 5;
    opts.population = 4;
    opts.jobs = 2;
    const ExploreResult a = explore(s, opts);
    const ExploreResult b = explore(s, opts);
    const std::string dump = a.to_json().dump(2);
    EXPECT_EQ(dump, b.to_json().dump(2)) << g.sampler;
    EXPECT_EQ(a.points.size(), 8u) << g.sampler;
    EXPECT_EQ(fnv1a64(dump), g.hash)
        << g.sampler << ": exploration JSON drifted (fnv1a64 = 0x" << std::hex
        << fnv1a64(dump) << ")";
  }
}

// --------------------------------------------------------- shared cache dir

TEST(CacheDirTest, ResolutionPrefersFlagThenEnvThenFallback) {
  unsetenv("PIMDSE_CACHE_DIR");
  EXPECT_EQ(resolve_cache_dir("flagdir", "fallback"), "flagdir");
  EXPECT_EQ(resolve_cache_dir("", "fallback"), "fallback");
  setenv("PIMDSE_CACHE_DIR", "/tmp/pim-shared-cache", 1);
  EXPECT_EQ(resolve_cache_dir("", "fallback"), "/tmp/pim-shared-cache");
  EXPECT_EQ(resolve_cache_dir("flagdir", "fallback"), "flagdir");  // flag wins
  setenv("PIMDSE_CACHE_DIR", "", 1);  // empty env var does not count
  EXPECT_EQ(resolve_cache_dir("", "fallback"), "fallback");
  unsetenv("PIMDSE_CACHE_DIR");
}

TEST(CacheDirTest, TwoRunsPointedAtTheSharedDirGetCacheHits) {
  const std::string dir = fresh_dir("shared_env");
  setenv("PIMDSE_CACHE_DIR", dir.c_str(), 1);
  const std::string resolved = resolve_cache_dir("", "");
  unsetenv("PIMDSE_CACHE_DIR");
  ASSERT_EQ(resolved, dir);

  const SearchSpace s = small_space();
  const std::vector<Point> pts = make_sampler("grid", s)->propose(4, {});
  Evaluator first(s, eval_options(2, resolved));
  first.evaluate(pts);
  EXPECT_EQ(first.cache_stats().misses, pts.size());
  EXPECT_EQ(first.cache_stats().hits, 0u);
  // A second run (fresh process, in spirit) resolving the same env var
  // reuses every result.
  Evaluator second(s, eval_options(2, resolved));
  second.evaluate(pts);
  EXPECT_EQ(second.cache_stats().hits, pts.size());
  EXPECT_EQ(second.cache_stats().misses, 0u);
}

TEST(ExplorerTest, EvolveRunsWithinBudgetDeterministically) {
  const SearchSpace s = small_space();
  ExploreOptions opts;
  opts.sampler = "evolve";
  opts.budget = 6;
  opts.seed = 3;
  opts.jobs = 2;
  const ExploreResult a = explore(s, opts);
  const ExploreResult b = explore(s, opts);
  EXPECT_EQ(a.points.size(), 6u);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_FALSE(a.frontier.empty());
}

}  // namespace
}  // namespace pim::dse
