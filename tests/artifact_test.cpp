// pim::artifact — the compile-once/simulate-many store: compile-relevant
// arch keying, single-flight build sharing under concurrency, LRU eviction,
// bit-identity of cached-compile simulation against the direct path, the
// evaluator fingerprint/build TOCTOU regression the layer closes, and the
// verify proofs compiled programs carry.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "arch/chip.h"
#include "artifact/artifact.h"
#include "config/arch_config.h"
#include "dse/evaluator.h"
#include "nn/executor.h"
#include "dse/search_space.h"
#include "runtime/batch_runner.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace pim {
namespace {

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "pim_artifact_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- arch key

TEST(ArchKey, SimOnlyFieldsShareOneCompileIdentity) {
  const config::ArchConfig base = config::ArchConfig::preset("tiny");
  const uint64_t key = artifact::arch_key(base);

  // Every simulation-side knob a sweep typically varies must keep the key.
  config::ArchConfig cfg = base;
  cfg.core.rob_size *= 2;
  cfg.core.freq_mhz *= 2;
  cfg.core.fetch_decode_cycles += 1;
  cfg.core.dispatch_width += 1;
  cfg.noc.freq_mhz *= 2;
  cfg.noc.link_bytes_per_cycle *= 2;
  cfg.noc.hop_latency_cycles += 1;
  cfg.sim.max_time_ps = 12345;
  cfg.name = "renamed";
  EXPECT_EQ(artifact::arch_key(cfg), key)
      << "sim-only fields leaked into the compile-relevant fingerprint";
}

TEST(ArchKey, EveryCompileRelevantFieldChangesTheKey) {
  const config::ArchConfig base = config::ArchConfig::preset("tiny");
  const uint64_t key = artifact::arch_key(base);
  std::set<uint64_t> keys = {key};

  const auto expect_new_key = [&](config::ArchConfig cfg, const char* field) {
    const uint64_t k = artifact::arch_key(cfg);
    EXPECT_NE(k, key) << field << " must be compile-relevant";
    EXPECT_TRUE(keys.insert(k).second) << field << " collided with another mutation";
  };
  {
    config::ArchConfig c = base;
    c.core_count *= 4;
    c.mesh_width *= 2;
    c.mesh_height *= 2;
    expect_new_key(c, "core_count");
  }
  {
    config::ArchConfig c = base;
    c.core.matrix.xbar_count *= 2;
    expect_new_key(c, "core.matrix.xbar_count");
  }
  {
    config::ArchConfig c = base;
    c.core.matrix.xbar.rows *= 2;
    expect_new_key(c, "core.matrix.xbar.rows");
  }
  {
    config::ArchConfig c = base;
    c.core.matrix.xbar.cols *= 2;
    expect_new_key(c, "core.matrix.xbar.cols");
  }
  {
    config::ArchConfig c = base;
    c.core.local_memory.size_bytes *= 2;
    expect_new_key(c, "core.local_memory.size_bytes");
  }
  {
    config::ArchConfig c = base;
    c.core.register_count *= 2;
    expect_new_key(c, "core.register_count");
  }
  {
    config::ArchConfig c = base;
    c.global_memory.size_bytes *= 2;
    expect_new_key(c, "global_memory.size_bytes");
  }
}

// ----------------------------------------------------------- verify proofs

TEST(VerifyProof, CompiledNetworkUnderAnotherKeyStillVerifies) {
  const workload::BuiltWorkload built =
      workload::build(workload::parse_workload_token("tiny_cnn", 8), /*init_params=*/false);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = false;
  compiler::CompileOptions copts;
  copts.include_weights = false;
  const runtime::CompiledNetwork net = runtime::compile_network(built.graph, cfg, copts);

  config::ArchConfig sim_only = cfg;
  sim_only.core.rob_size *= 2;
  sim_only.noc.hop_latency_cycles += 1;
  EXPECT_TRUE(net.proven_for(cfg));
  EXPECT_TRUE(net.proven_for(sim_only));

  // Another key the program no longer fits: the chip verifies, and the
  // error is the one a raw program gets.
  config::ArchConfig small = cfg;
  small.core.local_memory.size_bytes = 256;
  EXPECT_FALSE(net.proven_for(small));
  const std::vector<std::string> errors = net.program.verify(small);
  ASSERT_FALSE(errors.empty());
  std::string via_network;
  std::string via_program;
  try {
    runtime::simulate_compiled(net, small);
  } catch (const std::invalid_argument& e) {
    via_network = e.what();
  }
  try {
    runtime::simulate_program(net.program, small);
  } catch (const std::invalid_argument& e) {
    via_program = e.what();
  }
  EXPECT_EQ(via_network.rfind("program verification failed:\n  " + errors[0] + "\n", 0), 0u)
      << via_network;
  EXPECT_EQ(via_network, via_program);

  // Another key the program still fits verifies and runs as a raw program.
  config::ArchConfig roomy = cfg;
  roomy.global_memory.size_bytes *= 2;
  EXPECT_FALSE(net.proven_for(roomy));
  EXPECT_EQ(runtime::simulate_compiled(net, roomy).to_json().dump(),
            runtime::simulate_program(net.program, roomy).to_json().dump());

  // A copy has its own program, which the proof does not name.
  const runtime::CompiledNetwork copy = net;
  EXPECT_FALSE(copy.proven_for(cfg));
  EXPECT_EQ(runtime::simulate_compiled(copy, cfg).to_json().dump(),
            runtime::simulate_compiled(net, cfg).to_json().dump());
}

TEST(VerifyProof, CoveringProofMeansTheChipNeverVerifies) {
  const workload::BuiltWorkload built =
      workload::build(workload::parse_workload_token("mlp", 8), /*init_params=*/false);
  const config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program program = compiler::compile(built.graph, cfg);
  std::optional<isa::VerifyProof> proof;
  ASSERT_TRUE(program.verify(cfg, &proof).empty());
  ASSERT_TRUE(proof.has_value());

  // Break the program after it was proven. The proof cannot notice (which
  // is why CompiledNetwork keeps its program const), so a chip that skips
  // verify builds anyway, and one that verifies throws.
  program.cores[0].code.pop_back();  // no HALT
  ASSERT_FALSE(program.verify(cfg).empty());
  config::ArchConfig sim_only = cfg;
  sim_only.core.rob_size = 3;
  sim_only.sim.max_time_ps = 5'000'000;
  EXPECT_NO_THROW(arch::Chip(sim_only, program, nullptr, &*proof));
  EXPECT_THROW(arch::Chip(sim_only, program), std::invalid_argument);
  config::ArchConfig other_key = cfg;
  other_key.core.register_count = 16;
  EXPECT_THROW(arch::Chip(other_key, program, nullptr, &*proof), std::invalid_argument);
  const isa::Program copy = program;
  EXPECT_THROW(arch::Chip(cfg, copy, nullptr, &*proof), std::invalid_argument);

  // A verify that finds violations mints nothing.
  EXPECT_FALSE(program.verify(cfg, &proof).empty());
  EXPECT_FALSE(proof.has_value());
}

// ------------------------------------------------------------ store basics

TEST(Store, GraphsAreCachedAndFailuresAreCachedToo) {
  artifact::Store store;
  const workload::WorkloadSpec spec = workload::WorkloadSpec::builtin("tiny_cnn", 8);
  const artifact::GraphHandle a = store.graph(spec, /*init_params=*/false);
  const artifact::GraphHandle b = store.graph(spec, /*init_params=*/false);
  ASSERT_NE(a.built, nullptr);
  EXPECT_EQ(a.built.get(), b.built.get()) << "second request must share the built graph";
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  // init_params is part of the key: a functional build is a different artifact.
  const artifact::GraphHandle c = store.graph(spec, /*init_params=*/true);
  EXPECT_NE(c.built.get(), a.built.get());

  // A failing build is also built exactly once; every request rethrows.
  const workload::WorkloadSpec bad = workload::WorkloadSpec::builtin("no_such_network", 8);
  EXPECT_THROW(store.graph(bad, false), std::exception);
  EXPECT_THROW(store.graph(bad, false), std::exception);
  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.graph_misses, 3u);  // tiny_cnn x2 keys + functional + bad
  EXPECT_EQ(s.graph_hits, 2u);    // the tiny_cnn repeat + the bad repeat
}

TEST(Store, GraphFilesDedupByContentNotPath) {
  const std::string dir = fresh_dir("content");
  const nn::Graph g = workload::build(workload::WorkloadSpec::builtin("tiny_cnn", 8),
                                      /*init_params=*/true)
                          .graph;
  const std::string path_a = dir + "/a.json";
  const std::string path_b = dir + "/b.json";
  workload::export_graph(g, path_a);
  workload::export_graph(g, path_b);

  artifact::Store store;
  const artifact::GraphHandle a =
      store.graph(workload::WorkloadSpec::graph_file(path_a), true);
  const artifact::GraphHandle b =
      store.graph(workload::WorkloadSpec::graph_file(path_b), true);
  EXPECT_EQ(a.fingerprint, b.fingerprint) << "identical content must share one fingerprint";
  EXPECT_EQ(a.built.get(), b.built.get()) << "identical content must share one built graph";
  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.graph_misses, 1u);
  EXPECT_EQ(s.graph_hits, 1u);
}

// ------------------------------------- compile-once on a sim-knob sweep

TEST(Store, SimKnobSweepCompilesExactlyOnceBitIdentical) {
  const workload::WorkloadSpec spec = workload::WorkloadSpec::builtin("tiny_cnn", 8);
  artifact::Store store;
  const artifact::GraphHandle wl = store.graph(spec, /*init_params=*/false);
  compiler::CompileOptions copts;
  copts.include_weights = false;

  for (const uint32_t rob : {2u, 4u, 8u, 16u}) {
    config::ArchConfig cfg = config::ArchConfig::preset("tiny");
    cfg.core.rob_size = rob;
    cfg.sim.functional = false;
    const auto net = store.program(wl, cfg, copts);
    ASSERT_NE(net, nullptr);
    const runtime::Report cached = runtime::simulate_compiled(*net, cfg);
    const runtime::Report direct = runtime::simulate_network(wl.built->graph, cfg, copts);
    EXPECT_EQ(cached.stats.total_ps, direct.stats.total_ps) << "rob=" << rob;
    EXPECT_EQ(cached.stats.total_instructions(), direct.stats.total_instructions())
        << "rob=" << rob;
  }
  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.program_misses, 1u) << "ROB size is sim-only; one compile must serve all points";
  EXPECT_EQ(s.program_hits, 3u);
}

// --------------------------------------------- zoo x policy oracle

TEST(Store, ZooTimesPolicyOracleBitIdenticalToDirectPath) {
  // Every zoo model under both mapping policies: the store path (resolve,
  // compile via Store, simulate the shared program) must be bit-identical
  // to the pre-refactor direct path — including agreeing on which
  // configurations fail to compile.
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = true;
  artifact::Store store;
  for (const std::string& model : workload::builtin_names()) {
    const workload::WorkloadSpec spec = workload::WorkloadSpec::builtin(model, 8);
    for (const compiler::MappingPolicy policy :
         {compiler::MappingPolicy::PerformanceFirst,
          compiler::MappingPolicy::UtilizationFirst}) {
      compiler::CompileOptions copts;
      copts.policy = policy;
      copts.include_weights = true;

      runtime::Report direct;
      bool direct_ok = true;
      std::string direct_err;
      try {
        const workload::BuiltWorkload wl = workload::build(spec, /*init_params=*/true);
        const nn::Tensor input = nn::random_input(wl.input_shape, /*seed=*/7);
        direct = runtime::simulate_network(wl.graph, cfg, copts, &input);
      } catch (const std::exception& e) {
        direct_ok = false;
        direct_err = e.what();
      }

      runtime::Report cached;
      bool cached_ok = true;
      try {
        const artifact::GraphHandle wl = store.graph(spec, /*init_params=*/true);
        const auto net = store.program(wl, cfg, copts);
        const nn::Tensor input = nn::random_input(wl.built->input_shape, /*seed=*/7);
        cached = runtime::simulate_compiled(*net, cfg, &input);
      } catch (const std::exception& e) {
        cached_ok = false;
        EXPECT_FALSE(direct_ok) << model << ": store path threw (" << e.what()
                                << ") but the direct path succeeded";
      }
      EXPECT_EQ(direct_ok, cached_ok) << model << " " << direct_err;
      if (!direct_ok || !cached_ok) continue;
      EXPECT_EQ(direct.stats.total_ps, cached.stats.total_ps) << model;
      EXPECT_EQ(direct.stats.total_instructions(), cached.stats.total_instructions())
          << model;
      EXPECT_EQ(direct.output, cached.output) << model << ": functional output differs";
    }
  }
}

// --------------------------------------------------- single-flight hammer

TEST(Store, ConcurrentRequestsCompileOncePerKey) {
  const workload::WorkloadSpec spec = workload::WorkloadSpec::builtin("tiny_cnn", 8);
  artifact::Store store;
  const artifact::GraphHandle wl = store.graph(spec, /*init_params=*/false);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = false;

  constexpr unsigned kThreads = 8;
  std::vector<std::shared_ptr<const runtime::CompiledNetwork>> got(kThreads * 2);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Two distinct option keys per thread: batch 1 and batch 2.
      for (uint32_t b : {1u, 2u}) {
        compiler::CompileOptions copts;
        copts.include_weights = false;
        copts.batch = b;
        got[t * 2 + (b - 1)] = store.program(wl, cfg, copts);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (unsigned t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[t * 2].get(), got[0].get()) << "batch=1 must be one shared artifact";
    EXPECT_EQ(got[t * 2 + 1].get(), got[1].get()) << "batch=2 must be one shared artifact";
  }
  EXPECT_NE(got[0].get(), got[1].get());
  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.program_misses, 2u) << "exactly one compile per unique key";
  EXPECT_EQ(s.program_hits, kThreads * 2 - 2);
}

// ------------------------------------------------------------ LRU eviction

TEST(Store, LruEvictionDropsOldestFinishedProgram) {
  artifact::Store::Options opt;
  opt.max_programs = 2;
  artifact::Store store(opt);
  const artifact::GraphHandle wl =
      store.graph(workload::WorkloadSpec::builtin("tiny_cnn", 8), false);
  const config::ArchConfig cfg = config::ArchConfig::preset("tiny");

  const auto program_for_batch = [&](uint32_t b) {
    compiler::CompileOptions copts;
    copts.include_weights = false;
    copts.batch = b;
    return store.program(wl, cfg, copts);
  };
  program_for_batch(1);
  program_for_batch(2);
  program_for_batch(3);  // over the cap: evicts batch=1 (least recently used)
  EXPECT_GE(store.stats().evictions, 1u);
  const size_t misses_before = store.stats().program_misses;
  program_for_batch(1);  // evicted, so it compiles again
  EXPECT_EQ(store.stats().program_misses, misses_before + 1);
  program_for_batch(3);  // still resident (was most recently used)
  EXPECT_EQ(store.stats().program_misses, misses_before + 1);
}

// ----------------------------------------------------- BatchRunner sharing

TEST(BatchRunnerArtifacts, SixteenScenariosFourCompilesBitIdentical) {
  // 16 scenarios over one workload and 4 unique compile keys (policy x
  // batch), hammered by 8 workers against one shared store: the graph is
  // built once, each unique program compiles once, and the results are
  // bit-identical to a serial run with a fresh store.
  std::vector<runtime::Scenario> scenarios;
  for (int rep = 0; rep < 4; ++rep) {
    for (const compiler::MappingPolicy policy :
         {compiler::MappingPolicy::PerformanceFirst,
          compiler::MappingPolicy::UtilizationFirst}) {
      for (const uint32_t batch : {1u, 2u}) {
        runtime::Scenario s;
        s.workload = workload::WorkloadSpec::builtin("tiny_cnn", 8);
        s.arch = config::ArchConfig::preset("tiny");
        s.copts.policy = policy;
        s.copts.batch = batch;
        s.functional = false;
        s.name = s.derive_name() + "#" + std::to_string(rep);
        scenarios.push_back(std::move(s));
      }
    }
  }
  ASSERT_EQ(scenarios.size(), 16u);

  auto store = std::make_shared<artifact::Store>();
  runtime::BatchRunner runner(8);
  runner.set_artifacts(store);
  const runtime::BatchResult parallel = runner.run(scenarios);
  ASSERT_TRUE(parallel.all_ok());
  EXPECT_EQ(parallel.artifacts.graph_misses, 1u);
  EXPECT_EQ(parallel.artifacts.graph_hits, 0u) << "prefetch memo must dedupe workloads";
  EXPECT_EQ(parallel.artifacts.program_misses, 4u);
  EXPECT_EQ(parallel.artifacts.program_hits, 12u);

  const runtime::BatchResult serial = runtime::BatchRunner(1).run(scenarios);
  const std::vector<std::string> diffs = runtime::compare_results(parallel, serial);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
}

TEST(BatchRunnerArtifacts, ParallelPrefetchBitIdenticalOneBuildPerUniqueGraph) {
  // Many *unique* workloads so the prefetch itself fans out (the previous
  // test has one unique graph — its prefetch runs on a single thread). The
  // concurrent prefetch must still build each unique graph exactly once
  // (single-flight store), duplicate scenarios must share the resolve, and
  // results must be bit-identical to the serial-prefetch path (jobs=1).
  std::vector<runtime::Scenario> scenarios;
  const std::vector<int32_t> sizes = {6, 8, 10, 12, 14, 16};
  for (int rep = 0; rep < 2; ++rep) {
    for (const int32_t hw : sizes) {
      runtime::Scenario s;
      s.workload = workload::WorkloadSpec::builtin("tiny_cnn", hw);
      s.arch = config::ArchConfig::preset("tiny");
      s.functional = false;
      s.name = s.derive_name() + "#" + std::to_string(rep);
      scenarios.push_back(std::move(s));
    }
  }

  auto store = std::make_shared<artifact::Store>();
  runtime::BatchRunner runner(8);
  runner.set_artifacts(store);
  const runtime::BatchResult parallel = runner.run(scenarios);
  ASSERT_TRUE(parallel.all_ok());
  EXPECT_EQ(parallel.artifacts.graph_misses, sizes.size())
      << "one graph build per unique workload, even with concurrent prefetch";
  EXPECT_EQ(parallel.artifacts.graph_hits, 0u) << "duplicates share the resolve, not the store";
  EXPECT_EQ(parallel.artifacts.program_misses, sizes.size());

  const runtime::BatchResult serial = runtime::BatchRunner(1).run(scenarios);
  const std::vector<std::string> diffs = runtime::compare_results(parallel, serial);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
}

TEST(BatchRunnerArtifacts, ParallelPrefetchFailureParityWithSerial) {
  // A workload whose resolve fails deterministically (missing graph file)
  // must produce the same per-scenario error through the concurrent prefetch
  // as through the serial one, while healthy scenarios still succeed.
  std::vector<runtime::Scenario> scenarios;
  for (const int32_t hw : {8, 10, 12}) {
    runtime::Scenario s;
    s.workload = workload::WorkloadSpec::builtin("tiny_cnn", hw);
    s.arch = config::ArchConfig::preset("tiny");
    s.name = s.derive_name();
    scenarios.push_back(std::move(s));
  }
  runtime::Scenario bad;
  bad.workload = workload::WorkloadSpec::graph_file(fresh_dir("prefetch_fail") + "/absent.json");
  bad.arch = config::ArchConfig::preset("tiny");
  bad.name = "absent";
  scenarios.push_back(bad);

  const runtime::BatchResult parallel = runtime::BatchRunner(4).run(scenarios);
  const runtime::BatchResult serial = runtime::BatchRunner(1).run(scenarios);
  ASSERT_EQ(parallel.results.size(), 4u);
  EXPECT_TRUE(parallel.results[0].ok);
  EXPECT_FALSE(parallel.results[3].ok);
  EXPECT_EQ(parallel.results[3].fail_kind, runtime::FailKind::Exception);
  ASSERT_EQ(serial.results.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parallel.results[i].ok, serial.results[i].ok) << i;
    EXPECT_EQ(parallel.results[i].error, serial.results[i].error) << i;
  }
}

// ------------------------------------------- evaluator TOCTOU regression

TEST(EvaluatorArtifacts, FileEditedMidBatchCannotPoisonTheResultCache) {
  // Regression for the fingerprint/build TOCTOU: the evaluator keys each
  // point on the workload file's fingerprint, then simulates. Before the
  // artifact layer, the simulation re-read the file — an edit between
  // keying and simulation made the key name content that never ran (and the
  // PR-5 guard could only refuse to cache it). Now the scenario carries the
  // exact parsed graph its key was fingerprinted on, so an edit mid-batch
  // affects nothing: every result reflects the original content and every
  // result is cached.
  const std::string dir = fresh_dir("toctou");
  const std::string wl_path = dir + "/net.json";
  const std::string cache_dir = dir + "/cache";
  const nn::Graph original =
      workload::build(workload::WorkloadSpec::builtin("tiny_cnn", 8), /*init_params=*/true)
          .graph;
  // Structurally different graph (different instruction counts) to swap in.
  const nn::Graph impostor =
      workload::build(workload::WorkloadSpec::mlp(8), /*init_params=*/true).graph;
  workload::export_graph(original, wl_path);

  dse::SearchSpace space;
  space.name = "toctou-space";
  space.base = config::ArchConfig::preset("tiny");
  space.workload = workload::WorkloadSpec::graph_file(wl_path);
  space.functional = true;
  space.knobs.push_back({"rob_size", {json::Value(4), json::Value(8)}});
  const std::vector<dse::Point> points = {
      {{"rob_size", json::Value(4)}}, {{"rob_size", json::Value(8)}}};

  // Reference metrics: a clean evaluator, no cache, file untouched.
  std::vector<dse::EvaluatedPoint> reference;
  {
    dse::EvalOptions one_job;
    one_job.jobs = 1;
    dse::Evaluator clean(space, one_job);
    reference = clean.evaluate(points);
    ASSERT_TRUE(reference[0].ok && reference[1].ok)
        << reference[0].error << " " << reference[1].error;
    ASSERT_NE(reference[0].metrics.total_ps, 0u);
  }

  // Hostile run: rewrite the workload file with a different network as soon
  // as the first point resolves, while the batch is still in flight.
  {
    dse::EvalOptions opts;
    opts.jobs = 1;
    opts.cache_dir = cache_dir;
    dse::Evaluator ev(space, opts);
    bool swapped = false;
    ev.set_progress([&](const dse::EvaluatedPoint&, size_t, size_t) {
      if (!swapped) {
        swapped = true;
        workload::export_graph(impostor, wl_path);
      }
    });
    const std::vector<dse::EvaluatedPoint> hostile = ev.evaluate(points);
    ASSERT_TRUE(swapped);
    ASSERT_EQ(hostile.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(hostile[i].ok) << hostile[i].error;
      EXPECT_EQ(hostile[i].metrics.total_ps, reference[i].metrics.total_ps)
          << "point " << i << " simulated the edited file, not the keyed content";
      EXPECT_EQ(hostile[i].metrics.instructions, reference[i].metrics.instructions);
    }
    EXPECT_EQ(ev.cache_stats().misses, 2u);
    EXPECT_EQ(ev.cache_stats().hits, 0u);
  }

  // Restore the original content: a fresh evaluator must key back onto the
  // same fingerprints and be served fully from the cache — with metrics
  // that match the original content, proving nothing poisoned it.
  workload::export_graph(original, wl_path);
  {
    dse::EvalOptions opts;
    opts.jobs = 1;
    opts.cache_dir = cache_dir;
    dse::Evaluator warm(space, opts);
    const std::vector<dse::EvaluatedPoint> cached = warm.evaluate(points);
    EXPECT_EQ(warm.cache_stats().hits, 2u);
    EXPECT_EQ(warm.cache_stats().misses, 0u);
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(cached[i].ok) << cached[i].error;
      EXPECT_TRUE(cached[i].from_cache);
      EXPECT_EQ(cached[i].metrics.total_ps, reference[i].metrics.total_ps) << "point " << i;
    }
  }
}

}  // namespace
}  // namespace pim
