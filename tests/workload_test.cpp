// pim::workload — spec parsing, the builder registry, graph-file
// round-trips (the equivalence oracle of the whole layer), malformed-graph
// rejection, and the workload-fingerprint cache-key contract.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>

#include "common/transient_error.h"
#include "config/arch_config.h"
#include "dse/cache.h"
#include "dse/evaluator.h"
#include "dse/sampler.h"
#include "dse/search_space.h"
#include "nn/models.h"
#include "runtime/batch_runner.h"
#include "workload/workload.h"

namespace pim::workload {
namespace {

/// Evaluator options: `jobs` workers, a result cache in `cache_dir` (empty =
/// none), everything else at its default.
dse::EvalOptions eval_options(unsigned jobs, std::string cache_dir = {}) {
  dse::EvalOptions opts;
  opts.jobs = jobs;
  opts.cache_dir = std::move(cache_dir);
  return opts;
}

std::string temp_path(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pim_workload";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  ASSERT_TRUE(f.good()) << path;
}

// ----------------------------------------------------------------- parsing

TEST(WorkloadSpecTest, TokenParsing) {
  const WorkloadSpec zoo = parse_workload_token("alexnet", 16);
  EXPECT_EQ(zoo.kind, Kind::Builtin);
  EXPECT_EQ(zoo.name, "alexnet");
  EXPECT_EQ(zoo.input_hw, 16);
  EXPECT_EQ(zoo.label(), "alexnet");

  const WorkloadSpec mlp = parse_workload_token("mlp", 8);
  EXPECT_EQ(mlp.kind, Kind::Mlp);
  EXPECT_EQ(mlp.label(), "mlp");
  EXPECT_EQ(mlp.input_hw, 8);

  const WorkloadSpec file = parse_workload_token("nets/res_block.json", 32, "/base");
  EXPECT_EQ(file.kind, Kind::GraphFile);
  EXPECT_EQ(file.path, "/base/nets/res_block.json");
  EXPECT_EQ(file.label(), "res_block");  // basename without extension
  // Absolute paths ignore base_dir.
  EXPECT_EQ(parse_workload_token("/abs/net.json", 32, "/base").path, "/abs/net.json");

  EXPECT_THROW(parse_workload_token("warp_net", 32), std::invalid_argument);
}

TEST(WorkloadSpecTest, JsonRoundTripAllKinds) {
  WorkloadSpec zoo = WorkloadSpec::builtin("resnet18", 16);
  zoo.weight_seed = 9;
  zoo.num_classes = 100;
  WorkloadSpec mlp = WorkloadSpec::mlp(8, {48, 24}, 12);
  WorkloadSpec file = WorkloadSpec::graph_file("/tmp/net.json");
  for (const WorkloadSpec& spec : {zoo, mlp, file}) {
    const WorkloadSpec back = WorkloadSpec::from_json(spec.to_json());
    EXPECT_EQ(back, spec) << spec.to_json().dump();
  }
}

TEST(WorkloadSpecTest, JsonObjectDefaultsAndInference) {
  WorkloadSpec defaults;
  defaults.input_hw = 8;
  // "kind" may be inferred from the distinguishing field.
  const WorkloadSpec file =
      WorkloadSpec::from_json(json::parse(R"({"path": "n.json"})"), "/d", defaults);
  EXPECT_EQ(file.kind, Kind::GraphFile);
  EXPECT_EQ(file.path, "/d/n.json");
  const WorkloadSpec mlp =
      WorkloadSpec::from_json(json::parse(R"({"hidden": [16]})"), "", defaults);
  EXPECT_EQ(mlp.kind, Kind::Mlp);
  EXPECT_EQ(mlp.mlp_hidden, (std::vector<int32_t>{16}));
  EXPECT_EQ(mlp.input_hw, 8);  // threaded through the defaults

  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"kind": "hologram"})")),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"name": "warp_net"})")),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"kind": "graph_file"})")),
               std::invalid_argument);  // no path
  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"name": "alexnet", "input_hw": 0})")),
               std::invalid_argument);
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, SubsumesTheModelZoo) {
  const std::vector<std::string> names = builtin_names();
  for (const std::string& zoo : nn::model_names()) {
    EXPECT_TRUE(Registry::instance().contains(zoo)) << zoo;
    EXPECT_NE(std::find(names.begin(), names.end(), zoo), names.end()) << zoo;
  }
  EXPECT_FALSE(Registry::instance().contains("lenet5000"));
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  mopt.init_params = false;
  EXPECT_THROW(Registry::instance().build("lenet5000", mopt), std::invalid_argument);
  // Registration guards: duplicates and reserved names are rejected.
  EXPECT_THROW(Registry::instance().add("tiny_cnn", nullptr), std::invalid_argument);
  EXPECT_THROW(Registry::instance().add("mlp", nullptr), std::invalid_argument);
  EXPECT_THROW(Registry::instance().add("net.json", nullptr), std::invalid_argument);
}

TEST(RegistryTest, ClientBuildersBecomeFirstClassWorkloads) {
  if (!Registry::instance().contains("test_linear")) {
    Registry::instance().add("test_linear", [](const nn::ModelOptions& opt) {
      nn::Graph g("test_linear");
      const int32_t in = g.add_input({opt.input_channels, opt.input_hw, opt.input_hw});
      const int32_t flat = g.add_flatten(in);
      g.add_fc(flat, opt.num_classes);
      g.infer_shapes();
      if (opt.init_params) g.init_parameters(opt.weight_seed);
      return g;
    });
  }
  // The registered name parses like any zoo name and builds.
  const WorkloadSpec spec = parse_workload_token("test_linear", 4);
  const BuiltWorkload wl = build(spec, /*init_params=*/false);
  EXPECT_EQ(wl.graph.name(), "test_linear");
  EXPECT_EQ(wl.input_shape, (nn::Shape{3, 4, 4}));
}

// ------------------------------------------------- round-trip (the oracle)

TEST(RoundTripTest, EveryZooModelTopologySurvivesExportReload) {
  // Topology-only export at the canonical 32x32 resolution: reloading must
  // reproduce the graph fingerprint bit-for-bit for every zoo network.
  for (const std::string& name : nn::model_names()) {
    nn::ModelOptions mopt;
    mopt.input_hw = 32;
    mopt.init_params = false;
    const nn::Graph g = nn::build_model(name, mopt);
    const std::string path = temp_path("zoo_" + name + ".json");
    export_graph(g, path, /*include_params=*/false);
    const nn::Graph back = load_graph(path);
    EXPECT_EQ(graph_fingerprint(back), graph_fingerprint(g)) << name;
    EXPECT_EQ(back.to_json(true).dump(), g.to_json(true).dump()) << name;
  }
}

TEST(RoundTripTest, ParameterizedExportIsBitIdentical) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  const nn::Graph g = nn::build_model("tiny_cnn", mopt);  // init_params on
  const std::string path = temp_path("tiny_params.json");
  export_graph(g, path, /*include_params=*/true);
  const nn::Graph back = load_graph(path);
  EXPECT_EQ(graph_fingerprint(back), graph_fingerprint(g));
  ASSERT_EQ(back.size(), g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.layers()[i].weights, g.layers()[i].weights);
    EXPECT_EQ(back.layers()[i].bias, g.layers()[i].bias);
    EXPECT_EQ(back.layers()[i].out_shift, g.layers()[i].out_shift);
  }
}

/// The acceptance oracle: a zoo model exported to a file and reloaded as a
/// GraphFile workload must produce a bit-identical Report to the builtin.
void expect_exported_matches_builtin(const std::string& name, int32_t hw, bool functional,
                                     const config::ArchConfig& arch) {
  const WorkloadSpec builtin = WorkloadSpec::builtin(name, hw);
  const BuiltWorkload built = build(builtin, /*init_params=*/functional);
  const std::string path = temp_path("report_" + name + ".json");
  export_graph(built.graph, path, /*include_params=*/functional);
  WorkloadSpec from_file = WorkloadSpec::graph_file(path);
  from_file.name = name;  // same label -> same derived scenario names

  const std::vector<runtime::Scenario> a = runtime::expand_sweep(
      {builtin}, {compiler::MappingPolicy::PerformanceFirst}, {1}, arch, functional);
  const std::vector<runtime::Scenario> b = runtime::expand_sweep(
      {from_file}, {compiler::MappingPolicy::PerformanceFirst}, {1}, arch, functional);
  const runtime::BatchResult ra = runtime::BatchRunner(1).run(a);
  const runtime::BatchResult rb = runtime::BatchRunner(1).run(b);
  ASSERT_TRUE(ra.all_ok()) << name << ": " << ra.results[0].error;
  ASSERT_TRUE(rb.all_ok()) << name << ": " << rb.results[0].error;
  const std::vector<std::string> diffs = runtime::compare_results(ra, rb);
  EXPECT_TRUE(diffs.empty()) << name << ": " << diffs.front();
}

TEST(RoundTripTest, ExportedZooModelsReproduceBuiltinReports) {
  // Timing-only runs on the paper's 64-core chip (the zoo does not fit the
  // 4-core tiny config): the Report — latency, energy, instruction stream —
  // must be bit-identical between the builtin and its exported file, for
  // every zoo network at a resolution its stem supports (the VGG stacks
  // pool five times, so they need 32x32).
  const config::ArchConfig paper = config::ArchConfig::preset("paper");
  for (const auto& [name, hw] : std::initializer_list<std::pair<const char*, int32_t>>{
           {"tiny_cnn", 8}, {"alexnet", 8}, {"squeezenet", 8}, {"resnet18", 8},
           {"googlenet", 8}, {"vgg8", 32}, {"vgg16", 32}}) {
    expect_exported_matches_builtin(name, hw, /*functional=*/false, paper);
  }
}

TEST(RoundTripTest, FunctionalReportsMatchIncludingOutputs) {
  // With parameters in the file, the functional output must match too.
  expect_exported_matches_builtin("tiny_cnn", 8, /*functional=*/true,
                                  config::ArchConfig::preset("tiny"));
}

TEST(RoundTripTest, GraphFileOnlyNetworkRunsEndToEnd) {
  // A network that exists *only* as a description file — no builder, no
  // recompile — runs through the batch runner, deterministically.
  const std::string path = temp_path("filenet.json");
  write_text_file(path, R"({
    "name": "filenet",
    "layers": [
      {"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "inputs": [0], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1},
      {"type": "relu", "inputs": [1]},
      {"type": "global_avgpool", "inputs": [2]},
      {"type": "fc", "inputs": [3], "out_channels": 10}
    ]
  })");
  std::vector<runtime::Scenario> sweep = runtime::expand_sweep(
      {WorkloadSpec::graph_file(path)},
      {compiler::MappingPolicy::PerformanceFirst, compiler::MappingPolicy::UtilizationFirst},
      {1, 2}, config::ArchConfig::preset("tiny"), /*functional=*/true);
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0].name, "filenet/perf/b1");

  // Two different files sharing a basename must still get unique names.
  const std::string twin_dir = temp_path("twin");
  std::filesystem::create_directories(twin_dir);
  const std::string twin = twin_dir + "/filenet.json";
  std::filesystem::copy_file(path, twin, std::filesystem::copy_options::overwrite_existing);
  const std::vector<runtime::Scenario> twins = runtime::expand_sweep(
      {WorkloadSpec::graph_file(path), WorkloadSpec::graph_file(twin)},
      {compiler::MappingPolicy::PerformanceFirst}, {1}, config::ArchConfig::preset("tiny"), false);
  ASSERT_EQ(twins.size(), 2u);
  EXPECT_EQ(twins[0].name, "filenet/perf/b1");
  EXPECT_EQ(twins[1].name, "filenet/perf/b1#2");
  const runtime::BatchResult parallel = runtime::BatchRunner(2).run(sweep);
  const runtime::BatchResult serial = runtime::BatchRunner(1).run(sweep);
  ASSERT_TRUE(parallel.all_ok()) << parallel.results[0].error;
  const std::vector<std::string> diffs = runtime::compare_results(parallel, serial);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  EXPECT_FALSE(parallel.results[0].report.output.empty());
}

// ------------------------------------------------------ malformed rejection

TEST(LoaderTest, RejectsMalformedGraphs) {
  const auto parse = [](const char* text) { return graph_from_json(json::parse(text)); };
  // Structurally not a graph.
  EXPECT_THROW(parse(R"({"name": "x"})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": []})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [7]})"), std::invalid_argument);
  // Unknown op.
  EXPECT_THROW(parse(R"({"layers": [{"type": "warp"}]})"), std::invalid_argument);
  // Input layers: missing/malformed shape, or taking inputs.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input"}]})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8]}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 0, 8]}]})"),
               std::invalid_argument);
  // Non-input layer without inputs; wrong arity; unknown producer id.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "relu"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "add", "inputs": [0]}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "relu", "inputs": [5]}]})"),
               std::invalid_argument);
  // Forward reference (cycles are impossible to express, and rejected).
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "relu", "inputs": [2]},
                                    {"type": "relu", "inputs": [1]}]})"),
               std::invalid_argument);
  // An "id" disagreeing with the layer's position would silently rewire.
  EXPECT_THROW(parse(R"({"layers": [{"id": 3, "type": "input", "shape": [3, 8, 8]}]})"),
               std::invalid_argument);
  // Conv/fc geometry.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "conv", "inputs": [0], "kernel": 3}]})"),
               std::invalid_argument);  // no out_channels
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "conv", "inputs": [0], "out_channels": 8}]})"),
               std::invalid_argument);  // no kernel
  // Window larger than the input (shape inference).
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 4, 4]},
                                    {"type": "maxpool", "inputs": [0], "kernel": 8,
                                     "stride": 8}]})"),
               std::invalid_argument);
  // stride = 0 used to SIGFPE inside shape inference; negative pad is nonsense.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "conv", "inputs": [0], "out_channels": 4,
                                     "kernel": 3, "stride": 0}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "maxpool", "inputs": [0], "kernel": 2,
                                     "stride": 2, "pad": -1}]})"),
               std::invalid_argument);
  // Parameter arrays must agree with the geometry and come in pairs.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
                                    {"type": "fc", "inputs": [0], "out_channels": 2,
                                     "weights": [1, 2, 3], "bias": [0, 0]}]})"),
               std::invalid_argument);  // 3 weights, geometry needs 4
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
                                    {"type": "fc", "inputs": [0], "out_channels": 2,
                                     "weights": [1, 2, 3, 4]}]})"),
               std::invalid_argument);  // weights without bias
  // Half-parameterized graphs cannot run functionally or be re-seeded.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
                                    {"type": "fc", "inputs": [0], "out_channels": 2,
                                     "weights": [1, 2, 3, 4], "bias": [0, 0]},
                                    {"type": "fc", "inputs": [1], "out_channels": 2}]})"),
               std::invalid_argument);

  // A good description still parses (sanity check on the battery above).
  const nn::Graph ok = parse(R"({"layers": [
    {"type": "input", "shape": [2, 1, 1]},
    {"type": "fc", "inputs": [0], "out_channels": 2,
     "weights": [1, 2, 3, 4], "bias": [0, 0], "out_shift": 2}
  ]})");
  EXPECT_EQ(ok.size(), 2u);

  // load_graph prefixes the path on file-level failures. A missing file is
  // retryable, so it keeps the typed error with its errno.
  try {
    load_graph("/nonexistent/net.json");
    ADD_FAILURE() << "loaded a missing file";
  } catch (const TransientError& e) {
    EXPECT_EQ(e.error_code(), ENOENT);
    EXPECT_NE(std::string(e.what()).find("/nonexistent/net.json"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------- fingerprint / cache

TEST(FingerprintTest, TracksEverySpecParameter) {
  const WorkloadSpec base = WorkloadSpec::builtin("tiny_cnn", 8);
  WorkloadSpec seed = base;
  seed.weight_seed = 2;
  WorkloadSpec hw = base;
  hw.input_hw = 16;
  WorkloadSpec classes = base;
  classes.num_classes = 100;
  EXPECT_NE(base.fingerprint(), seed.fingerprint());
  EXPECT_NE(base.fingerprint(), hw.fingerprint());
  EXPECT_NE(base.fingerprint(), classes.fingerprint());
  EXPECT_NE(base.fingerprint(), WorkloadSpec::builtin("alexnet", 8).fingerprint());
  EXPECT_NE(base.fingerprint(), WorkloadSpec::mlp(8).fingerprint());
  // Deterministic across calls.
  EXPECT_EQ(base.fingerprint(), WorkloadSpec::builtin("tiny_cnn", 8).fingerprint());
}

TEST(FingerprintTest, WeightSeedOnlyCountsWhenItCanMatter) {
  // A parameter-bearing file ignores the spec's weight_seed at build time,
  // so two seeds over it are the *same* simulation and must share one
  // fingerprint; a topology-only file re-seeds, so there the seed counts.
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  const nn::Graph g = nn::build_model("tiny_cnn", mopt);  // params included
  const std::string with_params = temp_path("fp_with_params.json");
  const std::string topo_only = temp_path("fp_topo_only.json");
  export_graph(g, with_params, /*include_params=*/true);
  export_graph(g, topo_only, /*include_params=*/false);

  WorkloadSpec a = WorkloadSpec::graph_file(with_params);
  WorkloadSpec b = a;
  b.weight_seed = 2;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  WorkloadSpec c = WorkloadSpec::graph_file(topo_only);
  WorkloadSpec d = c;
  d.weight_seed = 2;
  EXPECT_NE(c.fingerprint(), d.fingerprint());
}

TEST(FingerprintTest, CacheKeyChangesOnFileEditNeverOnMoveOrReformat) {
  // The ISSUE-level contract: editing a graph file changes the dse cache
  // key (a guaranteed miss); moving or reformatting the file does not
  // (gratuitous misses are cheap, stale hits are not — but a no-op rewrite
  // should still hit).
  const std::string path = temp_path("cachekey.json");
  const char* original = R"({
    "name": "ck",
    "layers": [
      {"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "inputs": [0], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1}
    ]
  })";
  write_text_file(path, original);

  runtime::Scenario sc;
  sc.workload = WorkloadSpec::graph_file(path);
  sc.arch = config::ArchConfig::preset("tiny");
  const std::string key_original = dse::scenario_key(sc);

  // Semantic edit: different channel count -> different key.
  write_text_file(path, R"({
    "name": "ck",
    "layers": [
      {"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "inputs": [0], "out_channels": 16, "kernel": 3, "stride": 1, "pad": 1}
    ]
  })");
  const std::string key_edited = dse::scenario_key(sc);
  EXPECT_NE(key_edited, key_original);

  // Reformat-only rewrite (same content, different whitespace) -> same key.
  write_text_file(path,
                  R"({"name":"ck","layers":[{"type":"input","shape":[3,8,8]},)"
                  R"({"type":"conv","inputs":[0],"out_channels":8,"kernel":3,)"
                  R"("stride":1,"pad":1}]})");
  EXPECT_EQ(dse::scenario_key(sc), key_original);

  // Moving the file keeps the key: the content is the identity, not the path.
  const std::string moved = temp_path("cachekey_moved.json");
  std::filesystem::copy_file(path, moved,
                             std::filesystem::copy_options::overwrite_existing);
  runtime::Scenario sc_moved = sc;
  sc_moved.workload = WorkloadSpec::graph_file(moved);
  EXPECT_EQ(dse::scenario_key(sc_moved), key_original);
}

TEST(FingerprintTest, DseCacheInvalidatesOnFileEdit) {
  // End to end through the evaluator: evaluate, edit the workload file,
  // re-evaluate — the edited run must miss (fresh simulation), and editing
  // back must hit the original entries again.
  const std::string path = temp_path("dse_edit.json");
  const char* small_net = R"({
    "name": "editnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 8}
    ]
  })";
  const char* edited_net = R"({
    "name": "editnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 16}
    ]
  })";
  write_text_file(path, small_net);

  const std::string cache_dir = temp_path("dse_edit_cache");
  std::filesystem::remove_all(cache_dir);
  const json::Value space_json = json::parse(R"({
    "name": "edit-space",
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"rob_size": [4, 8]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  ASSERT_EQ(space.workload.kind, Kind::GraphFile);
  const std::vector<dse::Point> pts = dse::make_sampler("grid", space)->propose(SIZE_MAX, {});
  ASSERT_EQ(pts.size(), 2u);

  dse::Evaluator cold(space, eval_options(1, cache_dir));
  cold.evaluate(pts);
  EXPECT_EQ(cold.cache_stats().misses, 2u);

  write_text_file(path, edited_net);
  dse::Evaluator after_edit(space, eval_options(1, cache_dir));
  after_edit.evaluate(pts);
  EXPECT_EQ(after_edit.cache_stats().hits, 0u) << "stale hit against an edited workload file";
  EXPECT_EQ(after_edit.cache_stats().misses, 2u);

  write_text_file(path, small_net);
  dse::Evaluator back(space, eval_options(1, cache_dir));
  back.evaluate(pts);
  EXPECT_EQ(back.cache_stats().hits, 2u);
  EXPECT_EQ(back.cache_stats().misses, 0u);
}

TEST(FingerprintTest, EquivalentPointsSimulateOnceWithinABatch) {
  // An input_hw sweep over a graph-file workload cannot change the
  // simulation (the file fixes its own resolution), so the three points
  // share one cache key: one simulation, two in-batch aliases reported as
  // hits, and identical metrics on all three.
  const std::string path = temp_path("dedup.json");
  write_text_file(path, R"({
    "name": "dedupnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 6}
    ]
  })");
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"input_hw": [8, 16, 32]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  dse::Evaluator ev(space, eval_options(1));
  const std::vector<dse::EvaluatedPoint> res =
      ev.evaluate(dse::make_sampler("grid", space)->propose(SIZE_MAX, {}));
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(ev.cache_stats().misses, 1u);
  EXPECT_EQ(ev.cache_stats().hits, 2u);
  for (const dse::EvaluatedPoint& p : res) {
    ASSERT_TRUE(p.feasible && p.ok) << p.error;
    EXPECT_EQ(p.metrics.to_json().dump(), res[0].metrics.to_json().dump());
  }
}

TEST(FingerprintTest, FileEditedMidRunIsNotCachedUnderTheStaleKey) {
  // Keys are computed up front, simulations run after — a file edited in
  // that window must never poison the cache. The evaluator resolves the
  // graph once while keying and pins it on the scenario, so every point
  // simulates exactly the content its key names: the edit cannot leak into
  // the batch at all, and both stored entries stay valid for the original
  // content.
  const std::string path = temp_path("midrun.json");
  const std::string net_a = R"({
    "name": "midrun",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 8}
    ]
  })";
  const std::string net_b = R"({
    "name": "midrun",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 16}
    ]
  })";
  write_text_file(path, net_a);
  const std::string cache_dir = temp_path("midrun_cache");
  std::filesystem::remove_all(cache_dir);

  const dse::SearchSpace space = dse::SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"rob_size": [4, 8]}
  })"));
  const std::vector<dse::Point> pts = dse::make_sampler("grid", space)->propose(SIZE_MAX, {});
  ASSERT_EQ(pts.size(), 2u);

  // Uncached reference on the original content.
  dse::Evaluator ref(space, eval_options(1));
  const std::vector<dse::EvaluatedPoint> want = ref.evaluate(pts);
  ASSERT_EQ(want.size(), 2u);

  // jobs=1 serializes the two simulations; the file is swapped after the
  // first result lands, while the second point's key (built on net_a) is
  // still pending.
  dse::Evaluator ev(space, eval_options(1, cache_dir));
  ev.set_progress([&](const dse::EvaluatedPoint&, size_t done, size_t) {
    if (done == 1) write_text_file(path, net_b);
  });
  const std::vector<dse::EvaluatedPoint> hostile = ev.evaluate(pts);
  EXPECT_EQ(ev.cache_stats().misses, 2u);
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(hostile[i].metrics.to_json().dump(), want[i].metrics.to_json().dump())
        << "point " << i << " simulated the edited content";
  }

  // Back on the original content, both entries are valid and hit.
  write_text_file(path, net_a);
  dse::Evaluator after(space, eval_options(1, cache_dir));
  const std::vector<dse::EvaluatedPoint> res = after.evaluate(pts);
  EXPECT_EQ(after.cache_stats().hits, 2u);
  EXPECT_EQ(after.cache_stats().misses, 0u);
  for (size_t i = 0; i < res.size(); ++i) {
    ASSERT_TRUE(res[i].feasible && res[i].ok) << res[i].error;
    EXPECT_EQ(res[i].metrics.to_json().dump(), want[i].metrics.to_json().dump());
  }
}

TEST(FingerprintTest, VanishedFileDegradesToInfeasiblePoint) {
  const std::string path = temp_path("vanishing.json");
  write_text_file(path, R"({
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 4}
    ]
  })");
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"rob_size": [4]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  std::filesystem::remove(path);  // gone between load and evaluate
  dse::Evaluator ev(space, eval_options(1));
  const std::vector<dse::EvaluatedPoint> res =
      ev.evaluate(dse::make_sampler("grid", space)->propose(SIZE_MAX, {}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_FALSE(res[0].feasible);
  EXPECT_NE(res[0].error.find("vanishing.json"), std::string::npos) << res[0].error;
}

// --------------------------------------------------------- dse integration

TEST(DseWorkloadTest, ModelKnobRangesOverGraphFiles) {
  const std::string path = temp_path("knobnet.json");
  write_text_file(path, R"({
    "name": "knobnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 6}
    ]
  })");
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "model": "mlp",
    "input_hw": 4,
    "knobs": {
      "model": ["mlp", ")" + path + R"("],
      "weight_seed": [1, 2],
      "rob_size": [4]
    }
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  const std::vector<dse::Point> pts = dse::make_sampler("grid", space)->propose(SIZE_MAX, {});
  ASSERT_EQ(pts.size(), 4u);
  size_t files = 0, mlps = 0;
  for (const dse::Point& p : pts) {
    const dse::MaterializedPoint m = dse::materialize(space, p);
    ASSERT_TRUE(m.feasible) << m.error;
    if (m.scenario.workload.kind == Kind::GraphFile) {
      ++files;
      EXPECT_EQ(m.scenario.workload.path, path);
      EXPECT_EQ(m.scenario.workload.label(), "knobnet");
    } else {
      ++mlps;
      EXPECT_EQ(m.scenario.workload.kind, Kind::Mlp);
      EXPECT_EQ(m.scenario.workload.input_hw, 4);
    }
    // The weight_seed knob lands on the workload regardless of kind.
    EXPECT_EQ(m.scenario.workload.weight_seed,
              static_cast<uint64_t>(p.at("weight_seed").as_int()));
  }
  EXPECT_EQ(files, 2u);
  EXPECT_EQ(mlps, 2u);

  // A space whose "model" knob names a broken file fails at load time.
  const std::string broken = temp_path("broken.json");
  write_text_file(broken, R"({"layers": [{"type": "warp"}]})");
  const json::Value bad = json::parse(R"({
    "base": "tiny",
    "knobs": {"model": [")" + broken + R"("]}
  })");
  EXPECT_THROW(dse::SearchSpace::from_json(bad), std::invalid_argument);
}

TEST(DseWorkloadTest, ModelKnobPreservesCustomMlpHidden) {
  // Regression: the "model" knob swap must keep the space's custom mlp
  // stack, not silently reset it to the default {64, 32}.
  const dse::SearchSpace space = dse::SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "workload": {"kind": "mlp", "hidden": [128], "input_hw": 4},
    "knobs": {"model": ["mlp", "tiny_cnn"], "rob_size": [4]}
  })"));
  const dse::MaterializedPoint m = dse::materialize(
      space, dse::Point{{"model", json::Value("mlp")}, {"rob_size", json::Value(4)}});
  ASSERT_TRUE(m.feasible) << m.error;
  EXPECT_EQ(m.scenario.workload.kind, Kind::Mlp);
  EXPECT_EQ(m.scenario.workload.mlp_hidden, (std::vector<int32_t>{128}));
}

TEST(DseWorkloadTest, SpaceLevelWorkloadObjectParses) {
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "workload": {"kind": "mlp", "hidden": [16, 8], "input_hw": 4},
    "knobs": {"rob_size": [4, 8]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  EXPECT_EQ(space.workload.kind, Kind::Mlp);
  EXPECT_EQ(space.workload.mlp_hidden, (std::vector<int32_t>{16, 8}));
  EXPECT_EQ(space.workload.input_hw, 4);
  // "workload" and legacy "model" are mutually exclusive.
  EXPECT_THROW(dse::SearchSpace::from_json(json::parse(R"({
    "base": "tiny", "model": "mlp", "workload": "mlp", "knobs": {"rob_size": [4]}
  })")),
               std::invalid_argument);
}

}  // namespace
}  // namespace pim::workload
