// Integration tests: the whole pipeline — model -> compiler -> cycle-accurate
// functional simulation — checked bit-exactly against the host reference
// executor, across mapping policies, fusion settings, ROB sizes and network
// topologies (chains, residual adds, concats, global pooling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"

namespace pim {
namespace {

using compiler::CompileOptions;
using compiler::MappingPolicy;

/// Simulate `net` functionally and require the output to equal the host
/// reference executor bit-for-bit. Returns the report for extra checks.
runtime::Report check_bit_exact(const nn::Graph& net, const config::ArchConfig& cfg,
                                const CompileOptions& copts, uint64_t input_seed = 7) {
  const nn::Layer& in_layer = net.layer(net.inputs().at(0));
  nn::Tensor input = nn::random_input(in_layer.out_shape, input_seed);
  runtime::Report rep = runtime::simulate_network(net, cfg, copts, &input);
  EXPECT_TRUE(rep.finished) << rep.summary();
  nn::Tensor golden = nn::execute_reference_output(net, input);
  EXPECT_EQ(rep.output.size(), golden.data.size());
  EXPECT_EQ(rep.output, golden.data) << "simulated inference diverged from reference";
  return rep;
}

config::ArchConfig tiny_cfg() {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = true;
  return cfg;
}

// ------------------------------------------------- policy x fusion sweep

struct PipelineCase {
  MappingPolicy policy;
  bool fuse;
  uint32_t rob;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineSweep, TinyCnnBitExact) {
  const auto& [policy, fuse, rob] = GetParam();
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = rob;
  CompileOptions copts;
  copts.policy = policy;
  copts.fuse_relu = fuse;
  check_bit_exact(net, cfg, copts);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyFusionRob, PipelineSweep,
    ::testing::Values(PipelineCase{MappingPolicy::PerformanceFirst, true, 8},
                      PipelineCase{MappingPolicy::PerformanceFirst, false, 8},
                      PipelineCase{MappingPolicy::UtilizationFirst, true, 8},
                      PipelineCase{MappingPolicy::UtilizationFirst, false, 8},
                      PipelineCase{MappingPolicy::PerformanceFirst, true, 1},
                      PipelineCase{MappingPolicy::UtilizationFirst, true, 1},
                      PipelineCase{MappingPolicy::PerformanceFirst, true, 32}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      return std::string(info.param.policy == MappingPolicy::PerformanceFirst ? "perf"
                                                                              : "util") +
             (info.param.fuse ? "_fused" : "_unfused") + "_rob" +
             std::to_string(info.param.rob);
    });

// --------------------------------------------------------- topology shapes

TEST(Pipeline, MlpBitExact) {
  nn::Graph net = nn::build_mlp(24, {48, 32}, 10);
  check_bit_exact(net, tiny_cfg(), {});
}

TEST(Pipeline, ResidualBlockBitExact) {
  nn::Graph g;
  int32_t x = g.add_input({4, 6, 6});
  int32_t c1 = g.add_conv(x, 8, 3, 1, 1, "c1");
  int32_t r1 = g.add_relu(c1, "r1");
  int32_t c2 = g.add_conv(r1, 8, 3, 1, 1, "c2");
  int32_t skip = g.add_conv(x, 8, 1, 1, 0, "skip");
  int32_t sum = g.add_add(c2, skip, "sum");
  g.add_relu(sum, "out");
  g.infer_shapes();
  g.init_parameters(3);
  check_bit_exact(g, tiny_cfg(), {});
}

TEST(Pipeline, StridedResidualDownsampleBitExact) {
  nn::Graph g;
  int32_t x = g.add_input({4, 8, 8});
  int32_t c1 = g.add_conv(x, 8, 3, 2, 1, "c1");
  int32_t r1 = g.add_relu(c1, "r1");
  int32_t c2 = g.add_conv(r1, 8, 3, 1, 1, "c2");
  int32_t skip = g.add_conv(x, 8, 1, 2, 0, "skip");
  g.add_add(c2, skip, "sum");
  g.infer_shapes();
  g.init_parameters(9);
  check_bit_exact(g, tiny_cfg(), {});
}

TEST(Pipeline, InceptionStyleConcatBitExact) {
  nn::Graph g;
  int32_t x = g.add_input({4, 6, 6});
  int32_t b1 = g.add_conv(x, 4, 1, 1, 0, "b1");
  int32_t b2 = g.add_conv(x, 4, 3, 1, 1, "b2");
  int32_t b3 = g.add_maxpool(x, 3, 1, 1, "b3pool");
  b3 = g.add_conv(b3, 4, 1, 1, 0, "b3");
  int32_t cat = g.add_concat({b1, b2, b3}, "cat");
  g.add_conv(cat, 6, 1, 1, 0, "post");
  g.infer_shapes();
  g.init_parameters(4);
  check_bit_exact(g, tiny_cfg(), {});
}

TEST(Pipeline, AvgAndGlobalPoolBitExact) {
  nn::Graph g;
  int32_t x = g.add_input({4, 8, 8});
  int32_t c = g.add_conv(x, 6, 3, 1, 1, "c");
  int32_t a = g.add_avgpool(c, 2, 2, 0, "avg");
  int32_t gp = g.add_global_avgpool(a, "gap");
  g.add_fc(gp, 5, "fc");
  g.infer_shapes();
  g.init_parameters(8);
  check_bit_exact(g, tiny_cfg(), {});
}

TEST(Pipeline, PaddedStridedConvBitExact) {
  nn::Graph g;
  int32_t x = g.add_input({3, 9, 9});
  int32_t c = g.add_conv(x, 5, 5, 2, 2, "c");  // 5x5 stride 2 pad 2
  g.add_relu(c, "r");
  g.infer_shapes();
  g.init_parameters(6);
  check_bit_exact(g, tiny_cfg(), {});
}

TEST(Pipeline, MultiStripeFcBitExact) {
  // in features > xbar rows -> multiple stripes, partial-sum aggregation.
  nn::Graph net = nn::build_mlp(100, {64}, 40);  // 100 > 32 rows (tiny cfg)
  check_bit_exact(net, tiny_cfg(), {});
}

TEST(Pipeline, MultiColumnBlockFcBitExact) {
  // out features > xbar cols -> multiple column blocks per stripe.
  nn::Graph net = nn::build_mlp(20, {}, 100);  // 100 > 32 cols
  check_bit_exact(net, tiny_cfg(), {});
}

TEST(Pipeline, DifferentInputSeedsStayBitExact) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  for (uint64_t seed : {1ull, 99ull, 123456ull}) {
    check_bit_exact(net, tiny_cfg(), {}, seed);
  }
}

// ------------------------------------------------------ live activations
//
// The zoo's default requantization shift zeroes every activation after the
// first block, so a bit-exact check on it compares zeros with zeros. This
// shift keeps every layer's activations non-zero.

void set_live_shift(nn::Graph& g) {
  for (nn::Layer& l : g.layers()) {
    if (l.type != nn::OpType::Conv && l.type != nn::OpType::FullyConnected) continue;
    const double rows = static_cast<double>(l.weight_rows());
    l.out_shift = static_cast<int32_t>(std::ceil(std::log2(rows) / 2)) + 1;
  }
}

/// check_bit_exact on `net` with the live shift, and an output that is not
/// all zeros.
void check_live(nn::Graph net, const config::ArchConfig& cfg, const CompileOptions& copts) {
  set_live_shift(net);
  const runtime::Report rep = check_bit_exact(net, cfg, copts);
  EXPECT_NE(std::count(rep.output.begin(), rep.output.end(), 0),
            static_cast<std::ptrdiff_t>(rep.output.size()))
      << "all-zero output: the check compares nothing";
}

TEST(Pipeline, FcBehindAFlattenWaitsForTheWholeMap) {
  // The FC reads all four input rows; it must not issue its MVM before the
  // last row's GLOAD lands, though the flatten's own shape is 1x1.
  nn::Graph g;
  int32_t x = g.add_input({3, 4, 4});
  int32_t f = g.add_flatten(x, "flat");
  g.add_fc(f, 10, "fc");
  g.infer_shapes();
  g.init_parameters(3);
  for (MappingPolicy policy : {MappingPolicy::PerformanceFirst, MappingPolicy::UtilizationFirst}) {
    CompileOptions copts;
    copts.policy = policy;
    check_live(g, tiny_cfg(), copts);
  }
}

struct LiveCase {
  const char* net;
  const char* arch;
  bool perf;
};

class LiveShift : public ::testing::TestWithParam<LiveCase> {};

TEST_P(LiveShift, BitExactOnNonZeroActivations) {
  const auto& [name, arch, perf] = GetParam();
  nn::ModelOptions mopt;
  mopt.input_hw = std::string(arch) == "tiny" ? 8 : 16;
  config::ArchConfig cfg = config::ArchConfig::preset(arch);
  cfg.sim.functional = true;
  CompileOptions copts;
  copts.policy = perf ? MappingPolicy::PerformanceFirst : MappingPolicy::UtilizationFirst;
  check_live(nn::build_model(name, mopt), cfg, copts);
}

std::vector<LiveCase> live_cases() {
  std::vector<LiveCase> out;
  for (const char* net : {"tiny_cnn", "vgg8", "resnet18", "googlenet", "alexnet"}) {
    for (const char* arch : {"paper", "mnsim"}) {
      for (bool perf : {true, false}) out.push_back(LiveCase{net, arch, perf});
    }
  }
  for (bool perf : {true, false}) out.push_back(LiveCase{"tiny_cnn", "tiny", perf});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Zoo, LiveShift, ::testing::ValuesIn(live_cases()),
                         [](const ::testing::TestParamInfo<LiveCase>& info) {
                           return std::string(info.param.net) + "_" + info.param.arch + "_" +
                                  (info.param.perf ? "perf" : "util");
                         });

// ----------------------------------------------------------- timing facts

TEST(Timing, DeterministicLatency) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  runtime::Report a = runtime::simulate_network(net, tiny_cfg(), {});
  runtime::Report b = runtime::simulate_network(net, tiny_cfg(), {});
  EXPECT_EQ(a.stats.total_ps, b.stats.total_ps);
  EXPECT_EQ(a.stats.kernel_events, b.stats.kernel_events);
  EXPECT_DOUBLE_EQ(a.energy_uj(), b.energy_uj());
}

TEST(Timing, FunctionalModeDoesNotChangeTiming) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig f = tiny_cfg();
  config::ArchConfig t = tiny_cfg();
  t.sim.functional = false;
  CompileOptions copts_t;
  copts_t.include_weights = false;
  runtime::Report func = runtime::simulate_network(net, f, {});
  runtime::Report timing = runtime::simulate_network(net, t, copts_t);
  EXPECT_EQ(func.stats.total_ps, timing.stats.total_ps);
}

TEST(Timing, LargerRobIsNotSlower) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig small = tiny_cfg();
  small.core.rob_size = 1;
  config::ArchConfig big = tiny_cfg();
  big.core.rob_size = 16;
  EXPECT_GE(runtime::simulate_network(net, small, {}).stats.total_ps,
            runtime::simulate_network(net, big, {}).stats.total_ps);
}

TEST(Timing, PerformanceFirstIsNotSlowerThanUtilizationFirst) {
  // The Fig. 3 headline, at test scale.
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 1;
  CompileOptions perf, util;
  perf.policy = MappingPolicy::PerformanceFirst;
  util.policy = MappingPolicy::UtilizationFirst;
  EXPECT_LE(runtime::simulate_network(net, cfg, perf).stats.total_ps,
            runtime::simulate_network(net, cfg, util).stats.total_ps);
}

TEST(Timing, SlowerNocIncreasesLatencyOfCommBoundRuns) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig fast = tiny_cfg();
  config::ArchConfig slow = tiny_cfg();
  slow.noc.link_bytes_per_cycle = 1;
  slow.noc.hop_latency_cycles = 32;
  EXPECT_GT(runtime::simulate_network(net, slow, {}).stats.total_ps,
            runtime::simulate_network(net, fast, {}).stats.total_ps);
}

TEST(Report, LayerTableAndJsonContainAllLayers) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  runtime::Report rep = runtime::simulate_network(net, tiny_cfg(), {});
  const std::string table = rep.layer_table(net);
  EXPECT_NE(table.find("conv1"), std::string::npos);
  EXPECT_NE(table.find("fc2"), std::string::npos);
  json::Value j = rep.to_json();
  EXPECT_TRUE(j.at("finished").as_bool());
  EXPECT_GT(j.at("latency_ms").as_double(), 0.0);
  EXPECT_GT(j.at("layers").size(), 4u);
}

TEST(Report, EnergyBreakdownSumsToTotal) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  runtime::Report rep = runtime::simulate_network(net, tiny_cfg(), {});
  double sum = 0;
  for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
    sum += rep.stats.energy.get(static_cast<arch::Component>(c));
  }
  EXPECT_DOUBLE_EQ(sum, rep.stats.total_energy_pj());
  EXPECT_GT(rep.stats.energy.get(arch::Component::Xbar), 0.0);
  EXPECT_GT(rep.stats.energy.get(arch::Component::Static), 0.0);
}

TEST(Pipeline, ProgramSerializationPreservesSimulation) {
  // Compile -> save JSON -> load -> simulate: same result as direct.
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig cfg = tiny_cfg();
  isa::Program direct = compiler::compile(net, cfg, {});
  isa::Program reloaded = isa::Program::from_json(direct.to_json());
  ASSERT_EQ(reloaded, direct);
  nn::Tensor input = nn::random_input({3, 8, 8});
  std::vector<int8_t> in_bytes = input.data;
  runtime::Report a =
      runtime::simulate_program(direct, cfg, &in_bytes, 0, 16ull * 1024 * 1024, 10);
  runtime::Report b =
      runtime::simulate_program(reloaded, cfg, &in_bytes, 0, 16ull * 1024 * 1024, 10);
  EXPECT_EQ(a.stats.total_ps, b.stats.total_ps);
  EXPECT_EQ(a.output, b.output);
}

}  // namespace
}  // namespace pim
