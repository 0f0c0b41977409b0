// Tests for batched (multi-image pipelined) inference.
#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"

namespace pim {
namespace {

nn::Graph small_net() {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  return nn::build_tiny_cnn(mopt);
}

config::ArchConfig tiny_cfg() {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = true;
  cfg.core.rob_size = 16;
  return cfg;
}

class BatchBitExact : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchBitExact, EveryImageMatchesReference) {
  const uint32_t batch = GetParam();
  nn::Graph net = small_net();
  compiler::CompileOptions copts;
  copts.batch = batch;
  nn::Tensor input = nn::random_input({3, 8, 8}, 5);
  runtime::Report rep = runtime::simulate_network(net, tiny_cfg(), copts, &input);
  ASSERT_TRUE(rep.finished) << rep.summary();

  nn::Tensor golden = nn::execute_reference_output(net, input);
  ASSERT_EQ(rep.output.size(), golden.data.size() * batch);
  for (uint32_t b = 0; b < batch; ++b) {
    std::vector<int8_t> img(rep.output.begin() + b * golden.data.size(),
                            rep.output.begin() + (b + 1) * golden.data.size());
    EXPECT_EQ(img, golden.data) << "image " << b << " of " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchBitExact, ::testing::Values(1u, 2u, 3u, 5u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "B" + std::to_string(info.param);
                         });

TEST(Batch, DistinctImagesProduceDistinctOutputs) {
  // Drive simulate_program directly with two different images in the batch.
  nn::Graph net = small_net();
  config::ArchConfig cfg = tiny_cfg();
  compiler::CompileOptions copts;
  copts.batch = 2;
  isa::Program program = compiler::compile(net, cfg, copts);

  nn::Tensor a = nn::random_input({3, 8, 8}, 100);
  nn::Tensor b = nn::random_input({3, 8, 8}, 200);
  std::vector<int8_t> input_bytes = a.data;
  input_bytes.insert(input_bytes.end(), b.data.begin(), b.data.end());

  const size_t out_elems = 10;
  runtime::Report rep = runtime::simulate_program(program, cfg, &input_bytes, 0,
                                                  16ull * 1024 * 1024, out_elems * 2);
  ASSERT_TRUE(rep.finished);
  nn::Tensor golden_a = nn::execute_reference_output(net, a);
  nn::Tensor golden_b = nn::execute_reference_output(net, b);
  EXPECT_EQ(std::vector<int8_t>(rep.output.begin(), rep.output.begin() + out_elems),
            golden_a.data);
  EXPECT_EQ(std::vector<int8_t>(rep.output.begin() + out_elems, rep.output.end()),
            golden_b.data);
}

TEST(Batch, PerImageLatencyImprovesWithPipelining) {
  nn::Graph net = small_net();
  config::ArchConfig cfg = tiny_cfg();
  cfg.sim.functional = false;
  compiler::CompileOptions b1, b4;
  b1.include_weights = b4.include_weights = false;
  b4.batch = 4;
  const double t1 = runtime::simulate_network(net, cfg, b1).latency_ms();
  const double t4 = runtime::simulate_network(net, cfg, b4).latency_ms() / 4.0;
  EXPECT_LT(t4, t1);
}

TEST(Batch, WorksWithReplicationAndResiduals) {
  nn::Graph g;
  int32_t x = g.add_input({4, 6, 6});
  int32_t c1 = g.add_conv(x, 8, 3, 1, 1, "c1");
  int32_t r1 = g.add_relu(c1, "r1");
  int32_t c2 = g.add_conv(r1, 8, 3, 1, 1, "c2");
  int32_t skip = g.add_conv(x, 8, 1, 1, 0, "skip");
  g.add_add(c2, skip, "sum");
  g.infer_shapes();
  g.init_parameters(3);

  compiler::CompileOptions copts;
  copts.batch = 3;
  copts.replication = 2;
  nn::Tensor input = nn::random_input({4, 6, 6}, 9);
  runtime::Report rep = runtime::simulate_network(g, tiny_cfg(), copts, &input);
  ASSERT_TRUE(rep.finished);
  nn::Tensor golden = nn::execute_reference_output(g, input);
  for (uint32_t b = 0; b < 3; ++b) {
    std::vector<int8_t> img(rep.output.begin() + b * golden.data.size(),
                            rep.output.begin() + (b + 1) * golden.data.size());
    EXPECT_EQ(img, golden.data) << "image " << b;
  }
}

}  // namespace
}  // namespace pim
