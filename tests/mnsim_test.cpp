// Unit tests for the MNSIM2.0-style behavior-level comparator.
#include <gtest/gtest.h>

#include "config/arch_config.h"
#include "mnsim/mnsim.h"
#include "nn/models.h"

namespace pim::mnsim {
namespace {

nn::Graph model(const std::string& name, int hw) {
  nn::ModelOptions mopt;
  mopt.input_hw = hw;
  mopt.init_params = false;
  return nn::build_model(name, mopt);
}

TEST(Mnsim, ProducesPositiveResults) {
  Result r = evaluate(model("vgg8", 32), config::ArchConfig::preset("mnsim"));
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_GT(r.energy_uj, 0.0);
  EXPECT_GT(r.avg_power_mw, 0.0);
  EXPECT_EQ(r.network, "vgg8");
  EXPECT_FALSE(r.layers.empty());
}

TEST(Mnsim, LayerTimesAreMonotoneAlongChains) {
  nn::Graph g = model("vgg8", 32);
  Result r = evaluate(g, config::ArchConfig::preset("mnsim"));
  for (const nn::Layer& l : g.layers()) {
    for (int32_t pid : l.inputs) {
      EXPECT_GE(r.layers.at(l.id).finish_ns, r.layers.at(pid).first_out_ns)
          << "layer " << l.name;
    }
    EXPECT_LE(r.layers.at(l.id).first_out_ns, r.layers.at(l.id).finish_ns);
  }
}

TEST(Mnsim, LatencyGrowsWithInputResolution) {
  config::ArchConfig cfg = config::ArchConfig::preset("mnsim");
  const double small = evaluate(model("vgg8", 16), cfg).latency_ms;
  const double large = evaluate(model("vgg8", 32), cfg).latency_ms;
  EXPECT_GT(large, small * 2);
}

TEST(Mnsim, HandlesResidualNetworks) {
  Result r = evaluate(model("resnet18", 32), config::ArchConfig::preset("mnsim"));
  EXPECT_GT(r.latency_ms, 0.0);
}

TEST(Mnsim, HandlesConcatNetworks) {
  // The paper notes MNSIM2.0's released code cannot run concat networks; our
  // re-implementation of its latency model generalizes to them.
  Result r = evaluate(model("googlenet", 32), config::ArchConfig::preset("mnsim"));
  EXPECT_GT(r.latency_ms, 0.0);
}

TEST(Mnsim, CommRatioWithinBounds) {
  Result r = evaluate(model("resnet18", 32), config::ArchConfig::preset("mnsim"));
  for (const auto& [id, lr] : r.layers) {
    EXPECT_GE(lr.comm_ratio(), 0.0);
    EXPECT_LE(lr.comm_ratio(), 1.0);
  }
}

TEST(Mnsim, PipelineBeatsSerialSum) {
  // The dataflow pipeline must be far better than executing layers serially.
  nn::Graph g = model("vgg8", 32);
  config::ArchConfig cfg = config::ArchConfig::preset("mnsim");
  Result r = evaluate(g, cfg);
  double serial_ns = 0;
  for (const auto& [id, lr] : r.layers) {
    const nn::Layer& l = g.layer(id);
    serial_ns += lr.compute_ns * static_cast<double>(std::max<int64_t>(
                                     1, int64_t{l.out_shape.h} * l.out_shape.w));
  }
  EXPECT_LT(r.latency_ms, serial_ns * 1e-6);
}

TEST(Mnsim, DeterministicAcrossCalls) {
  nn::Graph g = model("squeezenet", 32);
  config::ArchConfig cfg = config::ArchConfig::preset("mnsim");
  EXPECT_DOUBLE_EQ(evaluate(g, cfg).latency_ms, evaluate(g, cfg).latency_ms);
}

TEST(Mnsim, FasterNocReducesCommShare) {
  nn::Graph g = model("resnet18", 32);
  config::ArchConfig slow = config::ArchConfig::preset("mnsim");
  slow.noc.link_bytes_per_cycle = 1;
  slow.noc.hop_latency_cycles = 16;
  config::ArchConfig fast = config::ArchConfig::preset("mnsim");
  fast.noc.link_bytes_per_cycle = 128;
  fast.noc.hop_latency_cycles = 1;
  double slow_comm = 0, fast_comm = 0;
  for (const auto& [id, lr] : evaluate(g, slow).layers) slow_comm += lr.comm_ns;
  for (const auto& [id, lr] : evaluate(g, fast).layers) fast_comm += lr.comm_ns;
  EXPECT_GT(slow_comm, fast_comm);
}

}  // namespace
}  // namespace pim::mnsim
