// Tests for weight replication (PIMCOMP-style duplication) and the
// instruction-trace feature.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "json/json.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"
#include "telemetry/telemetry.h"

namespace pim {
namespace {

using compiler::CompileOptions;
using compiler::MappingPolicy;

nn::Graph small_net() {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  return nn::build_tiny_cnn(mopt);
}

TEST(Replication, MappingCreatesReplicas) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  compiler::Mapping m =
      compiler::plan_mapping(g, cfg, MappingPolicy::PerformanceFirst, /*max_replication=*/2);
  bool any_replicated = false;
  for (const compiler::LayerPlan& lp : m.layers) {
    EXPECT_GE(lp.replication(), 1u);
    EXPECT_LE(lp.replication(), 2u);
    if (lp.replication() > 1) any_replicated = true;
    // Every replica covers the full matrix.
    for (const compiler::ReplicaPlan& rp : lp.replicas) {
      uint64_t covered = 0;
      for (const compiler::GroupPlan& gp : rp.groups) {
        covered += uint64_t{gp.in_len()} * gp.out_len();
      }
      EXPECT_EQ(covered, uint64_t{lp.rows} * lp.cols);
    }
  }
  EXPECT_TRUE(any_replicated);
}

TEST(Replication, FcLayersNeverReplicate) {
  nn::Graph g = nn::build_mlp(32, {64}, 10);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  compiler::Mapping m =
      compiler::plan_mapping(g, cfg, MappingPolicy::PerformanceFirst, 8);
  for (const compiler::LayerPlan& lp : m.layers) EXPECT_EQ(lp.replication(), 1u);
}

TEST(Replication, UtilizationFirstIgnoresReplication) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  compiler::Mapping m =
      compiler::plan_mapping(g, cfg, MappingPolicy::UtilizationFirst, 8);
  for (const compiler::LayerPlan& lp : m.layers) EXPECT_EQ(lp.replication(), 1u);
}

TEST(Replication, XbarAccountingIncludesAllReplicas) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  compiler::Mapping m1 = compiler::plan_mapping(g, cfg, MappingPolicy::PerformanceFirst, 1);
  compiler::Mapping m2 = compiler::plan_mapping(g, cfg, MappingPolicy::PerformanceFirst, 2);
  uint32_t used1 = 0, used2 = 0;
  for (uint32_t x : m1.xbars_used) used1 += x;
  for (uint32_t x : m2.xbars_used) used2 += x;
  EXPECT_GT(used2, used1);
  for (uint32_t x : m2.xbars_used) EXPECT_LE(x, cfg.core.matrix.xbar_count);
}

class ReplicationBitExact : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReplicationBitExact, MatchesReference) {
  nn::Graph net = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = true;
  cfg.core.rob_size = 16;
  CompileOptions copts;
  copts.replication = GetParam();
  nn::Tensor input = nn::random_input({3, 8, 8}, 21);
  runtime::Report rep = runtime::simulate_network(net, cfg, copts, &input);
  EXPECT_TRUE(rep.finished);
  nn::Tensor golden = nn::execute_reference_output(net, input);
  EXPECT_EQ(rep.output, golden.data);
}

INSTANTIATE_TEST_SUITE_P(Factors, ReplicationBitExact, ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "R" + std::to_string(info.param);
                         });

TEST(Replication, ReducesLatencyOnConvBoundNet) {
  nn::Graph net = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = false;
  cfg.core.rob_size = 16;
  CompileOptions r1, r2;
  r1.include_weights = r2.include_weights = false;
  r2.replication = 2;
  const auto t1 = runtime::simulate_network(net, cfg, r1).stats.total_ps;
  const auto t2 = runtime::simulate_network(net, cfg, r2).stats.total_ps;
  EXPECT_LT(t2, t1);
}

TEST(Trace, FileContainsRetiredInstructions) {
  // A TraceSink handed to the simulator writes a Chrome trace-event JSON
  // whose core-unit lanes carry one complete (X) event per retired
  // instruction.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pim_trace_test.json").string();
  nn::Graph net = nn::build_mlp(8, {}, 4);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  telemetry::TraceSink sink;
  runtime::Report rep = runtime::simulate_network(net, cfg, {}, nullptr, &sink);
  EXPECT_TRUE(rep.finished);
  sink.write(path);

  const json::Value doc = json::parse_file(path);
  const json::Array& events = doc.at("traceEvents").as_array();
  // tid -> lane name, from the thread_name metadata the sink always emits.
  std::map<int64_t, std::string> lanes;
  for (const json::Value& ev : events) {
    if (ev.at("ph").as_string() == "M" && ev.at("name").as_string() == "thread_name") {
      lanes[ev.at("tid").as_int()] = ev.at("args").at("name").as_string();
    }
  }
  size_t instr_events = 0;
  bool saw_mvm = false, saw_halt = false;
  for (const json::Value& ev : events) {
    if (ev.at("ph").as_string() != "X") continue;
    const std::string& lane = lanes[ev.at("tid").as_int()];
    ASSERT_FALSE(lane.empty());  // every event lane must be named
    // Instructions retire on the per-core unit lanes; dispatch carries only
    // ROB-stall spans and noc/* carries link transfers.
    if (lane.rfind("core", 0) != 0 || lane.find("/dispatch") != std::string::npos) continue;
    ++instr_events;
    const std::string name = ev.at("name").as_string();
    if (name.find("mvm") != std::string::npos) saw_mvm = true;
    if (name.find("halt") != std::string::npos) saw_halt = true;
  }
  EXPECT_EQ(instr_events, rep.stats.total_instructions());
  EXPECT_TRUE(saw_mvm);
  EXPECT_TRUE(saw_halt);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pim
