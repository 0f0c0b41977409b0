// Unit tests for the compiler: mapping policies, tiling arithmetic, group
// tables, code generation invariants, fusion, determinism.
#include <gtest/gtest.h>

#include <set>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/models.h"

namespace pim::compiler {
namespace {

nn::Graph small_net(int hw = 8) {
  nn::ModelOptions mopt;
  mopt.input_hw = hw;
  return nn::build_tiny_cnn(mopt);
}

TEST(Mapping, TilingMatchesCeilArithmetic) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph g = nn::build_alexnet(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  Mapping m = plan_mapping(g, cfg, MappingPolicy::PerformanceFirst);
  for (const LayerPlan& lp : m.layers) {
    const nn::Layer& l = g.layer(lp.layer);
    EXPECT_EQ(lp.rows, static_cast<uint32_t>(l.weight_rows()));
    EXPECT_EQ(lp.cols, static_cast<uint32_t>(l.weight_cols()));
    EXPECT_EQ(lp.stripes, (lp.rows + 127) / 128);
    EXPECT_EQ(lp.col_blocks, (lp.cols + 127) / 128);
    EXPECT_EQ(lp.total_xbars(), lp.stripes * lp.col_blocks);
    // Groups cover the whole matrix exactly once.
    uint64_t covered = 0;
    for (const GroupPlan& gp : lp.groups) {
      EXPECT_LE(gp.in_len(), 128u);
      EXPECT_GT(gp.in_len(), 0u);
      covered += uint64_t{gp.in_len()} * gp.out_len();
    }
    EXPECT_EQ(covered, uint64_t{lp.rows} * lp.cols);
  }
}

TEST(Mapping, PerformanceFirstKeepsOneLayerPerCore) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph g = nn::build_resnet18(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  Mapping m = plan_mapping(g, cfg, MappingPolicy::PerformanceFirst);
  EXPECT_EQ(m.shared_core_count(), 0u);
  for (uint32_t c : m.matrix_layer_count) EXPECT_LE(c, 1u);
}

TEST(Mapping, UtilizationFirstPacksTightly) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph g = nn::build_resnet18(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  Mapping util = plan_mapping(g, cfg, MappingPolicy::UtilizationFirst);
  Mapping perf = plan_mapping(g, cfg, MappingPolicy::PerformanceFirst);
  auto used_cores = [](const Mapping& m) {
    uint32_t n = 0;
    for (uint32_t x : m.xbars_used) {
      if (x) ++n;
    }
    return n;
  };
  EXPECT_LT(used_cores(util), used_cores(perf));
  EXPECT_GE(util.shared_core_count(), 1u);
  // Total crossbars identical across policies.
  uint32_t total_u = 0, total_p = 0;
  for (uint32_t x : util.xbars_used) total_u += x;
  for (uint32_t x : perf.xbars_used) total_p += x;
  EXPECT_EQ(total_u, total_p);
}

TEST(Mapping, RespectsCoreCapacity) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph g = nn::build_vgg16(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  for (MappingPolicy p : {MappingPolicy::UtilizationFirst, MappingPolicy::PerformanceFirst}) {
    Mapping m = plan_mapping(g, cfg, p);
    for (uint32_t x : m.xbars_used) EXPECT_LE(x, cfg.core.matrix.xbar_count);
  }
}

TEST(Mapping, ThrowsWhenChipTooSmall) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph g = nn::build_vgg16(mopt);  // ~1000 crossbars
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");  // 4 cores x 16 xbars
  EXPECT_THROW(plan_mapping(g, cfg, MappingPolicy::UtilizationFirst), std::runtime_error);
}

TEST(Mapping, GroupIdsUniquePerCore) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph g = nn::build_googlenet(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  Mapping m = plan_mapping(g, cfg, MappingPolicy::UtilizationFirst);
  std::map<uint16_t, std::set<uint16_t>> per_core;
  for (const LayerPlan& lp : m.layers) {
    for (const GroupPlan& gp : lp.groups) {
      EXPECT_TRUE(per_core[gp.core].insert(gp.group_id).second)
          << "duplicate group id " << gp.group_id << " on core " << gp.core;
    }
  }
}

TEST(Mapping, SummaryMentionsPolicy) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Mapping m = plan_mapping(g, cfg, MappingPolicy::PerformanceFirst);
  EXPECT_NE(m.summary().find("performance_first"), std::string::npos);
}

// ------------------------------------------------------------------- codegen

TEST(Codegen, ProgramPassesVerification) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  CompileReport rep;
  isa::Program p = compile(g, cfg, {}, &rep);
  EXPECT_TRUE(p.verify(cfg).empty());
  EXPECT_GT(rep.total_instructions, 0u);
  EXPECT_GT(rep.mvm_instructions, 0u);
  EXPECT_GT(rep.lm_bytes_peak, 0u);
}

TEST(Codegen, MvmCountMatchesPixelsTimesGroups) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  CompileReport rep;
  compile(g, cfg, {}, &rep);
  size_t expected = 0;
  Mapping m = plan_mapping(g, cfg, MappingPolicy::PerformanceFirst);
  for (const LayerPlan& lp : m.layers) {
    const nn::Layer& l = g.layer(lp.layer);
    expected += static_cast<size_t>(l.out_shape.h) * l.out_shape.w * lp.groups.size();
  }
  EXPECT_EQ(rep.mvm_instructions, expected);
}

TEST(Codegen, DeterministicOutput) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program a = compile(g, cfg, {});
  isa::Program b = compile(g, cfg, {});
  EXPECT_EQ(a, b);
}

TEST(Codegen, GroupTableHoldsWeightSlices) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program p = compile(g, cfg, {});
  size_t weight_elems = 0;
  for (const isa::CoreProgram& cp : p.cores) {
    for (const isa::GroupDef& gd : cp.groups) {
      EXPECT_EQ(gd.weights.size(), size_t{gd.in_len} * gd.out_len);
      weight_elems += gd.weights.size();
    }
  }
  EXPECT_EQ(weight_elems, static_cast<size_t>(g.total_weight_elems()));
}

TEST(Codegen, WeightsCanBeOmitted) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  CompileOptions opts;
  opts.include_weights = false;
  isa::Program p = compile(g, cfg, opts);
  for (const isa::CoreProgram& cp : p.cores) {
    for (const isa::GroupDef& gd : cp.groups) EXPECT_TRUE(gd.weights.empty());
  }
}

TEST(Codegen, FusionChangesGeneratedCodeNotSemantics) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  CompileOptions fused, unfused;
  unfused.fuse_relu = false;
  CompileReport rf, ru;
  isa::Program pf = compile(g, cfg, fused, &rf);
  isa::Program pu = compile(g, cfg, unfused, &ru);
  EXPECT_NE(pf, pu);
  // Unfused keeps standalone i8 VRELU instructions; fused applies VRELU on
  // the int32 accumulator inside the aggregation.
  auto count_i8_relu = [](const isa::Program& p) {
    size_t n = 0;
    for (const auto& cp : p.cores) {
      for (const auto& in : cp.code) {
        if (in.op == isa::Opcode::VRELU && in.dtype == isa::DType::I8) ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(count_i8_relu(pf), 0u);
  EXPECT_GT(count_i8_relu(pu), 0u);
}

TEST(Codegen, EveryUsedCoreEndsWithHalt) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program p = compile(g, cfg, {});
  size_t used = 0;
  for (const isa::CoreProgram& cp : p.cores) {
    if (cp.code.empty()) continue;
    ++used;
    EXPECT_EQ(cp.code.back().op, isa::Opcode::HALT);
  }
  EXPECT_GT(used, 0u);
}

TEST(Codegen, InstructionsCarryLayerIds) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program p = compile(g, cfg, {});
  size_t tagged = 0, total = 0;
  for (const isa::CoreProgram& cp : p.cores) {
    for (const isa::Instruction& in : cp.code) {
      ++total;
      if (in.layer_id >= 0) ++tagged;
    }
  }
  // Everything except the final HALTs is attributed to a layer.
  EXPECT_GE(tagged + p.cores.size(), total);
  EXPECT_GT(tagged, total / 2);
}

TEST(Codegen, ThrowsOnLocalMemoryOverflow) {
  nn::ModelOptions mopt;
  mopt.input_hw = 16;
  nn::Graph g = nn::build_tiny_cnn(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.core.local_memory.size_bytes = 512;  // absurdly small
  EXPECT_THROW(compile(g, cfg, {}), std::runtime_error);
}

TEST(Codegen, ResidualNetworkCompiles) {
  // Add + downsample path (the resnet shape) on the tiny chip.
  nn::Graph g;
  int32_t x = g.add_input({4, 6, 6});
  int32_t c1 = g.add_conv(x, 8, 3, 1, 1, "c1");
  int32_t r1 = g.add_relu(c1, "r1");
  int32_t c2 = g.add_conv(r1, 8, 3, 1, 1, "c2");
  int32_t skip = g.add_conv(x, 8, 1, 1, 0, "skip");
  int32_t sum = g.add_add(c2, skip, "sum");
  g.add_relu(sum, "out");
  g.infer_shapes();
  g.init_parameters(5);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program p = compile(g, cfg, {});
  EXPECT_TRUE(p.verify(cfg).empty());
}

TEST(Codegen, ConcatNetworkCompiles) {
  nn::Graph g;
  int32_t x = g.add_input({4, 6, 6});
  int32_t a = g.add_conv(x, 4, 1, 1, 0, "a");
  int32_t b = g.add_conv(x, 6, 3, 1, 1, "b");
  int32_t cat = g.add_concat({a, b}, "cat");
  g.add_conv(cat, 4, 1, 1, 0, "post");
  g.infer_shapes();
  g.init_parameters(5);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  isa::Program p = compile(g, cfg, {});
  EXPECT_TRUE(p.verify(cfg).empty());
}

TEST(Codegen, PolicyRecordedInProgram) {
  nn::Graph g = small_net();
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  CompileOptions opts;
  opts.policy = MappingPolicy::UtilizationFirst;
  isa::Program p = compile(g, cfg, opts);
  EXPECT_EQ(p.mapping_policy, "utilization_first");
  EXPECT_EQ(p.network_name, g.name());
}

}  // namespace
}  // namespace pim::compiler
