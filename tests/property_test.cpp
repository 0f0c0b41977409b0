// Property-based tests: randomized inputs swept through the whole stack.
//
//  * random network DAGs (conv/pool/relu/add/concat/fc in random legal
//    combinations) compiled under random policy/fusion/replication and
//    simulated functionally — output must equal the host reference executor
//    bit for bit, and the simulation must terminate (deadlock freedom);
//  * random instruction words round-tripped through the binary encoder;
//  * random programs round-tripped through the assembler;
//  * vector-unit functional semantics fuzzed against scalar golden models;
//  * Program::verify's output is unchanged by every ArchConfig field outside
//    config::compile_relevant_arch, over fuzzed programs (the soundness of
//    keying compiled programs and their verify proofs by that fingerprint).
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "isa/assembler.h"
#include "isa_corpus.h"
#include "json/json.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"

namespace pim {
namespace {

// ------------------------------------------------------- random network DAGs

/// Build a random small network: a trunk of conv/pool/relu ops with
/// occasional residual adds and concat branches, ending in GAP + FC.
nn::Graph random_network(uint64_t seed) {
  Rng rng(seed);
  nn::Graph g(strformat("rand_%llu", static_cast<unsigned long long>(seed)));
  const int32_t hw = static_cast<int32_t>(rng.uniform(6, 10));
  const int32_t c0 = static_cast<int32_t>(rng.uniform(2, 4));
  int32_t x = g.add_input({c0, hw, hw});

  const int ops = static_cast<int>(rng.uniform(3, 6));
  for (int i = 0; i < ops; ++i) {
    const nn::Shape cur = g.layer(x).out_shape;
    switch (rng.uniform(0, 5)) {
      case 0:
      case 1: {  // conv (+ relu half the time)
        const int32_t ch = static_cast<int32_t>(rng.uniform(2, 8));
        const int32_t k = rng.uniform(0, 1) != 0 && cur.h >= 3 ? 3 : 1;
        x = g.add_conv(x, ch, k, 1, k / 2);
        if (rng.uniform(0, 1) != 0) x = g.add_relu(x);
        break;
      }
      case 2: {  // pool, if it fits
        if (cur.h >= 4) {
          x = rng.uniform(0, 1) != 0 ? g.add_maxpool(x, 2, 2) : g.add_avgpool(x, 2, 2);
        }
        break;
      }
      case 3: {  // residual: conv->relu->conv, 1x1 skip, add
        const int32_t ch = static_cast<int32_t>(rng.uniform(2, 6));
        int32_t a = g.add_conv(x, ch, cur.h >= 3 ? 3 : 1, 1, cur.h >= 3 ? 1 : 0);
        a = g.add_relu(a);
        a = g.add_conv(a, ch, 1, 1, 0);
        int32_t skip = g.add_conv(x, ch, 1, 1, 0);
        x = g.add_add(a, skip);
        break;
      }
      case 4: {  // concat of two 1x1 branches
        const int32_t c1 = static_cast<int32_t>(rng.uniform(2, 4));
        const int32_t c2 = static_cast<int32_t>(rng.uniform(2, 4));
        int32_t a = g.add_conv(x, c1, 1, 1, 0);
        int32_t b = g.add_conv(x, c2, 1, 1, 0);
        x = g.add_concat({a, b});
        break;
      }
      default: {
        x = g.add_relu(x);
        break;
      }
    }
  }
  x = g.add_global_avgpool(x);
  g.add_fc(x, static_cast<int32_t>(rng.uniform(2, 10)));
  g.infer_shapes();
  g.init_parameters(seed ^ 0xBEEF);
  return g;
}

class RandomNetworkPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomNetworkPipeline, BitExactAndDeadlockFree) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 31 + 5);
  nn::Graph net = random_network(seed);

  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = true;
  cfg.core.rob_size = static_cast<uint32_t>(rng.uniform(1, 24));

  compiler::CompileOptions copts;
  copts.policy = rng.uniform(0, 1) != 0 ? compiler::MappingPolicy::PerformanceFirst
                                        : compiler::MappingPolicy::UtilizationFirst;
  copts.fuse_relu = rng.uniform(0, 1) != 0;
  copts.replication = static_cast<uint32_t>(rng.uniform(1, 3));

  const nn::Layer& in_layer = net.layer(net.inputs().at(0));
  nn::Tensor input = nn::random_input(in_layer.out_shape, seed + 1);
  runtime::Report rep = runtime::simulate_network(net, cfg, copts, &input);
  ASSERT_TRUE(rep.finished) << "deadlock/timeout: " << rep.summary();

  nn::Tensor golden = nn::execute_reference_output(net, input);
  ASSERT_EQ(rep.output, golden.data)
      << net.name() << " policy=" << compiler::policy_name(copts.policy)
      << " fuse=" << copts.fuse_relu << " rob=" << cfg.core.rob_size
      << " repl=" << copts.replication;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkPipeline, ::testing::Range<uint64_t>(1, 21));

// --------------------------------------------------- encoder round-trip fuzz

using isa::corpus::random_instruction;

TEST(EncodingFuzz, TenThousandRandomInstructionsRoundTrip) {
  const std::vector<isa::Instruction> corpus = isa::corpus::fuzz_instructions();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const isa::Instruction& in = corpus[i];
    isa::Instruction out = isa::decode(isa::encode(in));
    ASSERT_EQ(out, in) << "iteration " << i << ": " << isa::to_string(in);
  }
}

TEST(AssemblerFuzz, RandomProgramsRoundTripThroughText) {
  Rng rng(0xA53);
  for (int trial = 0; trial < 50; ++trial) {
    isa::Program p;
    p.cores.resize(static_cast<size_t>(rng.uniform(1, 3)));
    for (auto& cp : p.cores) {
      const int n = static_cast<int>(rng.uniform(1, 12));
      for (int i = 0; i < n; ++i) {
        isa::Instruction in = random_instruction(rng);
        // Branch targets must be in range for the re-assembled program.
        if (isa::is_branch(in.op)) {
          in.imm = static_cast<int32_t>(rng.uniform(0, n));
        }
        cp.code.push_back(in);
      }
      isa::Instruction halt;
      halt.op = isa::Opcode::HALT;
      cp.code.push_back(halt);
    }
    isa::Program back = isa::assemble(isa::disassemble(p));
    ASSERT_EQ(back.cores.size(), p.cores.size()) << "trial " << trial;
    for (size_t c = 0; c < p.cores.size(); ++c) {
      ASSERT_EQ(back.cores[c].code, p.cores[c].code) << "trial " << trial << " core " << c;
    }
  }
}

// ------------------------------------ verify reads only compile-relevant fields

/// A random multi-core program that trips many of verify's checks: groups
/// with duplicate, empty and oversized slices, operands near and past the
/// local-memory end, branch targets and registers out of range, SEND/RECV
/// flows that do and do not pair up, missing HALTs.
isa::Program random_verify_program(Rng& rng) {
  isa::Program p;
  p.cores.resize(static_cast<size_t>(rng.uniform(1, 5)));
  for (isa::CoreProgram& cp : p.cores) {
    if (rng.uniform(0, 4) == 0) continue;  // an unused core
    for (int64_t i = rng.uniform(0, 4); i > 0; --i) {
      isa::GroupDef g;
      g.id = static_cast<uint16_t>(rng.uniform(0, 6));
      g.in_len = static_cast<uint32_t>(rng.uniform(0, 40));
      g.out_len = static_cast<uint32_t>(rng.uniform(0, 40));
      g.xbar_count = static_cast<uint32_t>(rng.uniform(0, 6));
      if (rng.uniform(0, 3) == 0) g.weights.assign(static_cast<size_t>(rng.uniform(0, 20)), 1);
      cp.groups.push_back(g);
    }
    if (rng.uniform(0, 5) == 0) {
      isa::DataSegment seg;
      seg.addr = static_cast<uint32_t>(rng.uniform(0, 70000));
      seg.bytes.assign(static_cast<size_t>(rng.uniform(0, 64)), 0);
      cp.lm_init.push_back(seg);
    }
    for (int64_t i = rng.uniform(0, 12); i > 0; --i) {
      isa::Instruction in = random_instruction(rng);
      // Keep operands where the configs below put their limits.
      in.group = static_cast<uint16_t>(rng.uniform(0, 7));
      in.core = static_cast<uint16_t>(rng.uniform(0, 5));
      in.tag = static_cast<uint16_t>(rng.uniform(0, 3));
      in.dst_addr = static_cast<uint32_t>(rng.uniform(0, 1) ? rng.uniform(0, 70000) : rng.uniform(0, 512));
      in.src1_addr = static_cast<uint32_t>(rng.uniform(0, 1) ? rng.uniform(0, 70000) : rng.uniform(0, 512));
      in.src2_addr = static_cast<uint32_t>(rng.uniform(0, 512));
      if (rng.uniform(0, 3) != 0) in.len = static_cast<uint32_t>(rng.uniform(0, 64));
      if (in.cls() == isa::InstrClass::Scalar) in.imm = static_cast<int32_t>(rng.uniform(-1, 14));
      in.rd = static_cast<uint8_t>(rng.uniform(0, 40));
      cp.code.push_back(in);
    }
    if (rng.uniform(0, 6) != 0) {
      isa::Instruction halt;
      halt.op = isa::Opcode::HALT;
      cp.code.push_back(halt);
    }
  }
  return p;
}

/// Paths (member names, outermost first) of every scalar leaf under `v`.
void leaf_paths(const json::Value& v, std::vector<std::string>& at,
                std::vector<std::vector<std::string>>& out) {
  if (!v.is_object()) {
    out.push_back(at);
    return;
  }
  for (const auto& [key, child] : v.as_object()) {
    at.push_back(key);
    leaf_paths(child, at, out);
    at.pop_back();
  }
}

/// `base` with the leaf at `path` changed to a value that still validates,
/// or nullopt when none of the tried values does.
std::optional<config::ArchConfig> mutate_field(const config::ArchConfig& base,
                                               const std::vector<std::string>& path) {
  const json::Value doc = base.to_json();
  const json::Value* leaf = &doc;
  for (const std::string& key : path) leaf = &leaf->at(key);
  std::vector<json::Value> candidates;
  if (leaf->is_bool()) {
    candidates.emplace_back(!leaf->as_bool());
  } else if (leaf->is_int()) {
    candidates.emplace_back(leaf->as_int() * 2 + 1);
    candidates.emplace_back(leaf->as_int() + 1);
    candidates.emplace_back(leaf->as_int() - 1);  // for fields already at their maximum
  } else if (leaf->is_number()) {
    candidates.emplace_back(leaf->as_double() * 1.5 + 0.25);
  } else if (leaf->is_string()) {
    candidates.emplace_back(leaf->as_string() + "_mutated");
  }
  for (const json::Value& value : candidates) {
    json::Value mutated = doc;
    json::Value* slot = &mutated;
    for (const std::string& key : path) slot = &(*slot)[key];
    *slot = value;
    try {
      return config::ArchConfig::from_json(mutated);
    } catch (const std::invalid_argument&) {
      // e.g. a mesh dimension alone no longer matches core_count
    }
  }
  return std::nullopt;
}

TEST(VerifySoundness, SimulationOnlyFieldsNeverChangeVerifyOutput) {
  config::ArchConfig base = config::ArchConfig::preset("tiny");
  base.core.local_memory.size_bytes = 32 * 1024;  // fuzzed operands straddle the end
  std::vector<isa::Program> programs;
  Rng rng(0x50D);
  for (int i = 0; i < 300; ++i) programs.push_back(random_verify_program(rng));
  for (uint64_t seed : {3u, 7u}) {  // clean compiled programs too
    programs.push_back(compiler::compile(random_network(seed), base));
  }
  std::vector<std::vector<std::string>> want;
  size_t violations = 0;
  for (const isa::Program& p : programs) {
    want.push_back(p.verify(base));
    violations += want.back().size();
  }
  ASSERT_GT(violations, 1000u) << "the fuzzed programs must exercise verify's checks";

  // Every serialized field, one at a time, plus the two that need company
  // (mesh shape) or are not serialized (the wall-clock watchdog).
  std::vector<std::pair<std::string, config::ArchConfig>> sim_only;
  std::set<std::string> relevant, unmutated;
  std::vector<std::vector<std::string>> paths;
  std::vector<std::string> at;
  leaf_paths(base.to_json(), at, paths);
  for (const std::vector<std::string>& path : paths) {
    std::string name;
    for (const std::string& key : path) name += (name.empty() ? "" : ".") + key;
    const std::optional<config::ArchConfig> mutated = mutate_field(base, path);
    if (!mutated) {
      unmutated.insert(name);
      continue;
    }
    ASSERT_NE(mutated->to_json().dump(), base.to_json().dump()) << name << " did not change";
    if (config::compile_relevant_arch(*mutated) != config::compile_relevant_arch(base)) {
      relevant.insert(name);
    } else {
      sim_only.emplace_back(name, *mutated);
    }
  }
  EXPECT_EQ(unmutated, (std::set<std::string>{"core_count", "mesh_height", "mesh_width"}));
  EXPECT_EQ(relevant, (std::set<std::string>{
                          "core.local_memory.size_bytes", "core.matrix.xbar.cols",
                          "core.matrix.xbar.rows", "core.matrix.xbar_count",
                          "core.register_count", "global_memory.size_bytes"}));
  config::ArchConfig mesh = base;
  mesh.mesh_width = base.core_count;
  mesh.mesh_height = 1;
  mesh.validate();
  sim_only.emplace_back("mesh_width x mesh_height", mesh);
  config::ArchConfig wall = base;
  wall.sim.max_wall_ms = 17;
  sim_only.emplace_back("sim.max_wall_ms", wall);
  ASSERT_GE(sim_only.size(), 30u);

  for (const auto& [name, cfg] : sim_only) {
    ASSERT_EQ(config::arch_key(cfg), config::arch_key(base)) << name;
    for (size_t i = 0; i < programs.size(); ++i) {
      ASSERT_EQ(programs[i].verify(cfg), want[i]) << name << " changed verify on program " << i;
    }
  }
}

// ------------------------------------------------ vector semantics vs golden

TEST(VectorFuzz, QuantizeMatchesGoldenFormula) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform(-100000, 100000);
    const int shift = static_cast<int>(rng.uniform(0, 12));
    const int8_t q = saturate_i8(rounded_shift_right(v, shift));
    // Inverse sanity: dequantized value within half a step (pre-saturation).
    if (q > -128 && q < 127) {
      EXPECT_LE(std::abs(v - (int64_t{q} << shift)), int64_t{1} << shift)
          << "v=" << v << " shift=" << shift;
    }
  }
}

TEST(VectorFuzz, RoundedShiftIdentities) {
  Rng rng(78);
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform(-1000000, 1000000);
    EXPECT_EQ(rounded_shift_right(v, 0), v);
    EXPECT_EQ(rounded_shift_right(-v, 3), -rounded_shift_right(v, 3));  // odd symmetry
  }
}

}  // namespace
}  // namespace pim
