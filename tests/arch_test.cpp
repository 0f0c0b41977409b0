// Unit tests for the cycle-accurate architecture model: NoC routing and
// contention, core execution of hand-written ISA programs (all four units),
// hazards, rendezvous transfers, global memory, deadlock detection, chips
// sized to their program, and how a run that stops early is logged.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "arch/chip.h"
#include "common/logging.h"
#include "config/arch_config.h"
#include "isa/assembler.h"

namespace pim::arch {
namespace {

using isa::DType;
using isa::Instruction;
using isa::Opcode;
using isa::Program;

config::ArchConfig tiny_cfg() {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.sim.functional = true;
  return cfg;
}

Instruction make(Opcode op) {
  Instruction in;
  in.op = op;
  return in;
}

Program empty_program(size_t cores) {
  Program p;
  p.cores.resize(cores);
  return p;
}

void push_halt(Program& p, size_t core) { p.cores[core].code.push_back(make(Opcode::HALT)); }

/// Links the walk takes from `from` to `to` (route_of, then next_link until
/// it is done), as the core's transfer unit takes them.
size_t walked_links(Noc& noc, uint16_t from, uint16_t to) {
  Noc::Route r = noc.route_of(from, to);
  size_t links = 0;
  while (noc.next_link(r) != nullptr) ++links;
  return links;
}

// -------------------------------------------------------------------- NoC

TEST(Noc, XyRouteLengths) {
  config::ArchConfig cfg = tiny_cfg();  // 2x2 mesh
  sim::Kernel k;
  EnergyMeter e;
  Noc noc(k, cfg, e);
  EXPECT_EQ(walked_links(noc, 0, 0), 0u);
  EXPECT_EQ(walked_links(noc, 0, 1), 1u);  // one hop east
  EXPECT_EQ(walked_links(noc, 0, 3), 2u);  // east then south
  EXPECT_EQ(walked_links(noc, 3, 0), 2u);
  EXPECT_EQ(noc.hop_count(0, 3), 2u);
  EXPECT_EQ(noc.hop_count(1, 2), 2u);
}

TEST(Noc, GlobalMemoryPortRoutesThroughRouter0) {
  config::ArchConfig cfg = tiny_cfg();
  sim::Kernel k;
  EnergyMeter e;
  Noc noc(k, cfg, e);
  EXPECT_EQ(walked_links(noc, Noc::kGlobalMemNode, 0), 1u);  // just the memory link
  EXPECT_EQ(walked_links(noc, Noc::kGlobalMemNode, 3), 3u);
  EXPECT_EQ(noc.hop_count(3, Noc::kGlobalMemNode), 3u);
}

TEST(Noc, ChargeAccountsEnergyAndBytes) {
  config::ArchConfig cfg = tiny_cfg();
  sim::Kernel k;
  EnergyMeter e;
  Noc noc(k, cfg, e);
  noc.charge(100, 3);
  EXPECT_EQ(noc.total_byte_hops(), 300u);
  EXPECT_DOUBLE_EQ(e.get(Component::Noc), cfg.noc.energy_pj_per_byte_hop * 300.0);
}

// ----------------------------------------------------------------- scalar

TEST(Core, ScalarLoopComputesSum) {
  // sum = 1 + 2 + ... + 10, left in r3; verified via the register-visible
  // side effect of a store... registers are internal, so expose the result
  // as a GSTORE of a vector initialized via VSET+VADDI chain instead.
  // Simpler: compute via scalar loop, then use r-value-independent check:
  // the loop must retire the right number of instructions.
  Program p = empty_program(1);
  p.cores[0].code = isa::assemble(R"(
      ldi r1, 10
      ldi r2, 0
      ldi r3, 0
    loop:
      saddi r2, r2, 1
      sadd r3, r3, r2
      bne r2, r1, loop
      halt
  )").cores[0].code;
  config::ArchConfig cfg = tiny_cfg();
  Chip chip(cfg, p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  // 3 ldi + 10 iterations x 3 + halt = 34 retired instructions.
  EXPECT_EQ(stats.cores[0].instructions_retired, 34u);
}

TEST(Core, TakenAndNotTakenBranches) {
  Program p = empty_program(1);
  p.cores[0].code = isa::assemble(R"(
      ldi r1, 1
      beq r1, r0, skip   # not taken
      saddi r2, r2, 1
    skip:
      jmp end
      saddi r2, r2, 100  # skipped
    end:
      halt
  )").cores[0].code;
  Chip chip(tiny_cfg(), p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  EXPECT_EQ(stats.cores[0].instructions_retired, 5u);  // ldi,beq,saddi,jmp,halt
}

// ----------------------------------------------------------------- vector

/// Runs a single-core program with `pre` preloaded into local memory and
/// returns the local memory after completion.
std::vector<uint8_t> run_single_core(const std::vector<Instruction>& code,
                                     const std::vector<isa::DataSegment>& segs = {},
                                     config::ArchConfig cfg = tiny_cfg(),
                                     sim::Time* latency = nullptr) {
  Program p = empty_program(1);
  p.cores[0].code = code;
  p.cores[0].code.push_back(make(Opcode::HALT));
  p.cores[0].lm_init = segs;
  Chip chip(cfg, p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  if (latency != nullptr) *latency = stats.total_ps;
  return chip.core(0).lm();
}

isa::DataSegment seg_i32(uint32_t addr, std::vector<int32_t> vals) {
  isa::DataSegment s;
  s.addr = addr;
  s.bytes.resize(vals.size() * 4);
  std::memcpy(s.bytes.data(), vals.data(), s.bytes.size());
  return s;
}

std::vector<int32_t> read_i32(const std::vector<uint8_t>& lm, uint32_t addr, size_t n) {
  std::vector<int32_t> out(n);
  std::memcpy(out.data(), lm.data() + addr, n * 4);
  return out;
}

TEST(VectorUnit, AddI32) {
  Instruction add = make(Opcode::VADD);
  add.dtype = DType::I32;
  add.dst_addr = 0x200;
  add.src1_addr = 0x0;
  add.src2_addr = 0x100;
  add.len = 4;
  auto lm = run_single_core({add}, {seg_i32(0x0, {1, -2, 3, 1000000}),
                                    seg_i32(0x100, {10, 20, -30, 1000000})});
  EXPECT_EQ(read_i32(lm, 0x200, 4), (std::vector<int32_t>{11, 18, -27, 2000000}));
}

TEST(VectorUnit, AddI8Saturates) {
  isa::DataSegment a;
  a.addr = 0;
  a.bytes = {100, 200 /* -56 */, 127};
  isa::DataSegment b;
  b.addr = 0x40;
  b.bytes = {100, 200, 1};
  Instruction add = make(Opcode::VADD);
  add.dtype = DType::I8;
  add.dst_addr = 0x80;
  add.src1_addr = 0;
  add.src2_addr = 0x40;
  add.len = 3;
  auto lm = run_single_core({add}, {a, b});
  EXPECT_EQ(static_cast<int8_t>(lm[0x80]), 127);    // 100+100 saturates
  EXPECT_EQ(static_cast<int8_t>(lm[0x81]), -112);   // -56 + -56
  EXPECT_EQ(static_cast<int8_t>(lm[0x82]), 127);    // 127+1 saturates
}

TEST(VectorUnit, QuantDequantRoundTrip) {
  Instruction vq = make(Opcode::VQUANT);
  vq.dst_addr = 0x100;
  vq.src1_addr = 0x0;
  vq.imm = 4;
  vq.len = 4;
  Instruction vd = make(Opcode::VDEQUANT);
  vd.dst_addr = 0x140;
  vd.src1_addr = 0x100;
  vd.len = 4;
  auto lm = run_single_core({vq, vd}, {seg_i32(0x0, {160, -160, 8, 100000})});
  // 160>>4=10, -160>>4=-10, 8>>4 rounds to 1 (0.5 away from zero), 100000>>4 sat 127
  EXPECT_EQ(read_i32(lm, 0x140, 4), (std::vector<int32_t>{10, -10, 1, 127}));
}

TEST(VectorUnit, ReluShrDivi) {
  Instruction relu = make(Opcode::VRELU);
  relu.dtype = DType::I32;
  relu.dst_addr = 0x100;
  relu.src1_addr = 0;
  relu.len = 3;
  Instruction shr = make(Opcode::VSHR);
  shr.dtype = DType::I32;
  shr.dst_addr = 0x200;
  shr.src1_addr = 0;
  shr.imm = 1;
  shr.len = 3;
  Instruction divi = make(Opcode::VDIVI);
  divi.dtype = DType::I32;
  divi.dst_addr = 0x300;
  divi.src1_addr = 0;
  divi.imm = 4;
  divi.len = 3;
  auto lm = run_single_core({relu, shr, divi}, {seg_i32(0, {-8, 0, 9})});
  EXPECT_EQ(read_i32(lm, 0x100, 3), (std::vector<int32_t>{0, 0, 9}));
  EXPECT_EQ(read_i32(lm, 0x200, 3), (std::vector<int32_t>{-4, 0, 5}));  // rounded
  EXPECT_EQ(read_i32(lm, 0x300, 3), (std::vector<int32_t>{-1, 0, 2}));  // (x+2)/4 trunc
}

TEST(VectorUnit, SetMovMaxMin) {
  Instruction vset = make(Opcode::VSET);
  vset.dtype = DType::I32;
  vset.dst_addr = 0x0;
  vset.imm = 7;
  vset.len = 4;
  Instruction vmov = make(Opcode::VMOV);
  vmov.dtype = DType::I32;
  vmov.dst_addr = 0x100;
  vmov.src1_addr = 0x0;
  vmov.len = 4;
  Instruction vmax = make(Opcode::VMAX);
  vmax.dtype = DType::I32;
  vmax.dst_addr = 0x200;
  vmax.src1_addr = 0x100;
  vmax.src2_addr = 0x300;
  vmax.len = 4;
  Instruction vmin = make(Opcode::VMIN);
  vmin.dtype = DType::I32;
  vmin.dst_addr = 0x240;
  vmin.src1_addr = 0x100;
  vmin.src2_addr = 0x300;
  vmin.len = 4;
  auto lm = run_single_core({vset, vmov, vmax, vmin}, {seg_i32(0x300, {1, 9, 7, -1})});
  EXPECT_EQ(read_i32(lm, 0x100, 4), (std::vector<int32_t>{7, 7, 7, 7}));
  EXPECT_EQ(read_i32(lm, 0x200, 4), (std::vector<int32_t>{7, 9, 7, 7}));
  EXPECT_EQ(read_i32(lm, 0x240, 4), (std::vector<int32_t>{1, 7, 7, -1}));
}

// ------------------------------------------------------------------ matrix

TEST(MatrixUnit, MvmComputesGroupGemv) {
  Program p = empty_program(1);
  isa::GroupDef g;
  g.id = 0;
  g.in_len = 3;
  g.out_len = 2;
  g.xbar_count = 1;
  // W row-major [in][out]: rows {1,2},{3,4},{5,6}
  g.weights = {1, 2, 3, 4, 5, 6};
  p.cores[0].groups.push_back(g);
  isa::DataSegment in;
  in.addr = 0;
  in.bytes = {1, 0xFF /* -1 */, 2};
  p.cores[0].lm_init.push_back(in);
  Instruction mvm = make(Opcode::MVM);
  mvm.group = 0;
  mvm.src1_addr = 0;
  mvm.dst_addr = 0x100;
  mvm.len = 3;
  p.cores[0].code.push_back(mvm);
  push_halt(p, 0);
  Chip chip(tiny_cfg(), p);
  chip.run();
  EXPECT_TRUE(chip.finished());
  // out = [1*1 -1*3 + 2*5, 1*2 -1*4 + 2*6] = [8, 10]
  auto lm = chip.core(0).lm();
  int32_t out[2];
  std::memcpy(out, lm.data() + 0x100, 8);
  EXPECT_EQ(out[0], 8);
  EXPECT_EQ(out[1], 10);
  EXPECT_EQ(chip.stats().cores[0].matrix.ops, 1u);
  EXPECT_GT(chip.stats().energy.get(Component::Xbar), 0.0);
  EXPECT_GT(chip.stats().energy.get(Component::Adc), 0.0);
}

TEST(MatrixUnit, SameGroupSerializesDifferentGroupsOverlap) {
  auto build = [](bool same_group) {
    Program p = empty_program(1);
    for (uint16_t gid = 0; gid < 2; ++gid) {
      isa::GroupDef g;
      g.id = gid;
      g.in_len = 16;
      g.out_len = 16;
      g.xbar_count = 1;
      p.cores[0].groups.push_back(g);
    }
    for (int i = 0; i < 2; ++i) {
      Instruction mvm = make(Opcode::MVM);
      mvm.group = same_group ? 0 : static_cast<uint16_t>(i);
      mvm.src1_addr = 0;
      mvm.dst_addr = 0x100 + 0x100 * static_cast<uint32_t>(i);
      mvm.len = 16;
      p.cores[0].code.push_back(mvm);
    }
    push_halt(p, 0);
    return p;
  };
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  Program same = build(true), diff = build(false);
  Chip c1(cfg, same), c2(cfg, diff);
  const sim::Time t_same = c1.run().total_ps;
  const sim::Time t_diff = c2.run().total_ps;
  // The structure hazard (paper Fig. 4): same group is markedly slower.
  EXPECT_GT(t_same, t_diff + t_diff / 2);
}

TEST(MatrixUnit, AdcSharingSerializes) {
  auto run_with_adc = [](uint32_t adcs) {
    config::ArchConfig cfg = tiny_cfg();
    cfg.core.matrix.adc_count = adcs;
    cfg.core.rob_size = 8;
    Program p = empty_program(1);
    for (uint16_t gid = 0; gid < 4; ++gid) {
      isa::GroupDef g;
      g.id = gid;
      g.in_len = 32;
      g.out_len = 32;
      g.xbar_count = 1;
      p.cores[0].groups.push_back(g);
      Instruction mvm = make(Opcode::MVM);
      mvm.group = gid;
      mvm.src1_addr = 0;
      mvm.dst_addr = 0x100 + 0x100 * gid;
      mvm.len = 32;
      p.cores[0].code.push_back(mvm);
    }
    push_halt(p, 0);
    Chip chip(cfg, p);
    return chip.run().total_ps;
  };
  EXPECT_GT(run_with_adc(1), run_with_adc(4));
}

// ---------------------------------------------------------------- transfer

TEST(Transfer, SendRecvMovesDataAcrossCores) {
  Program p = empty_program(4);
  isa::DataSegment seg;
  seg.addr = 0;
  seg.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  p.cores[0].lm_init.push_back(seg);
  Instruction snd = make(Opcode::SEND);
  snd.core = 3;
  snd.tag = 0;
  snd.src1_addr = 0;
  snd.len = 8;
  p.cores[0].code.push_back(snd);
  push_halt(p, 0);
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 0;
  rcv.tag = 0;
  rcv.dst_addr = 0x40;
  rcv.len = 8;
  p.cores[3].code.push_back(rcv);
  push_halt(p, 3);
  Chip chip(tiny_cfg(), p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chip.core(3).lm()[0x40 + static_cast<size_t>(i)], static_cast<uint8_t>(i + 1));
  }
  EXPECT_EQ(stats.cores[0].bytes_sent, 8u);
  EXPECT_EQ(stats.cores[3].bytes_received, 8u);
  EXPECT_GT(stats.energy.get(Component::Noc), 0.0);
}

TEST(Transfer, RendezvousBlocksSenderUntilRecvPosted) {
  // Receiver delays its RECV with a long scalar spin; SEND must wait.
  Program p = empty_program(4);
  Instruction snd = make(Opcode::SEND);
  snd.core = 1;
  snd.tag = 0;
  snd.src1_addr = 0;
  snd.len = 4;
  p.cores[0].code.push_back(snd);
  push_halt(p, 0);
  auto spin = isa::assemble(R"(
      ldi r1, 2000
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
  )").cores[0].code;
  p.cores[1].code = spin;
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 0;
  rcv.tag = 0;
  rcv.dst_addr = 0x40;
  rcv.len = 4;
  p.cores[1].code.push_back(rcv);
  push_halt(p, 1);
  config::ArchConfig cfg = tiny_cfg();
  Chip chip(cfg, p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  // Core 0 halts only after the rendezvous completes -> after the spin.
  const sim::Time spin_time =
      static_cast<sim::Time>(2000 * 2) * 1000;  // ~2 instr/iter, 1ns cycle
  EXPECT_GT(stats.cores[0].halt_time_ps, spin_time / 2);
}

TEST(Transfer, MismatchedRecvDeadlocksAndIsReported) {
  Program p = empty_program(4);
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 2;
  rcv.tag = 0;
  rcv.dst_addr = 0;
  rcv.len = 4;
  p.cores[1].code.push_back(rcv);
  push_halt(p, 1);
  // NOTE: verify() would flag this program; bypass it by building the chip
  // with a matching-but-never-executed send... instead use max_time budget.
  Instruction snd = make(Opcode::SEND);
  snd.core = 1;
  snd.tag = 0;
  snd.src1_addr = 0;
  snd.len = 4;
  // Put the matching SEND after an infinite-ish spin so it never fires
  // within the budget.
  auto spin = isa::assemble(R"(
      ldi r1, 1000000
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
  )").cores[0].code;
  p.cores[2].code = spin;
  p.cores[2].code.push_back(snd);
  push_halt(p, 2);
  config::ArchConfig cfg = tiny_cfg();
  cfg.sim.max_time_ps = 1'000'000'000;  // 1 ms budget
  Chip chip(cfg, p);
  chip.run();
  EXPECT_FALSE(chip.finished());
}

TEST(Transfer, SendLargerThanItsRecvDeliversOnlyTheRecvRange) {
  // verify pairs byte totals per (src, dst, tag), and the rendezvous pairs
  // instructions in FIFO order: the 16-byte tag-2 send meets the 8-byte
  // tag-1 recv at the top of core 1's local memory. Only the 8 bytes that
  // recv reserved may land there.
  Program p = empty_program(2);
  isa::DataSegment seg;
  seg.addr = 0;
  for (uint8_t i = 0; i < 24; ++i) seg.bytes.push_back(static_cast<uint8_t>(i + 1));
  p.cores[0].lm_init.push_back(seg);
  Instruction small = make(Opcode::SEND);
  small.core = 1;
  small.tag = 1;
  small.len = 8;
  Instruction large = small;
  large.tag = 2;
  large.src1_addr = 8;
  large.len = 16;
  p.cores[0].code = {small, large};
  push_halt(p, 0);
  Instruction first = make(Opcode::RECV);
  first.core = 0;
  first.tag = 2;
  first.len = 16;
  Instruction second = first;
  second.tag = 1;
  second.dst_addr = 0x10;
  second.len = 8;
  p.cores[1].code = {first, second};
  push_halt(p, 1);
  ASSERT_TRUE(p.verify(tiny_cfg()).empty());
  ASSERT_EQ(p.cores[1].lm_high_water(), 0x18u);
  Chip chip(tiny_cfg(), p);
  chip.run();
  EXPECT_TRUE(chip.finished());
  const std::vector<uint8_t>& lm = chip.core(1).lm();
  ASSERT_EQ(lm.size(), 0x18u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(lm[i], i + 1) << i;             // the small send, into `first`
    EXPECT_EQ(lm[0x10 + i], i + 9) << i;      // the large send's first 8 bytes
  }
}

TEST(Transfer, GloadGstoreRoundTripThroughGlobalMemory) {
  Program p = empty_program(4);
  Instruction gl = make(Opcode::GLOAD);
  gl.dst_addr = 0x0;
  gl.imm = 0x1000;
  gl.len = 16;
  Instruction gs = make(Opcode::GSTORE);
  gs.src1_addr = 0x0;
  gs.imm = 0x2000;
  gs.len = 16;
  p.cores[2].code = {gl, gs};
  push_halt(p, 2);
  Chip chip(tiny_cfg(), p);
  std::vector<uint8_t> input(16);
  for (size_t i = 0; i < 16; ++i) input[i] = static_cast<uint8_t>(0xA0 + i);
  chip.write_global(0x1000, input);
  chip.run();
  EXPECT_TRUE(chip.finished());
  EXPECT_EQ(chip.read_global(0x2000, 16), input);
  EXPECT_GT(chip.stats().energy.get(Component::GlobalMemory), 0.0);
}

// ------------------------------------------------------------------ hazards

TEST(Hazards, RawChainPreservesFunctionalOrder) {
  // v[0x100] = set(3); v[0x200] = v[0x100] + v[0x100]  -> 6, even with a
  // large ROB that would otherwise reorder.
  Instruction vset = make(Opcode::VSET);
  vset.dtype = DType::I32;
  vset.dst_addr = 0x100;
  vset.imm = 3;
  vset.len = 4;
  Instruction vadd = make(Opcode::VADD);
  vadd.dtype = DType::I32;
  vadd.dst_addr = 0x200;
  vadd.src1_addr = 0x100;
  vadd.src2_addr = 0x100;
  vadd.len = 4;
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  auto lm = run_single_core({vset, vadd}, {}, cfg);
  EXPECT_EQ(read_i32(lm, 0x200, 4), (std::vector<int32_t>{6, 6, 6, 6}));
}

TEST(Hazards, WawKeepsLastWriter) {
  Instruction s1 = make(Opcode::VSET);
  s1.dtype = DType::I32;
  s1.dst_addr = 0x100;
  s1.imm = 1;
  s1.len = 2;
  Instruction s2 = s1;
  s2.imm = 2;
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  auto lm = run_single_core({s1, s2}, {}, cfg);
  EXPECT_EQ(read_i32(lm, 0x100, 2), (std::vector<int32_t>{2, 2}));
}

TEST(Hazards, RobSizeOneStillCorrect) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 1;
  Instruction vset = make(Opcode::VSET);
  vset.dtype = DType::I32;
  vset.dst_addr = 0x0;
  vset.imm = 5;
  vset.len = 8;
  Instruction vmul = make(Opcode::VMULI);
  vmul.dtype = DType::I32;
  vmul.dst_addr = 0x100;
  vmul.src1_addr = 0x0;
  vmul.imm = 3;
  vmul.len = 8;
  auto lm = run_single_core({vset, vmul}, {}, cfg);
  EXPECT_EQ(read_i32(lm, 0x100, 8), std::vector<int32_t>(8, 15));
}

TEST(Hazards, LargerRobReducesLatencyForIndependentWork) {
  auto run_with_rob = [](uint32_t rob) {
    config::ArchConfig cfg = tiny_cfg();
    cfg.core.rob_size = rob;
    std::vector<Instruction> code;
    // 8 independent (MVM, quant) pairs on different groups/addresses.
    Program p = empty_program(1);
    for (uint16_t i = 0; i < 8; ++i) {
      isa::GroupDef g;
      g.id = i;
      g.in_len = 32;
      g.out_len = 32;
      g.xbar_count = 1;
      p.cores[0].groups.push_back(g);
      Instruction mvm = make(Opcode::MVM);
      mvm.group = i;
      mvm.src1_addr = 0;
      mvm.dst_addr = 0x1000 + 0x100u * i;
      mvm.len = 32;
      p.cores[0].code.push_back(mvm);
    }
    push_halt(p, 0);
    Chip chip(cfg, p);
    return chip.run().total_ps;
  };
  const sim::Time t1 = run_with_rob(1);
  const sim::Time t8 = run_with_rob(8);
  EXPECT_GT(t1, t8 * 3);  // near-linear overlap on independent groups
}

TEST(Stats, RobFullStallsCounted) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 1;
  Program p = empty_program(1);
  std::vector<Instruction> code;
  for (int i = 0; i < 4; ++i) {
    Instruction vset = make(Opcode::VSET);
    vset.dtype = DType::I32;
    vset.dst_addr = 0x100u * static_cast<uint32_t>(i);
    vset.imm = i;
    vset.len = 16;
    code.push_back(vset);
  }
  sim::Time latency = 0;
  run_single_core(code, {}, cfg, &latency);
  // With ROB=1 dispatch must stall; just assert the run completed with the
  // expected serialized latency ordering vs a larger ROB.
  config::ArchConfig cfg8 = tiny_cfg();
  cfg8.core.rob_size = 8;
  sim::Time latency8 = 0;
  run_single_core(code, {}, cfg8, &latency8);
  EXPECT_GE(latency, latency8);
}

TEST(Chip, RunTwiceThrows) {
  Program p = empty_program(1);
  push_halt(p, 0);
  Chip chip(tiny_cfg(), p);
  chip.run();
  EXPECT_THROW(chip.run(), std::logic_error);
}

TEST(Chip, InvalidProgramRejectedAtConstruction) {
  Program p = empty_program(1);
  Instruction mvm = make(Opcode::MVM);
  mvm.group = 9;  // undefined
  mvm.len = 4;
  p.cores[0].code.push_back(mvm);
  push_halt(p, 0);
  EXPECT_THROW(Chip(tiny_cfg(), p), std::invalid_argument);
}

TEST(Chip, StaticEnergyScalesWithTime) {
  Program p = empty_program(1);
  p.cores[0].code = isa::assemble(R"(
      ldi r1, 100
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
      halt
  )").cores[0].code;
  Chip chip(tiny_cfg(), p);
  RunStats stats = chip.run();
  EXPECT_GT(stats.energy.get(Component::Static), 0.0);
  EXPECT_NEAR(stats.energy.get(Component::Static),
              chip.static_power_mw() * static_cast<double>(stats.total_ps) * 1e-3,
              stats.energy.get(Component::Static) * 1e-9);
}

// ------------------------------------------------------------- chip sizing

/// Core 0 sends an 8-byte data segment to core 5, which adds it to itself;
/// every other core of the chip has no code.
Program two_core_program(size_t cores) {
  Program p = empty_program(cores);
  isa::DataSegment seg;
  seg.addr = 0x100;
  seg.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  p.cores[0].lm_init.push_back(seg);
  Instruction snd = make(Opcode::SEND);
  snd.core = 5;
  snd.src1_addr = 0x100;
  snd.len = 8;
  p.cores[0].code.push_back(snd);
  push_halt(p, 0);
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 0;
  rcv.dst_addr = 0x2000;
  rcv.len = 8;
  Instruction add = make(Opcode::VADD);
  add.dst_addr = 0x2000;
  add.src1_addr = 0x2000;
  add.src2_addr = 0x2000;
  add.len = 8;
  p.cores[5].code = {rcv, add};
  push_halt(p, 5);
  return p;
}

TEST(ChipSizing, FunctionalChipModelsOnlyCoresWithCodeAtTheirHighWater) {
  config::ArchConfig cfg = config::ArchConfig::preset("paper");  // 64 cores x 4 MB
  cfg.sim.functional = true;
  const Program p = two_core_program(cfg.core_count);
  telemetry::TraceSink trace;
  Chip chip(cfg, p, &trace);
  // Core 0 touches [0x100, +8); core 5's i8 recv and vadd touch [0x2000, +8).
  EXPECT_EQ(p.cores[0].lm_high_water(), 0x108u);
  EXPECT_EQ(p.cores[5].lm_high_water(), 0x2008u);
  EXPECT_EQ(chip.core(0).lm().size(), p.cores[0].lm_high_water());
  EXPECT_EQ(chip.core(5).lm().size(), p.cores[5].lm_high_water());
  for (uint16_t id = 0; id < cfg.core_count; ++id) {
    if (id == 0 || id == 5) continue;
    EXPECT_THROW(chip.core(id), std::out_of_range) << "core " << id << " has no code";
  }
  const RunStats stats = chip.run();
  ASSERT_TRUE(chip.finished());
  EXPECT_EQ(stats.cores.size(), cfg.core_count);  // reports keep every core
  EXPECT_EQ(stats.cores[5].bytes_received, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chip.core(5).lm()[0x2000 + static_cast<size_t>(i)], 2 * (i + 1));
  }
  // Cores without a model get no trace rows either.
  const std::string doc = trace.to_json().dump();
  EXPECT_NE(doc.find("core5/vector"), std::string::npos);
  EXPECT_EQ(doc.find("\"core1/"), std::string::npos);
}

TEST(ChipSizing, TimingOnlyChipAllocatesNoLocalMemory) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core_count = 8;
  cfg.mesh_width = 4;
  cfg.mesh_height = 2;
  cfg.sim.functional = false;
  const Program p = two_core_program(6);
  Chip chip(cfg, p);
  EXPECT_TRUE(chip.core(0).lm().empty());
  EXPECT_TRUE(chip.core(5).lm().empty());
  EXPECT_THROW(chip.core(7), std::out_of_range);  // beyond the program's cores
  chip.run();
  EXPECT_TRUE(chip.finished());
}

// ------------------------------------------------------ early-stop logging

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(ChipLog, BudgetStopIsDebugAndDeadlockIsError) {
  const std::string path = ::testing::TempDir() + "pim_chip_log.txt";
  std::remove(path.c_str());
  const log::Level saved = log::level();
  log::set_level(log::Level::Debug);
  log::set_sink_file(path);

  // A spin loop cut short by the simulated-time budget: events remain.
  Program spin = empty_program(1);
  spin.cores[0].code = isa::assemble(R"(
      ldi r1, 1000000
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
      halt
  )").cores[0].code;
  config::ArchConfig budget = tiny_cfg();
  budget.sim.max_time_ps = 1'000'000;
  Chip stopped(budget, spin);
  stopped.run();
  EXPECT_FALSE(stopped.finished());
  const std::string after_budget = read_file(path);

  // Each core RECVs before it SENDs to the other: the program verifies
  // (flows pair up) but both transfer units wait forever; the queue drains.
  Program cycle = empty_program(2);
  for (uint16_t c = 0; c < 2; ++c) {
    Instruction rcv = make(Opcode::RECV);
    rcv.core = static_cast<uint16_t>(1 - c);
    rcv.tag = static_cast<uint16_t>(1 - c);
    rcv.len = 4;
    Instruction snd = make(Opcode::SEND);
    snd.core = static_cast<uint16_t>(1 - c);
    snd.tag = c;
    snd.len = 4;
    cycle.cores[c].code = {rcv, snd};
    push_halt(cycle, c);
  }
  Chip deadlocked(tiny_cfg(), cycle);
  deadlocked.run();
  EXPECT_FALSE(deadlocked.finished());
  const std::string after_deadlock = read_file(path);

  log::set_sink_file("");
  log::set_level(saved);
  std::remove(path.c_str());

  EXPECT_NE(after_budget.find("[DEBUG] simulation stopped at its time limit"),
            std::string::npos)
      << after_budget;
  EXPECT_EQ(after_budget.find("[ERROR]"), std::string::npos) << after_budget;
  const std::string deadlock_log = after_deadlock.substr(after_budget.size());
  EXPECT_NE(deadlock_log.find("[ERROR] simulation deadlocked"), std::string::npos)
      << deadlock_log;
}

}  // namespace
}  // namespace pim::arch
