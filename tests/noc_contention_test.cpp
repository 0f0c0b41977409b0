// Physical NoC checks: link contention serializes flows that share a link,
// disjoint flows proceed in parallel, and hop distance shows up in latency.
#include <gtest/gtest.h>

#include "arch/chip.h"
#include "config/arch_config.h"
#include "isa/assembler.h"

namespace pim::arch {
namespace {

using isa::DType;
using isa::Instruction;
using isa::Opcode;
using isa::Program;

/// 3x3 mesh for richer routing.
config::ArchConfig mesh9() {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  cfg.core_count = 9;
  cfg.mesh_width = 3;
  cfg.mesh_height = 3;
  cfg.validate();
  return cfg;
}

Instruction make_send(uint16_t dst, uint16_t tag, uint32_t len) {
  Instruction in;
  in.op = Opcode::SEND;
  in.core = dst;
  in.tag = tag;
  in.src1_addr = 0;
  in.len = len;
  return in;
}

Instruction make_recv(uint16_t src, uint16_t tag, uint32_t len) {
  Instruction in;
  in.op = Opcode::RECV;
  in.core = src;
  in.tag = tag;
  in.dst_addr = 0x100;
  in.len = len;
  return in;
}

Instruction halt() {
  Instruction in;
  in.op = Opcode::HALT;
  return in;
}

/// One message src -> dst of `len` bytes; returns completion time.
sim::Time one_flow(uint16_t src, uint16_t dst, uint32_t len) {
  Program p;
  p.cores.resize(9);
  p.cores[src].code = {make_send(dst, 0, len), halt()};
  p.cores[dst].code = {make_recv(src, 0, len), halt()};
  Chip chip(mesh9(), p);
  return chip.run().total_ps;
}

TEST(NocContention, LatencyGrowsWithHops) {
  // core 0 -> 1 (1 hop) vs core 0 -> 8 (4 hops), same payload.
  const sim::Time near = one_flow(0, 1, 256);
  const sim::Time far = one_flow(0, 8, 256);
  EXPECT_GT(far, near);
}

TEST(NocContention, LatencyGrowsWithPayload) {
  EXPECT_GT(one_flow(0, 8, 4096), one_flow(0, 8, 64));
}

TEST(NocContention, SharedLinkDelaysTheVictimFlow) {
  // Mesh ids: 0 1 2 / 3 4 5 / 6 7 8. XY routing.
  // Victim: core 0 sends a small message to core 2 (links 0->1, 1->2).
  // Bulk flow: a huge message that either crosses link 1->2 too (1 -> 5:
  // links 1->2, 2->5) or stays out of the way (6 -> 8). The victim's sender
  // must halt much later when the bulk flow occupies its link.
  auto victim_halt = [](uint16_t bulk_src, uint16_t bulk_dst) {
    Program p;
    p.cores.resize(9);
    // The victim spins ~700 cycles first so its message arrives while the
    // bulk flow (which pays a ~514-cycle local-memory read before touching
    // the mesh) occupies the shared link.
    p.cores[0].code = isa::assemble(R"(
        ldi r1, 350
        ldi r2, 0
      loop:
        saddi r2, r2, 1
        bne r2, r1, loop
    )").cores[0].code;
    p.cores[0].code.push_back(make_send(2, 0, 64));
    p.cores[0].code.push_back(halt());
    p.cores[2].code = {make_recv(0, 0, 64), halt()};
    p.cores[bulk_src].code = {make_send(bulk_dst, 0, 32768), halt()};
    p.cores[bulk_dst].code = {make_recv(bulk_src, 0, 32768), halt()};
    Chip chip(mesh9(), p);
    RunStats stats = chip.run();
    EXPECT_TRUE(chip.finished());
    return stats.cores[0].halt_time_ps;
  };
  const sim::Time contended = victim_halt(1, 5);
  const sim::Time clear = victim_halt(6, 8);
  // The blocked link costs the victim hundreds of extra NoC cycles.
  EXPECT_GT(contended, clear + 100'000);  // +100 ns at 1 GHz = 100 cycles
}

TEST(NocContention, ManyToOneFunnelsThroughReceiver) {
  // Cores 1..4 all send to core 0; the receiver's transfer unit and its
  // incoming links force near-serial delivery.
  Program p;
  p.cores.resize(9);
  const uint32_t len = 2048;
  for (uint16_t s = 1; s <= 4; ++s) {
    p.cores[s].code = {make_send(0, 0, len), halt()};
    p.cores[0].code.push_back(make_recv(s, 0, len));
  }
  p.cores[0].code.push_back(halt());
  Chip chip(mesh9(), p);
  const sim::Time fan_in = chip.run().total_ps;
  EXPECT_TRUE(chip.finished());
  // Must cost at least ~4x a single flow's serialization.
  const sim::Time single = one_flow(1, 0, len);
  EXPECT_GT(fan_in, 3 * single);
}

TEST(NocContention, ByteHopAccountingMatchesRoutes) {
  Program p;
  p.cores.resize(9);
  p.cores[0].code = {make_send(8, 0, 100), halt()};  // 4 hops
  p.cores[8].code = {make_recv(0, 0, 100), halt()};
  Chip chip(mesh9(), p);
  chip.run();
  EXPECT_EQ(chip.noc().total_byte_hops(), 400u);
  EXPECT_EQ(chip.noc().total_messages(), 1u);
}

TEST(NocContention, SelfSendIsRejectedByTheVerifier) {
  // A rendezvous with oneself can never complete (the core's transfer unit
  // executes one instruction at a time, and the SEND holds it while waiting
  // for the RECV queued behind it). The verifier must reject such programs;
  // local copies use VMOV.
  Program p;
  p.cores.resize(9);
  p.cores[4].code = {make_send(4, 0, 4), make_recv(4, 0, 4), halt()};
  auto errors = p.verify(mesh9());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("issuing core"), std::string::npos);
  EXPECT_THROW(Chip(mesh9(), p), std::invalid_argument);
}

}  // namespace
}  // namespace pim::arch
