// Unit tests for the ISA: opcode metadata, binary encoding, assembler,
// program container and structural verifier.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "isa/assembler.h"
#include "isa/isa.h"
#include "isa/program.h"
#include "isa_corpus.h"
#include "json/json.h"
#include "nn/models.h"

namespace pim::isa {
namespace {

TEST(Opcode, ClassRanges) {
  EXPECT_EQ(instr_class(Opcode::MVM), InstrClass::Matrix);
  EXPECT_EQ(instr_class(Opcode::VADD), InstrClass::Vector);
  EXPECT_EQ(instr_class(Opcode::VQUANT), InstrClass::Vector);
  EXPECT_EQ(instr_class(Opcode::SEND), InstrClass::Transfer);
  EXPECT_EQ(instr_class(Opcode::GSTORE), InstrClass::Transfer);
  EXPECT_EQ(instr_class(Opcode::LDI), InstrClass::Scalar);
  EXPECT_EQ(instr_class(Opcode::HALT), InstrClass::Scalar);
}

TEST(Opcode, NameRoundTrip) {
  for (Opcode op : {Opcode::MVM, Opcode::VADD, Opcode::VSUB, Opcode::VMUL, Opcode::VMAX,
                    Opcode::VMIN, Opcode::VADDI, Opcode::VMULI, Opcode::VSHR, Opcode::VDIVI,
                    Opcode::VRELU, Opcode::VSIGMOID, Opcode::VTANH, Opcode::VMOV, Opcode::VSET,
                    Opcode::VQUANT, Opcode::VDEQUANT, Opcode::SEND, Opcode::RECV, Opcode::GLOAD,
                    Opcode::GSTORE, Opcode::LDI, Opcode::SADD, Opcode::SSUB, Opcode::SMUL,
                    Opcode::SADDI, Opcode::SAND, Opcode::SOR, Opcode::SXOR, Opcode::SSLL,
                    Opcode::SSRA, Opcode::JMP, Opcode::BEQ, Opcode::BNE, Opcode::BLT,
                    Opcode::BGE, Opcode::NOP, Opcode::HALT}) {
    EXPECT_EQ(opcode_from_name(opcode_name(op)), op);
  }
  EXPECT_THROW(opcode_from_name("bogus"), std::invalid_argument);
}

TEST(Instruction, BytesInOut) {
  Instruction mvm;
  mvm.op = Opcode::MVM;
  mvm.len = 100;
  EXPECT_EQ(mvm.bytes_in(), 100u);  // int8 input vector

  Instruction vadd;
  vadd.op = Opcode::VADD;
  vadd.dtype = DType::I32;
  vadd.len = 10;
  EXPECT_EQ(vadd.bytes_in(), 80u);   // two i32 sources
  EXPECT_EQ(vadd.bytes_out(), 40u);

  Instruction vq;
  vq.op = Opcode::VQUANT;
  vq.len = 16;
  EXPECT_EQ(vq.bytes_in(), 64u);   // i32 in
  EXPECT_EQ(vq.bytes_out(), 16u);  // i8 out

  Instruction vd;
  vd.op = Opcode::VDEQUANT;
  vd.len = 16;
  EXPECT_EQ(vd.bytes_in(), 16u);
  EXPECT_EQ(vd.bytes_out(), 64u);

  Instruction send;
  send.op = Opcode::SEND;
  send.dtype = DType::I32;
  send.len = 8;
  EXPECT_EQ(send.bytes_in(), 32u);
  EXPECT_EQ(send.bytes_out(), 0u);

  Instruction vset;
  vset.op = Opcode::VSET;
  vset.dtype = DType::I8;
  vset.len = 4;
  EXPECT_EQ(vset.bytes_in(), 0u);
  EXPECT_EQ(vset.bytes_out(), 4u);
}

// ------------------------------------------------------- encoding round-trip

Instruction mvm_instr() {
  Instruction in;
  in.op = Opcode::MVM;
  in.group = 513;
  in.dst_addr = 0xABCDE;
  in.src1_addr = 0x12345;
  in.len = 12345;
  return in;
}

TEST(Encoding, MatrixRoundTrip) {
  Instruction in = mvm_instr();
  EXPECT_EQ(decode(encode(in)), in);
}

TEST(Encoding, VectorRegFormRoundTrip) {
  Instruction in;
  in.op = Opcode::VADD;
  in.dtype = DType::I32;
  in.dst_addr = 0xFFFFC;
  in.src1_addr = 0x00004;
  in.src2_addr = 0x80000;
  in.len = 4095;
  EXPECT_EQ(decode(encode(in)), in);
}

TEST(Encoding, VectorImmFormRoundTripSignExtends) {
  Instruction in;
  in.op = Opcode::VQUANT;
  in.dtype = DType::I8;
  in.dst_addr = 0x100;
  in.src1_addr = 0x200;
  in.imm = -7;  // negative immediates survive the 20-bit field
  in.len = 64;
  EXPECT_EQ(decode(encode(in)), in);
  in.op = Opcode::VADDI;
  in.imm = 0x7FFFF;  // max positive 20-bit
  EXPECT_EQ(decode(encode(in)), in);
}

TEST(Encoding, TransferRoundTrip) {
  Instruction snd;
  snd.op = Opcode::SEND;
  snd.dtype = DType::I32;
  snd.src1_addr = 0xF00F0;
  snd.len = 65535;
  snd.core = 63;
  snd.tag = 999;
  EXPECT_EQ(decode(encode(snd)), snd);

  Instruction rcv;
  rcv.op = Opcode::RECV;
  rcv.dst_addr = 0x3C;
  rcv.len = 1;
  rcv.core = 0;
  rcv.tag = 65535;
  EXPECT_EQ(decode(encode(rcv)), rcv);

  Instruction gl;
  gl.op = Opcode::GLOAD;
  gl.dst_addr = 0x40;
  gl.imm = static_cast<int32_t>(0xDEADBEEF);
  gl.len = 4095;
  EXPECT_EQ(decode(encode(gl)), gl);

  Instruction gs;
  gs.op = Opcode::GSTORE;
  gs.src1_addr = 0x80;
  gs.imm = 0x1000;
  gs.len = 100;
  gs.dtype = DType::I8;
  EXPECT_EQ(decode(encode(gs)), gs);
}

TEST(Encoding, ScalarRoundTrip) {
  Instruction in;
  in.op = Opcode::SADDI;
  in.rd = 31;
  in.rs1 = 17;
  in.imm = -123456;
  EXPECT_EQ(decode(encode(in)), in);

  Instruction br;
  br.op = Opcode::BNE;
  br.rs1 = 1;
  br.rs2 = 2;
  br.imm = 42;
  EXPECT_EQ(decode(encode(br)), br);
}

TEST(Encoding, RejectsAValueItsFieldCannotHold) {
  // Vector addresses have 20 bits: 0x100000 used to encode as 0.
  Instruction in;
  in.op = Opcode::VADD;
  in.dst_addr = 0x100000;
  in.len = 4;
  try {
    encode(in);
    ADD_FAILURE() << "encoded " << to_string(in);
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("vadd"), std::string::npos) << what;
    EXPECT_NE(what.find("dst"), std::string::npos) << what;
  }
  in.dst_addr = 0xFFFFF;
  EXPECT_EQ(decode(encode(in)), in);

  // A vector immediate is a signed 20-bit value.
  Instruction imm;
  imm.op = Opcode::VADDI;
  imm.imm = -(1 << 19);
  EXPECT_EQ(decode(encode(imm)), imm);
  imm.imm = 1 << 19;
  EXPECT_THROW(encode(imm), std::out_of_range);

  Instruction mvm = mvm_instr();
  mvm.src1_addr = 0x1000000;  // MVM addresses have 24 bits
  EXPECT_THROW(encode(mvm), std::out_of_range);
  Instruction vec_len;
  vec_len.op = Opcode::VRELU;
  vec_len.len = 4096;  // vector lengths have 12 bits
  EXPECT_THROW(encode(vec_len), std::out_of_range);
}

/// Property sweep: every vector opcode round-trips with representative
/// operand patterns.
class VectorEncodingTest : public ::testing::TestWithParam<Opcode> {};

TEST_P(VectorEncodingTest, RoundTrip) {
  Instruction in;
  in.op = GetParam();
  in.dtype = DType::I32;
  in.dst_addr = 0x54320;
  in.len = 321;
  if (uses_vector_imm(in.op)) {
    in.imm = -3;
  } else {
    in.src2_addr = 0x11111;
  }
  if (in.op != Opcode::VSET) in.src1_addr = 0x22222;
  if (in.op == Opcode::VSET) in.src2_addr = 0;  // imm form carries no src2
  Instruction dec = decode(encode(in));
  if (uses_vector_imm(in.op)) {
    EXPECT_EQ(dec, in);
  } else {
    EXPECT_EQ(dec, in);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVectorOps, VectorEncodingTest,
                         ::testing::Values(Opcode::VADD, Opcode::VSUB, Opcode::VMUL,
                                           Opcode::VMAX, Opcode::VMIN, Opcode::VADDI,
                                           Opcode::VMULI, Opcode::VSHR, Opcode::VDIVI,
                                           Opcode::VRELU, Opcode::VSIGMOID, Opcode::VTANH,
                                           Opcode::VMOV, Opcode::VQUANT, Opcode::VDEQUANT));

// ------------------------------------------------------------------ assembler

TEST(Assembler, RoundTripThroughDisassembly) {
  Program p;
  p.network_name = "demo";
  p.cores.resize(2);
  GroupDef g;
  g.id = 0;
  g.in_len = 32;
  g.out_len = 16;
  g.xbar_count = 1;
  g.out_shift = 9;
  p.cores[0].groups.push_back(g);

  Instruction mvm;
  mvm.op = Opcode::MVM;
  mvm.group = 0;
  mvm.dst_addr = 0x400;
  mvm.src1_addr = 0x0;
  mvm.len = 32;
  p.cores[0].code.push_back(mvm);

  Instruction vq;
  vq.op = Opcode::VQUANT;
  vq.dst_addr = 0x600;
  vq.src1_addr = 0x400;
  vq.imm = 9;
  vq.len = 16;
  p.cores[0].code.push_back(vq);

  Instruction snd;
  snd.op = Opcode::SEND;
  snd.core = 1;
  snd.tag = 0;
  snd.src1_addr = 0x600;
  snd.len = 16;
  p.cores[0].code.push_back(snd);
  Instruction halt;
  halt.op = Opcode::HALT;
  p.cores[0].code.push_back(halt);

  Instruction rcv;
  rcv.op = Opcode::RECV;
  rcv.core = 0;
  rcv.tag = 0;
  rcv.dst_addr = 0x0;
  rcv.len = 16;
  p.cores[1].code.push_back(rcv);
  p.cores[1].code.push_back(halt);

  Program back = assemble(disassemble(p));
  ASSERT_EQ(back.cores.size(), p.cores.size());
  EXPECT_EQ(back.cores[0].code, p.cores[0].code);
  EXPECT_EQ(back.cores[1].code, p.cores[1].code);
  EXPECT_EQ(back.cores[0].groups, p.cores[0].groups);
  EXPECT_EQ(back.network_name, "demo");
}

TEST(Assembler, LabelsAndBranches) {
  Program p = assemble(R"(
    .core 0
      ldi r1, 5
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
      halt
  )");
  ASSERT_EQ(p.cores.size(), 1u);
  ASSERT_EQ(p.cores[0].code.size(), 5u);
  EXPECT_EQ(p.cores[0].code[3].op, Opcode::BNE);
  EXPECT_EQ(p.cores[0].code[3].imm, 2);  // label 'loop' at pc 2
}

TEST(Assembler, CommentsAndBlankLines) {
  Program p = assemble("# header\n\n  nop ; trailing\n  halt\n");
  ASSERT_EQ(p.cores[0].code.size(), 2u);
  EXPECT_EQ(p.cores[0].code[0].op, Opcode::NOP);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("nop\nbogus r1\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(assemble("jmp nowhere\nhalt"), std::invalid_argument);
  EXPECT_THROW(assemble(".group id=0"), std::invalid_argument);  // missing fields
}

// ------------------------------------------------------------------- program

Program minimal_program() {
  Program p;
  p.cores.resize(1);
  GroupDef g;
  g.id = 0;
  g.in_len = 32;
  g.out_len = 32;
  g.xbar_count = 1;
  p.cores[0].groups.push_back(g);
  Instruction mvm;
  mvm.op = Opcode::MVM;
  mvm.group = 0;
  mvm.src1_addr = 0;
  mvm.dst_addr = 0x100;
  mvm.len = 32;
  p.cores[0].code.push_back(mvm);
  Instruction halt;
  halt.op = Opcode::HALT;
  p.cores[0].code.push_back(halt);
  return p;
}

TEST(ProgramVerify, AcceptsMinimal) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  EXPECT_TRUE(minimal_program().verify(cfg).empty());
}

TEST(ProgramVerify, CatchesUndefinedGroup) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  p.cores[0].code[0].group = 7;
  auto errs = p.verify(cfg);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("undefined group"), std::string::npos);
}

TEST(ProgramVerify, CatchesLenMismatch) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  p.cores[0].code[0].len = 16;  // != group in_len
  EXPECT_FALSE(p.verify(cfg).empty());
}

TEST(ProgramVerify, CatchesMissingHalt) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  p.cores[0].code.pop_back();
  EXPECT_FALSE(p.verify(cfg).empty());
}

TEST(ProgramVerify, CatchesLocalMemoryOverflow) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  Instruction mv;
  mv.op = Opcode::VMOV;
  mv.dtype = DType::I8;
  mv.dst_addr = static_cast<uint32_t>(cfg.core.local_memory.size_bytes - 4);
  mv.src1_addr = 0;
  mv.len = 64;
  p.cores[0].code.insert(p.cores[0].code.end() - 1, mv);
  auto errs = p.verify(cfg);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("local memory"), std::string::npos);
}

TEST(ProgramVerify, CatchesUnmatchedSend) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  Instruction snd;
  snd.op = Opcode::SEND;
  snd.core = 1;
  snd.tag = 3;
  snd.src1_addr = 0;
  snd.len = 8;
  p.cores[0].code.insert(p.cores[0].code.end() - 1, snd);
  auto errs = p.verify(cfg);
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("no matching recv"), std::string::npos);
}

TEST(ProgramVerify, CatchesSendRecvByteMismatch) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  p.cores.resize(2);
  Instruction snd;
  snd.op = Opcode::SEND;
  snd.core = 1;
  snd.tag = 0;
  snd.len = 8;
  p.cores[0].code.insert(p.cores[0].code.end() - 1, snd);
  Instruction rcv;
  rcv.op = Opcode::RECV;
  rcv.core = 0;
  rcv.tag = 0;
  rcv.len = 16;  // mismatched byte count
  p.cores[1].code.push_back(rcv);
  Instruction halt;
  halt.op = Opcode::HALT;
  p.cores[1].code.push_back(halt);
  auto errs = p.verify(cfg);
  ASSERT_FALSE(errs.empty());
}

TEST(ProgramVerify, CatchesBranchOutOfRange) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  Instruction jmp;
  jmp.op = Opcode::JMP;
  jmp.imm = 100;
  p.cores[0].code.insert(p.cores[0].code.end() - 1, jmp);
  EXPECT_FALSE(p.verify(cfg).empty());
}

TEST(ProgramVerify, CatchesTooManyXbars) {
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  Program p = minimal_program();
  p.cores[0].groups[0].xbar_count = cfg.core.matrix.xbar_count + 1;
  EXPECT_FALSE(p.verify(cfg).empty());
}

// ----------------------------------------------------- verify golden table
//
// Broken programs on `tiny` (4 cores, 64 KB local memory, 16 crossbars of
// 32x32 per core) and the exact violation lists verify reports for them:
// messages, and their order, are part of verify's contract (tools print
// them, tests and users grep them).

Instruction bare(Opcode o) {
  Instruction in;
  in.op = o;
  return in;
}

Instruction mvm_op(uint16_t group, uint32_t src, uint32_t dst, uint32_t len) {
  Instruction in = bare(Opcode::MVM);
  in.group = group;
  in.src1_addr = src;
  in.dst_addr = dst;
  in.len = len;
  return in;
}

Instruction transfer_op(Opcode o, uint16_t peer, uint16_t tag, uint32_t addr, uint32_t len) {
  Instruction in = bare(o);
  in.core = peer;
  in.tag = tag;
  in.len = len;
  if (o == Opcode::SEND || o == Opcode::GSTORE) {
    in.src1_addr = addr;
  } else {
    in.dst_addr = addr;
  }
  return in;
}

GroupDef group_def(uint16_t id, uint32_t in_len, uint32_t out_len, uint32_t xbars = 1) {
  GroupDef g;
  g.id = id;
  g.in_len = in_len;
  g.out_len = out_len;
  g.xbar_count = xbars;
  return g;
}

void halt_nonempty_cores(Program& p) {
  for (CoreProgram& cp : p.cores) {
    if (!cp.code.empty() || !cp.groups.empty()) cp.code.push_back(bare(Opcode::HALT));
  }
}

Program duplicate_and_undefined_groups() {
  Program p;
  p.cores.resize(3);
  CoreProgram& c0 = p.cores[0];
  c0.groups = {group_def(3, 16, 16), group_def(3, 8, 8), group_def(5, 16, 16), group_def(3, 4, 4),
               group_def(9, 0, 4), group_def(11, 40, 4)};
  c0.groups.back().weights.assign(7, int8_t{1});
  c0.code = {mvm_op(3, 0, 0x100, 16), mvm_op(4, 0, 0x200, 16), mvm_op(5, 0, 0x300, 8),
             mvm_op(7, 0, 0x400, 16)};
  CoreProgram& c2 = p.cores[2];
  c2.groups = {group_def(1, 8, 8), group_def(0, 8, 8), group_def(1, 8, 8)};
  c2.code = {mvm_op(2, 0, 0x40, 8), mvm_op(1, 0, 0x40, 8), mvm_op(0, 0, 0x80, 8)};
  halt_nonempty_cores(p);
  return p;
}

Program unmatched_sends_and_recvs() {
  Program p;
  p.cores.resize(4);
  // Core 0 sends to 1 under tag 1 twice (16 bytes total), split around other
  // traffic; core 1 receives those 16 bytes in one RECV.
  p.cores[0].code = {transfer_op(Opcode::SEND, 1, 1, 0, 8), transfer_op(Opcode::SEND, 2, 5, 0, 4),
                     transfer_op(Opcode::SEND, 1, 1, 0, 8), transfer_op(Opcode::SEND, 3, 7, 0, 4),
                     transfer_op(Opcode::SEND, 1, 2, 0, 4)};
  p.cores[1].code = {transfer_op(Opcode::RECV, 0, 1, 0, 16), transfer_op(Opcode::RECV, 3, 4, 0, 4),
                     transfer_op(Opcode::RECV, 2, 9, 0, 4), transfer_op(Opcode::SEND, 2, 9, 0, 4)};
  p.cores[2].code = {transfer_op(Opcode::RECV, 0, 6, 0, 4), transfer_op(Opcode::RECV, 1, 9, 0x10, 4),
                     transfer_op(Opcode::SEND, 1, 8, 0, 4)};
  p.cores[3].code = {transfer_op(Opcode::RECV, 0, 7, 0, 4), transfer_op(Opcode::SEND, 0, 3, 0, 4),
                     transfer_op(Opcode::RECV, 2, 2, 0, 4)};
  halt_nonempty_cores(p);
  return p;
}

Program byte_mismatches() {
  Program p;
  p.cores.resize(4);
  p.cores[0].code = {transfer_op(Opcode::SEND, 1, 0, 0, 8), transfer_op(Opcode::SEND, 3, 2, 0, 12)};
  p.cores[1].code = {transfer_op(Opcode::RECV, 0, 0, 0, 16)};
  p.cores[3].code = {transfer_op(Opcode::RECV, 0, 2, 0, 6), transfer_op(Opcode::RECV, 0, 2, 0x20, 6),
                     transfer_op(Opcode::SEND, 2, 1, 0, 4)};
  p.cores[2].code = {transfer_op(Opcode::RECV, 3, 1, 0, 4)};
  p.cores[2].code.front().dtype = DType::I32;  // 16 bytes against 4
  halt_nonempty_cores(p);
  return p;
}

Program branches_out_of_range() {
  Program p;
  p.cores.resize(2);
  Instruction jmp = bare(Opcode::JMP);
  jmp.imm = 100;
  Instruction beq = bare(Opcode::BEQ);
  beq.imm = -1;
  Instruction bne = bare(Opcode::BNE);
  bne.imm = 4;  // == code size once HALT is appended
  Instruction blt = bare(Opcode::BLT);
  blt.imm = 0;  // in range
  p.cores[0].code = {jmp, beq, blt, bne};
  Instruction bge = bare(Opcode::BGE);
  bge.imm = 2;
  bge.rs1 = 40;  // register out of range too
  p.cores[1].code = {bge};
  halt_nonempty_cores(p);
  return p;
}

Program local_memory_overflows() {
  const uint32_t lm = 64 * 1024;
  Program p;
  p.cores.resize(3);
  CoreProgram& c0 = p.cores[0];
  c0.groups = {group_def(0, 32, 32)};
  DataSegment seg;
  seg.addr = lm - 4;
  seg.bytes.assign(8, 0);
  c0.lm_init = {seg};
  Instruction vmov = bare(Opcode::VMOV);
  vmov.dst_addr = lm - 4;
  vmov.src1_addr = lm - 8;
  vmov.len = 64;
  Instruction vadd = bare(Opcode::VADD);
  vadd.dtype = DType::I32;
  vadd.dst_addr = 0;
  vadd.src1_addr = 0x100;
  vadd.src2_addr = lm - 16;
  vadd.len = 8;
  Instruction vset = bare(Opcode::VSET);
  vset.dst_addr = lm;
  vset.src1_addr = lm;  // never read: vset has no source
  vset.len = 1;
  c0.code = {mvm_op(0, lm - 16, lm - 64, 32), vmov, vadd, vset};
  CoreProgram& c1 = p.cores[1];
  c1.code = {transfer_op(Opcode::SEND, 2, 0, lm - 2, 4), transfer_op(Opcode::GLOAD, 0, 0, lm - 1, 2),
             transfer_op(Opcode::GSTORE, 0, 0, 0, 8)};
  c1.code[2].imm = -4;  // 0xfffffffc: past global memory
  CoreProgram& c2 = p.cores[2];
  c2.code = {transfer_op(Opcode::RECV, 1, 0, lm, 4)};
  halt_nonempty_cores(p);
  return p;
}

Program everything_at_once() {
  Program p = duplicate_and_undefined_groups();
  p.cores.resize(6);  // tiny has 4 cores
  Program b = byte_mismatches();
  for (size_t c = 0; c < b.cores.size(); ++c) {
    CoreProgram& dst = p.cores[c];
    if (!dst.code.empty()) dst.code.pop_back();
    dst.code.insert(dst.code.end(), b.cores[c].code.begin(), b.cores[c].code.end());
  }
  p.cores[3].code.pop_back();  // missing HALT
  Instruction self = transfer_op(Opcode::SEND, 3, 4, 0, 0);  // to itself, zero length
  p.cores[3].code.push_back(self);
  p.cores[5].code = {transfer_op(Opcode::SEND, 9, 1, 0, 4), bare(Opcode::HALT)};
  return p;
}

struct GoldenCase {
  const char* name;
  Program (*build)();
  std::vector<std::string> errors;
};

TEST(ProgramVerify, GoldenErrorLists) {
  const config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  const GoldenCase cases[] = {
      {"duplicate_and_undefined_groups",
       duplicate_and_undefined_groups,
       {"core 0: duplicate group id 3",
        "core 0: duplicate group id 3",
        "core 0 group 9: empty matrix slice",
        "core 0 group 11: in_len 40 exceeds crossbar rows 32",
        "core 0 group 11: weight blob size 7 != 40 x 4",
        "core 0 pc 1: mvm references undefined group 4",
        "core 0 pc 2: mvm len 8 != group 5 in_len 16",
        "core 0 pc 3: mvm references undefined group 7",
        "core 2: duplicate group id 1",
        "core 2 pc 0: mvm references undefined group 2"}},
      {"unmatched_sends_and_recvs",
       unmatched_sends_and_recvs,
       {"send core 0 -> core 1 tag 2 has no matching recv",
        "send core 0 -> core 2 tag 5 has no matching recv",
        "send core 2 -> core 1 tag 8 has no matching recv",
        "send core 3 -> core 0 tag 3 has no matching recv",
        "recv core 2 <- core 0 tag 6 has no matching send",
        "recv core 1 <- core 2 tag 9 has no matching send",
        "recv core 3 <- core 2 tag 2 has no matching send",
        "recv core 1 <- core 3 tag 4 has no matching send"}},
      {"byte_mismatches",
       byte_mismatches,
       {"send/recv byte mismatch core 0 -> core 1 tag 0: 8 vs 16",
        "send/recv byte mismatch core 3 -> core 2 tag 1: 4 vs 16"}},
      {"branches_out_of_range",
       branches_out_of_range,
       {"core 0 pc 0: branch target 100 out of range",
        "core 0 pc 1: branch target -1 out of range",
        "core 1 pc 0: branch target 2 out of range",
        "core 1 pc 0: register index out of range"}},
      {"local_memory_overflows",
       local_memory_overflows,
       {"core 0: data segment [0xfffc, +8) exceeds local memory",
        "core 0 pc 0: mvm input range [0xfff0, +32) exceeds local memory (65536 bytes)",
        "core 0 pc 0: mvm output range [0xffc0, +128) exceeds local memory (65536 bytes)",
        "core 0 pc 1: vector dst range [0xfffc, +64) exceeds local memory (65536 bytes)",
        "core 0 pc 1: vector src1 range [0xfff8, +64) exceeds local memory (65536 bytes)",
        "core 0 pc 2: vector src2 range [0xfff0, +32) exceeds local memory (65536 bytes)",
        "core 0 pc 3: vector dst range [0x10000, +1) exceeds local memory (65536 bytes)",
        "core 1 pc 0: send src range [0xfffe, +4) exceeds local memory (65536 bytes)",
        "core 1 pc 1: global transfer local side range [0xffff, +2) exceeds local memory (65536 bytes)",
        "core 1 pc 2: global transfer exceeds global memory size",
        "core 2 pc 0: recv dst range [0x10000, +4) exceeds local memory (65536 bytes)"}},
      {"everything_at_once",
       everything_at_once,
       {"program uses 6 cores but architecture has 4",
        "core 0: duplicate group id 3",
        "core 0: duplicate group id 3",
        "core 0 group 9: empty matrix slice",
        "core 0 group 11: in_len 40 exceeds crossbar rows 32",
        "core 0 group 11: weight blob size 7 != 40 x 4",
        "core 0 pc 1: mvm references undefined group 4",
        "core 0 pc 2: mvm len 8 != group 5 in_len 16",
        "core 0 pc 3: mvm references undefined group 7",
        "core 2: duplicate group id 1",
        "core 2 pc 0: mvm references undefined group 2",
        "core 3: program does not end with HALT",
        "core 3 pc 3: transfer len out of encodable range [1,65535]",
        "core 3 pc 3: transfer peer is the issuing core (use vmov for local copies)",
        "core 5 pc 0: transfer peer core 9 out of range",
        "send/recv byte mismatch core 0 -> core 1 tag 0: 8 vs 16",
        "send/recv byte mismatch core 3 -> core 2 tag 1: 4 vs 16",
        "send core 3 -> core 3 tag 4 has no matching recv",
        "send core 5 -> core 9 tag 1 has no matching recv"}},
  };
  for (const GoldenCase& c : cases) {
    EXPECT_EQ(c.build().verify(cfg), c.errors) << c.name;
  }
}

TEST(ProgramJson, RoundTripWithWeightsAndSegments) {
  Program p = minimal_program();
  p.network_name = "net";
  p.mapping_policy = "performance_first";
  p.cores[0].groups[0].weights.assign(32 * 32, int8_t{-3});
  isa::DataSegment seg;
  seg.addr = 0x40;
  seg.bytes = {1, 2, 3, 255};
  p.cores[0].lm_init.push_back(seg);
  Program back = Program::from_json(p.to_json());
  EXPECT_EQ(back, p);
}

TEST(ProgramJson, WeightsCanBeStripped) {
  Program p = minimal_program();
  p.cores[0].groups[0].weights.assign(32 * 32, int8_t{1});
  Program back = Program::from_json(p.to_json(/*include_weights=*/false));
  EXPECT_TRUE(back.cores[0].groups[0].weights.empty());
  EXPECT_EQ(back.cores[0].code, p.cores[0].code);
}

TEST(Program, Counters) {
  Program p = minimal_program();
  EXPECT_EQ(p.total_instructions(), 2u);
  EXPECT_EQ(p.total_groups(), 1u);
  EXPECT_EQ(p.cores[0].xbars_used(), 1u);
  ASSERT_EQ(p.cores[0].group_table().size(), 1u);
  EXPECT_NE(p.cores[0].group_table()[0], nullptr);
}

TEST(Program, GroupTableKeepsFirstGroupPerId) {
  CoreProgram cp;
  cp.groups = {group_def(4, 8, 8), group_def(1, 8, 8), group_def(4, 16, 16)};
  const std::vector<const GroupDef*> table = cp.group_table();
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[4], &cp.groups[0]);
  EXPECT_EQ(table[1], &cp.groups[1]);
  EXPECT_EQ(table[0], nullptr);
  EXPECT_TRUE(CoreProgram{}.group_table().empty());
}

TEST(Program, LocalMemoryHighWaterIsTheHighestCheckedByte) {
  Program p = minimal_program();  // mvm reads [0, +32), writes [0x100, +128)
  CoreProgram& cp = p.cores[0];
  EXPECT_EQ(cp.lm_high_water(), 0x180u);
  DataSegment seg;
  seg.addr = 0x400;
  seg.bytes.assign(16, 0);
  cp.lm_init.push_back(seg);
  EXPECT_EQ(cp.lm_high_water(), 0x410u);
  // An i8 vmov reads its source at 1 byte per element, as the core does.
  Instruction mv = bare(Opcode::VMOV);
  mv.dst_addr = 0x500;
  mv.src1_addr = 0x600;
  mv.len = 8;
  cp.code.insert(cp.code.end() - 1, mv);
  EXPECT_EQ(cp.lm_high_water(), 0x608u);
  // An mvm on an undefined group touches nothing verify could size.
  cp.code.insert(cp.code.end() - 1, mvm_op(9, 0x1000, 0x2000, 32));
  EXPECT_EQ(cp.lm_high_water(), 0x608u);
  EXPECT_EQ(CoreProgram{}.lm_high_water(), 0u);
}

TEST(Disassembly, StableStrings) {
  EXPECT_EQ(to_string(mvm_instr()), "mvm g513, 0xabcde, 0x12345, len=12345");
  Instruction h;
  h.op = Opcode::HALT;
  EXPECT_EQ(to_string(h), "halt");
  Instruction s;
  s.op = Opcode::SEND;
  s.core = 3;
  s.tag = 7;
  s.src1_addr = 0x200;
  s.len = 64;
  EXPECT_EQ(to_string(s), "send core=3, tag=7, 0x200, len=64, i8");
}

TEST(IsaCorpus, MaxFieldInstructionsRoundTripThroughBinaryAndText) {
  for (const Instruction& in : corpus::max_field_instructions()) {
    EXPECT_EQ(decode(encode(in)), in) << to_string(in);
    const Program back = assemble(to_string(in));
    ASSERT_EQ(back.cores.size(), 1u);
    ASSERT_EQ(back.cores[0].code.size(), 1u);
    EXPECT_EQ(back.cores[0].code[0], in) << to_string(in);
  }
}

// ---------------------------------------------------------------- ISA golden
//
// The ISA's external forms, pinned in tests/golden/isa.json. For one
// instruction per opcode with every field it carries at its maximum: the
// encoded words, the assembly text, the program-JSON object, bytes_in() and
// bytes_out(). The same five forms of every instruction of the encoder fuzz
// corpus, folded into one hash. Hashes of the disassembly and of the program
// JSON of every zoo network compiled for `paper` at input 16. On a mismatch
// the test names what moved and writes the fresh file into the build tree
// (PIM_ISA_GOLDEN_FRESH).

std::string hex64(uint64_t v) { return strformat("%016llx", static_cast<unsigned long long>(v)); }

json::Value forms(const Instruction& in) {
  const EncodedInstruction enc = encode(in);
  Program p;
  p.cores.resize(1);
  p.cores[0].code.push_back(in);
  json::Value v;
  v["words"] = json::Value(hex64(enc.word0) + " " + hex64(enc.word1));
  v["text"] = json::Value(to_string(in));
  v["json"] = p.to_json().at("cores").at(0).at("code").at(0);
  v["bytes_in"] = json::Value(in.bytes_in());
  v["bytes_out"] = json::Value(in.bytes_out());
  return v;
}

json::Value isa_forms() {
  json::Value golden;
  json::Array ops;
  for (const Instruction& in : corpus::max_field_instructions()) ops.push_back(forms(in));
  golden["opcodes"] = json::Value(std::move(ops));

  const std::vector<Instruction> fuzz = corpus::fuzz_instructions();
  std::string records;
  for (const Instruction& in : fuzz) records += forms(in).dump() + "\n";
  json::Value f;
  f["count"] = json::Value(fuzz.size());
  f["fnv1a64"] = json::Value(hex64(fnv1a64(records)));
  golden["fuzz_0xc0dec"] = std::move(f);

  const config::ArchConfig cfg = config::ArchConfig::preset("paper");
  compiler::CompileOptions copts;
  copts.include_weights = false;
  json::Value zoo;
  for (const std::string& name : nn::model_names()) {
    nn::ModelOptions mo;
    mo.input_hw = 16;
    const Program p = compiler::compile(nn::build_model(name, mo), cfg, copts);
    json::Value z;
    z["disassembly"] = json::Value(hex64(fnv1a64(disassemble(p))));
    z["program_json"] = json::Value(hex64(fnv1a64(p.to_json(false).dump())));
    zoo[name] = std::move(z);
  }
  golden["zoo_paper_16"] = std::move(zoo);
  return golden;
}

TEST(IsaGolden, ExternalFormsMatchTheRecordedFile) {
  const json::Value fresh = isa_forms();
  json::Value recorded;
  try {
    recorded = json::parse_file(PIM_ISA_GOLDEN);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "cannot read " << PIM_ISA_GOLDEN << ": " << e.what();
  }
  if (recorded.dump() == fresh.dump()) return;
  json::write_file(PIM_ISA_GOLDEN_FRESH, fresh);
  ADD_FAILURE() << "ISA forms moved; fresh file written to " << PIM_ISA_GOLDEN_FRESH;
  if (!recorded.is_object()) return;
  const json::Array& now = fresh.at("opcodes").as_array();
  for (size_t i = 0; i < now.size(); ++i) {
    const std::string was =
        recorded.contains("opcodes") && i < recorded.at("opcodes").size()
            ? recorded.at("opcodes").at(i).dump()
            : "";
    EXPECT_EQ(was, now[i].dump()) << "opcode entry " << i;
  }
  for (const char* key : {"fuzz_0xc0dec", "zoo_paper_16"}) {
    EXPECT_EQ(recorded.contains(key) ? recorded.at(key).dump() : "", fresh.at(key).dump())
        << key;
  }
}

}  // namespace
}  // namespace pim::isa
