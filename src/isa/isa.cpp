#include "isa/isa.h"

#include <stdexcept>
#include <unordered_map>

#include "common/strings.h"

namespace pim::isa {

namespace {
struct OpInfo {
  Opcode op;
  const char* name;
};

constexpr OpInfo kOps[] = {
    {Opcode::MVM, "mvm"},
    {Opcode::VADD, "vadd"},     {Opcode::VSUB, "vsub"},     {Opcode::VMUL, "vmul"},
    {Opcode::VMAX, "vmax"},     {Opcode::VMIN, "vmin"},     {Opcode::VADDI, "vaddi"},
    {Opcode::VMULI, "vmuli"},   {Opcode::VSHR, "vshr"},     {Opcode::VDIVI, "vdivi"},
    {Opcode::VRELU, "vrelu"},
    {Opcode::VSIGMOID, "vsigmoid"}, {Opcode::VTANH, "vtanh"},
    {Opcode::VMOV, "vmov"},     {Opcode::VSET, "vset"},     {Opcode::VQUANT, "vquant"},
    {Opcode::VDEQUANT, "vdequant"},
    {Opcode::SEND, "send"},     {Opcode::RECV, "recv"},
    {Opcode::GLOAD, "gload"},   {Opcode::GSTORE, "gstore"},
    {Opcode::LDI, "ldi"},       {Opcode::SADD, "sadd"},     {Opcode::SSUB, "ssub"},
    {Opcode::SMUL, "smul"},     {Opcode::SADDI, "saddi"},   {Opcode::SAND, "sand"},
    {Opcode::SOR, "sor"},       {Opcode::SXOR, "sxor"},     {Opcode::SSLL, "ssll"},
    {Opcode::SSRA, "ssra"},     {Opcode::JMP, "jmp"},       {Opcode::BEQ, "beq"},
    {Opcode::BNE, "bne"},       {Opcode::BLT, "blt"},       {Opcode::BGE, "bge"},
    {Opcode::NOP, "nop"},       {Opcode::HALT, "halt"},
};
}  // namespace

const char* opcode_name(Opcode op) {
  for (const OpInfo& info : kOps) {
    if (info.op == op) return info.name;
  }
  return "unknown";
}

Opcode opcode_from_name(const std::string& name) {
  static const std::unordered_map<std::string, Opcode> map = [] {
    std::unordered_map<std::string, Opcode> m;
    for (const OpInfo& info : kOps) m.emplace(info.name, info.op);
    return m;
  }();
  auto it = map.find(to_lower(name));
  if (it == map.end()) throw std::invalid_argument("unknown opcode mnemonic '" + name + "'");
  return it->second;
}

uint64_t Instruction::bytes_in() const {
  switch (cls()) {
    case InstrClass::Matrix:
      return len;  // int8 input vector
    case InstrClass::Vector: {
      // VQUANT reads i32, VDEQUANT reads i8; everything else reads `dtype`.
      const uint64_t elem = op == Opcode::VQUANT ? 4
                            : op == Opcode::VDEQUANT ? 1
                                                     : dtype_size(dtype);
      if (op == Opcode::VSET) return 0;
      return (has_vector_src2(op) ? 2ull : 1ull) * len * elem;
    }
    case InstrClass::Transfer:
      if (op == Opcode::SEND || op == Opcode::GSTORE) return uint64_t{len} * dtype_size(dtype);
      return 0;
    case InstrClass::Scalar:
      return 0;
  }
  return 0;
}

uint64_t Instruction::bytes_out() const {
  switch (cls()) {
    case InstrClass::Matrix:
      // Output length is a property of the crossbar group, not the
      // instruction; the matrix unit accounts for it from the group table.
      return 0;
    case InstrClass::Vector: {
      // VQUANT writes i8, VDEQUANT writes i32; everything else writes `dtype`.
      const uint64_t elem = op == Opcode::VQUANT ? 1
                            : op == Opcode::VDEQUANT ? 4
                                                     : dtype_size(dtype);
      return uint64_t{len} * elem;
    }
    case InstrClass::Transfer:
      if (op == Opcode::RECV || op == Opcode::GLOAD) return uint64_t{len} * dtype_size(dtype);
      return 0;
    case InstrClass::Scalar:
      return 0;
  }
  return 0;
}

// ---------------------------------------------------------------- encoding

// word1 layouts by class:
//   Matrix:   [31:0] src1_addr  [63:32] dst_addr        ; len in word0[55:40]
//             is too small for len; instead:
// We pack word1 = src1_addr(32) | dst_addr(32)?  dst/src/len/imm do not all
// fit in 64 bits, so the format spreads fields across both words:
//   word0: op(8) dtype(8) rd(8) rs1(8) rs2(8) group/tag(16) core(16) — wait
// See comments in encode() for the authoritative layout.

EncodedInstruction encode(const Instruction& in) {
  EncodedInstruction out;
  // word0: [7:0]=op [15:8]=dtype [23:16]=rd [31:24]=rs1 [39:32]=rs2
  //        [47:40]= (unused) [63:48]=group
  // tag/core share group's slot semantics per class:
  //   matrix: group id; transfer: tag. core id is stored in word0[47:40]+
  //   extension — cores up to 65535 need 16 bits, so core lives in
  //   word1 only for transfers (see below).
  out.word0 = static_cast<uint64_t>(in.op) | (static_cast<uint64_t>(in.dtype) << 8) |
              (static_cast<uint64_t>(in.rd) << 16) | (static_cast<uint64_t>(in.rs1) << 24) |
              (static_cast<uint64_t>(in.rs2) << 32) |
              (static_cast<uint64_t>(in.cls() == InstrClass::Transfer ? in.tag : in.group) << 48);
  switch (in.cls()) {
    case InstrClass::Matrix:
      // word1: [23:0]=src1 [47:24]=dst [63:48]=len (<= 65535 elements)
      out.word1 = (static_cast<uint64_t>(in.src1_addr & 0xFFFFFF)) |
                  (static_cast<uint64_t>(in.dst_addr & 0xFFFFFF) << 24) |
                  (static_cast<uint64_t>(in.len & 0xFFFF) << 48);
      break;
    case InstrClass::Vector:
      // word1: [19:0]=src1 [39:20]=src2 [59:40]=dst — 1MB local address
      // space; len goes to word0[47:40]? no: len up to 64K needs 16 bits.
      // Use: word1 [19:0]src1 [39:20]src2 [55:40]len(16) and dst in word0?
      // dst needs 20 bits. Final layout: src1(20) src2(20) len(16) leaves 8
      // bits; dst is split: low 16 bits in word1[... no.
      //
      // Simpler and still honest: vector instructions carry imm OR src2, not
      // both — VADDI/VMULI/VSHR/VSET use imm and no src2. So:
      //   reg-form:  word1 = src1(20) | src2(20)<<20 | dst(20)<<40 ; len in
      //              word0[47:40] * 8?? len up to 64K...
      //
      // We accept a 24-bit packed len limit by storing len in word0 bits
      // [47:40] plus word1 top 4 bits. To keep decode trivial we instead
      // limit vector len to 4096 (12 bits), ample for one instruction
      // (compiler splits longer vectors):
      //   word1: src1(20) | src2_or_imm(20)<<20 | dst(20)<<40 | len(12)<<60?
      // 20+20+20+12 = 72 > 64. Therefore len(12) replaces rs2/rd space in
      // word0 bits [47:36]. rs2 overlaps — vector ops don't use rs2.
      out.word0 = (out.word0 & ~(uint64_t{0xFFF} << 36)) |
                  (static_cast<uint64_t>(in.len & 0xFFF) << 36);
      out.word1 = (static_cast<uint64_t>(in.src1_addr & 0xFFFFF)) |
                  (static_cast<uint64_t>(uses_vector_imm(in.op)
                                             ? (static_cast<uint32_t>(in.imm) & 0xFFFFF)
                                             : (in.src2_addr & 0xFFFFF))
                   << 20) |
                  (static_cast<uint64_t>(in.dst_addr & 0xFFFFF) << 40);
      break;
    case InstrClass::Transfer:
      // word1: [19:0]=local addr (src for SEND/GSTORE, dst for RECV/GLOAD)
      //        [35:20]=len(16) [51:36]=core(16) [63:52]=reserved
      // imm (global byte address for GLOAD/GSTORE) uses word0 bits [47:40]
      // ... insufficient; instead GLOAD/GSTORE reuse the core field slot and
      // store the 32-bit global address in word1[63:32], with len moved to
      // word0[47:40] being too small. Layout per op:
      //   SEND/RECV:  word1 = addr(20) | len(16)<<20 | core(16)<<36
      //   GLOAD/GSTORE: word1 = addr(20) | imm32<<32 ; len(12)->word0[47:36]
      if (in.op == Opcode::SEND || in.op == Opcode::RECV) {
        const uint32_t addr = (in.op == Opcode::SEND) ? in.src1_addr : in.dst_addr;
        out.word1 = static_cast<uint64_t>(addr & 0xFFFFF) |
                    (static_cast<uint64_t>(in.len & 0xFFFF) << 20) |
                    (static_cast<uint64_t>(in.core) << 36);
      } else {
        const uint32_t addr = (in.op == Opcode::GSTORE) ? in.src1_addr : in.dst_addr;
        out.word0 = (out.word0 & ~(uint64_t{0xFFF} << 36)) |
                    (static_cast<uint64_t>(in.len & 0xFFF) << 36);
        out.word1 = static_cast<uint64_t>(addr & 0xFFFFF) |
                    (static_cast<uint64_t>(static_cast<uint32_t>(in.imm)) << 32);
      }
      break;
    case InstrClass::Scalar:
      // word1: [31:0]=imm (sign-extended on decode)
      out.word1 = static_cast<uint32_t>(in.imm);
      break;
  }
  return out;
}

bool uses_vector_imm(Opcode op) {
  return op == Opcode::VADDI || op == Opcode::VMULI || op == Opcode::VSHR ||
         op == Opcode::VDIVI || op == Opcode::VSET || op == Opcode::VQUANT;
}

Instruction decode(const EncodedInstruction& enc) {
  Instruction in;
  in.op = static_cast<Opcode>(enc.word0 & 0xFF);
  in.dtype = static_cast<DType>((enc.word0 >> 8) & 0xFF);
  in.rd = static_cast<uint8_t>((enc.word0 >> 16) & 0xFF);
  in.rs1 = static_cast<uint8_t>((enc.word0 >> 24) & 0xFF);
  switch (in.cls()) {
    case InstrClass::Matrix:
      in.rs2 = static_cast<uint8_t>((enc.word0 >> 32) & 0xFF);
      in.group = static_cast<uint16_t>((enc.word0 >> 48) & 0xFFFF);
      in.src1_addr = static_cast<uint32_t>(enc.word1 & 0xFFFFFF);
      in.dst_addr = static_cast<uint32_t>((enc.word1 >> 24) & 0xFFFFFF);
      in.len = static_cast<uint32_t>((enc.word1 >> 48) & 0xFFFF);
      break;
    case InstrClass::Vector:
      in.group = static_cast<uint16_t>((enc.word0 >> 48) & 0xFFFF);
      in.len = static_cast<uint32_t>((enc.word0 >> 36) & 0xFFF);
      in.src1_addr = static_cast<uint32_t>(enc.word1 & 0xFFFFF);
      if (uses_vector_imm(in.op)) {
        uint32_t raw = static_cast<uint32_t>((enc.word1 >> 20) & 0xFFFFF);
        // sign-extend 20-bit immediate
        if (raw & 0x80000) raw |= 0xFFF00000;
        in.imm = static_cast<int32_t>(raw);
      } else {
        in.src2_addr = static_cast<uint32_t>((enc.word1 >> 20) & 0xFFFFF);
      }
      in.dst_addr = static_cast<uint32_t>((enc.word1 >> 40) & 0xFFFFF);
      break;
    case InstrClass::Transfer:
      in.tag = static_cast<uint16_t>((enc.word0 >> 48) & 0xFFFF);
      if (in.op == Opcode::SEND || in.op == Opcode::RECV) {
        in.rs2 = static_cast<uint8_t>((enc.word0 >> 32) & 0xFF);
        const uint32_t addr = static_cast<uint32_t>(enc.word1 & 0xFFFFF);
        if (in.op == Opcode::SEND) in.src1_addr = addr; else in.dst_addr = addr;
        in.len = static_cast<uint32_t>((enc.word1 >> 20) & 0xFFFF);
        in.core = static_cast<uint16_t>((enc.word1 >> 36) & 0xFFFF);
      } else {
        in.len = static_cast<uint32_t>((enc.word0 >> 36) & 0xFFF);
        const uint32_t addr = static_cast<uint32_t>(enc.word1 & 0xFFFFF);
        if (in.op == Opcode::GSTORE) in.src1_addr = addr; else in.dst_addr = addr;
        in.imm = static_cast<int32_t>(enc.word1 >> 32);
      }
      break;
    case InstrClass::Scalar:
      in.rs2 = static_cast<uint8_t>((enc.word0 >> 32) & 0xFF);
      in.imm = static_cast<int32_t>(static_cast<uint32_t>(enc.word1 & 0xFFFFFFFF));
      break;
  }
  return in;
}

// ------------------------------------------------------------ disassembly

std::string to_string(const Instruction& in) {
  const char* dt = in.dtype == DType::I8 ? "i8" : "i32";
  switch (in.cls()) {
    case InstrClass::Matrix:
      return strformat("mvm g%u, 0x%x, 0x%x, len=%u", in.group, in.dst_addr, in.src1_addr,
                       in.len);
    case InstrClass::Vector:
      if (in.op == Opcode::VSET) {
        return strformat("vset 0x%x, imm=%d, len=%u, %s", in.dst_addr, in.imm, in.len, dt);
      }
      if (uses_vector_imm(in.op)) {
        return strformat("%s 0x%x, 0x%x, imm=%d, len=%u, %s", opcode_name(in.op), in.dst_addr,
                         in.src1_addr, in.imm, in.len, dt);
      }
      return strformat("%s 0x%x, 0x%x, 0x%x, len=%u, %s", opcode_name(in.op), in.dst_addr,
                       in.src1_addr, in.src2_addr, in.len, dt);
    case InstrClass::Transfer:
      switch (in.op) {
        case Opcode::SEND:
          return strformat("send core=%u, tag=%u, 0x%x, len=%u, %s", in.core, in.tag,
                           in.src1_addr, in.len, dt);
        case Opcode::RECV:
          return strformat("recv core=%u, tag=%u, 0x%x, len=%u, %s", in.core, in.tag,
                           in.dst_addr, in.len, dt);
        case Opcode::GLOAD:
          return strformat("gload 0x%x, g:0x%x, len=%u, %s", in.dst_addr,
                           static_cast<uint32_t>(in.imm), in.len, dt);
        case Opcode::GSTORE:
          return strformat("gstore g:0x%x, 0x%x, len=%u, %s", static_cast<uint32_t>(in.imm),
                           in.src1_addr, in.len, dt);
        default: break;
      }
      return "transfer?";
    case InstrClass::Scalar:
      switch (in.op) {
        case Opcode::LDI: return strformat("ldi r%u, %d", in.rd, in.imm);
        case Opcode::SADDI: return strformat("saddi r%u, r%u, %d", in.rd, in.rs1, in.imm);
        case Opcode::JMP: return strformat("jmp %d", in.imm);
        case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT: case Opcode::BGE:
          return strformat("%s r%u, r%u, %d", opcode_name(in.op), in.rs1, in.rs2, in.imm);
        case Opcode::NOP: return "nop";
        case Opcode::HALT: return "halt";
        default:
          return strformat("%s r%u, r%u, r%u", opcode_name(in.op), in.rd, in.rs1, in.rs2);
      }
  }
  return "?";
}

}  // namespace pim::isa
