#include "isa/isa.h"

#include <stdexcept>
#include <unordered_map>

#include "common/strings.h"

namespace pim::isa {

namespace {

using F = Field;
using S = Syntax;

// Operand formats. A field's slot is {word, lsb, bits}; isa.h draws the
// same layout.
constexpr Operand kVecDst{F::Dst, 1, 40, 20, S::Addr};
constexpr Operand kVecSrc1{F::Src1, 1, 0, 20, S::Addr};
constexpr Operand kVecSrc2{F::Src2, 1, 20, 20, S::Addr};
constexpr Operand kVecImm{F::Imm, 1, 20, 20, S::Named};
constexpr Operand kShortLen{F::Len, 0, 36, 12, S::Named};  // vector, gload, gstore
constexpr Operand kPeer{F::Core, 1, 36, 16, S::Named};
constexpr Operand kTag{F::Tag, 0, 48, 16, S::Named};
constexpr Operand kPairLen{F::Len, 1, 20, 16, S::Named};  // send, recv
constexpr Operand kGlobal{F::Imm, 1, 32, 32, S::Global};
constexpr Operand kRd{F::Rd, 0, 16, 8, S::Reg};
constexpr Operand kRs1{F::Rs1, 0, 24, 8, S::Reg};
constexpr Operand kRs2{F::Rs2, 0, 32, 8, S::Reg};
constexpr Operand kScalarImm{F::Imm, 1, 0, 32, S::Int};
constexpr Operand kTarget{F::Imm, 1, 0, 32, S::Target};

constexpr auto kDst = &Instruction::dst_addr;
constexpr auto kSrc1 = &Instruction::src1_addr;
constexpr Access kVecWrite{kDst, true, "vector dst"};
constexpr Access kVecRead1{kSrc1, false, "vector src1"};

constexpr Format kMvm{{{F::Group, 0, 48, 16, S::Group},
                       {F::Dst, 1, 24, 24, S::Addr},
                       {F::Src1, 1, 0, 24, S::Addr},
                       {F::Len, 1, 48, 16, S::Named}},
                      {{kSrc1, false, "mvm input"}, {kDst, true, "mvm output", true}},
                      false};
// One-source ops carry src2 all the same (it encodes and prints) but never
// read it.
constexpr Format kVecTwoSrc{{kVecDst, kVecSrc1, kVecSrc2, kShortLen},
                            {kVecWrite, kVecRead1, {&Instruction::src2_addr, false, "vector src2"}},
                            true};
constexpr Format kVecOneSrc{{kVecDst, kVecSrc1, kVecSrc2, kShortLen}, {kVecWrite, kVecRead1}, true};
constexpr Format kVecImmForm{{kVecDst, kVecSrc1, kVecImm, kShortLen}, {kVecWrite, kVecRead1}, true};
constexpr Format kVecSet{{kVecDst, kVecImm, kShortLen}, {kVecWrite}, true};
constexpr Format kSend{{kPeer, kTag, {F::Src1, 1, 0, 20, S::Addr}, kPairLen},
                       {{kSrc1, false, "send src"}},
                       true};
constexpr Format kRecv{{kPeer, kTag, {F::Dst, 1, 0, 20, S::Addr}, kPairLen},
                       {{kDst, true, "recv dst"}},
                       true};
constexpr Format kGload{{{F::Dst, 1, 0, 20, S::Addr}, kGlobal, kShortLen},
                        {{kDst, true, "global transfer local side"}},
                        true};
constexpr Format kGstore{{kGlobal, {F::Src1, 1, 0, 20, S::Addr}, kShortLen},
                         {{kSrc1, false, "global transfer local side"}},
                         true};
constexpr Format kLdi{{kRd, kScalarImm}, {}, false};
constexpr Format kRegImm{{kRd, kRs1, kScalarImm}, {}, false};
constexpr Format kRegReg{{kRd, kRs1, kRs2}, {}, false};
constexpr Format kJump{{kTarget}, {}, false};
constexpr Format kBranch{{kRs1, kRs2, kTarget}, {}, false};
constexpr Format kNone{{}, {}, false};

struct OpDef {
  Opcode op;
  OpInfo info;
};

constexpr uint8_t kDtype = 0;  // element width from the instruction's dtype

// The ISA: one row per opcode, {mnemonic, format, source width, destination
// width}.
constexpr OpDef kOps[] = {
    {Opcode::MVM, {"mvm", &kMvm, 1, 4}},
    {Opcode::VADD, {"vadd", &kVecTwoSrc, kDtype, kDtype}},
    {Opcode::VSUB, {"vsub", &kVecTwoSrc, kDtype, kDtype}},
    {Opcode::VMUL, {"vmul", &kVecTwoSrc, kDtype, kDtype}},
    {Opcode::VMAX, {"vmax", &kVecTwoSrc, kDtype, kDtype}},
    {Opcode::VMIN, {"vmin", &kVecTwoSrc, kDtype, kDtype}},
    {Opcode::VADDI, {"vaddi", &kVecImmForm, kDtype, kDtype}},
    {Opcode::VMULI, {"vmuli", &kVecImmForm, kDtype, kDtype}},
    {Opcode::VSHR, {"vshr", &kVecImmForm, kDtype, kDtype}},
    {Opcode::VDIVI, {"vdivi", &kVecImmForm, kDtype, kDtype}},
    {Opcode::VRELU, {"vrelu", &kVecOneSrc, kDtype, kDtype}},
    {Opcode::VSIGMOID, {"vsigmoid", &kVecOneSrc, kDtype, kDtype}},
    {Opcode::VTANH, {"vtanh", &kVecOneSrc, kDtype, kDtype}},
    {Opcode::VMOV, {"vmov", &kVecOneSrc, kDtype, kDtype}},
    {Opcode::VSET, {"vset", &kVecSet, kDtype, kDtype}},
    {Opcode::VQUANT, {"vquant", &kVecImmForm, 4, 1}},
    {Opcode::VDEQUANT, {"vdequant", &kVecOneSrc, 1, 4}},
    {Opcode::SEND, {"send", &kSend, kDtype, kDtype}},
    {Opcode::RECV, {"recv", &kRecv, kDtype, kDtype}},
    {Opcode::GLOAD, {"gload", &kGload, kDtype, kDtype}},
    {Opcode::GSTORE, {"gstore", &kGstore, kDtype, kDtype}},
    // Scalar ops touch no local memory, so their widths are unused.
    {Opcode::LDI, {"ldi", &kLdi, 0, 0}},
    {Opcode::SADD, {"sadd", &kRegReg, 0, 0}},
    {Opcode::SSUB, {"ssub", &kRegReg, 0, 0}},
    {Opcode::SMUL, {"smul", &kRegReg, 0, 0}},
    {Opcode::SADDI, {"saddi", &kRegImm, 0, 0}},
    {Opcode::SAND, {"sand", &kRegReg, 0, 0}},
    {Opcode::SOR, {"sor", &kRegReg, 0, 0}},
    {Opcode::SXOR, {"sxor", &kRegReg, 0, 0}},
    {Opcode::SSLL, {"ssll", &kRegReg, 0, 0}},
    {Opcode::SSRA, {"ssra", &kRegReg, 0, 0}},
    {Opcode::JMP, {"jmp", &kJump, 0, 0}},
    {Opcode::BEQ, {"beq", &kBranch, 0, 0}},
    {Opcode::BNE, {"bne", &kBranch, 0, 0}},
    {Opcode::BLT, {"blt", &kBranch, 0, 0}},
    {Opcode::BGE, {"bge", &kBranch, 0, 0}},
    {Opcode::NOP, {"nop", &kNone, 0, 0}},
    {Opcode::HALT, {"halt", &kNone, 0, 0}},
};

constexpr const char* kFieldNames[] = {"rd",  "rs1", "rs2", "imm",   "dst", "src1",
                                       "src2", "len", "group", "tag", "core"};

}  // namespace

// kOps indexed by opcode value, so a lookup is one array access.
constexpr std::array<OpInfo, 256> detail::kOpTable = [] {
  std::array<OpInfo, 256> t{};
  for (OpInfo& row : t) row.format = &kNone;
  for (const OpDef& d : kOps) t[static_cast<uint8_t>(d.op)] = d.info;
  return t;
}();

const char* opcode_name(Opcode op) {
  const char* name = op_info(op).name;
  return name != nullptr ? name : "unknown";
}

Opcode opcode_from_name(const std::string& name) {
  static const std::unordered_map<std::string, Opcode> map = [] {
    std::unordered_map<std::string, Opcode> m;
    for (const OpDef& d : kOps) m.emplace(d.info.name, d.op);
    return m;
  }();
  auto it = map.find(to_lower(name));
  if (it == map.end()) throw std::invalid_argument("unknown opcode mnemonic '" + name + "'");
  return it->second;
}

bool uses_vector_imm(Opcode op) {
  return instr_class(op) == InstrClass::Vector && op_info(op).format->carries(Field::Imm);
}

const char* field_name(Field f) { return kFieldNames[static_cast<size_t>(f)]; }

int64_t get_field(const Instruction& in, Field f) {
  switch (f) {
    case Field::Rd: return in.rd;
    case Field::Rs1: return in.rs1;
    case Field::Rs2: return in.rs2;
    case Field::Imm: return in.imm;
    case Field::Dst: return in.dst_addr;
    case Field::Src1: return in.src1_addr;
    case Field::Src2: return in.src2_addr;
    case Field::Len: return in.len;
    case Field::Group: return in.group;
    case Field::Tag: return in.tag;
    case Field::Core: return in.core;
  }
  return 0;
}

void set_field(Instruction& in, Field f, int64_t v) {
  switch (f) {
    case Field::Rd: in.rd = static_cast<uint8_t>(v); break;
    case Field::Rs1: in.rs1 = static_cast<uint8_t>(v); break;
    case Field::Rs2: in.rs2 = static_cast<uint8_t>(v); break;
    case Field::Imm: in.imm = static_cast<int32_t>(v); break;
    case Field::Dst: in.dst_addr = static_cast<uint32_t>(v); break;
    case Field::Src1: in.src1_addr = static_cast<uint32_t>(v); break;
    case Field::Src2: in.src2_addr = static_cast<uint32_t>(v); break;
    case Field::Len: in.len = static_cast<uint32_t>(v); break;
    case Field::Group: in.group = static_cast<uint16_t>(v); break;
    case Field::Tag: in.tag = static_cast<uint16_t>(v); break;
    case Field::Core: in.core = static_cast<uint16_t>(v); break;
  }
}

// ---------------------------------------------------------------- encoding

namespace {
uint64_t slot_mask(const Operand& o) {
  return (uint64_t{1} << o.bits) - 1;  // slots are at most 32 bits wide
}
}  // namespace

EncodedInstruction encode(const Instruction& in) {
  uint64_t words[2] = {static_cast<uint64_t>(in.op) | (static_cast<uint64_t>(in.dtype) << 8), 0};
  for (const Operand& o : op_info(in.op).format->operands()) {
    const int64_t v = get_field(in, o.field);
    const bool fits = o.field == Field::Imm
                          ? v >= -(int64_t{1} << (o.bits - 1)) && v < (int64_t{1} << (o.bits - 1))
                          : static_cast<uint64_t>(v) <= slot_mask(o);
    if (!fits) {
      throw std::out_of_range(strformat("encode %s: %s %lld does not fit its %u-bit field",
                                        opcode_name(in.op), field_name(o.field),
                                        static_cast<long long>(v), o.bits));
    }
    words[o.word] |= (static_cast<uint64_t>(v) & slot_mask(o)) << o.lsb;
  }
  return EncodedInstruction{words[0], words[1]};
}

Instruction decode(const EncodedInstruction& enc) {
  const uint64_t words[2] = {enc.word0, enc.word1};
  Instruction in;
  in.op = static_cast<Opcode>(enc.word0 & 0xFF);
  in.dtype = static_cast<DType>((enc.word0 >> 8) & 0xFF);
  for (const Operand& o : op_info(in.op).format->operands()) {
    uint64_t raw = (words[o.word] >> o.lsb) & slot_mask(o);
    if (o.field == Field::Imm && ((raw >> (o.bits - 1)) & 1)) {
      raw |= ~slot_mask(o);  // sign-extend
    }
    set_field(in, o.field, static_cast<int64_t>(raw));
  }
  return in;
}

// ------------------------------------------------------------ disassembly

std::string to_string(const Instruction& in) {
  const Format& f = *op_info(in.op).format;
  std::string out = opcode_name(in.op);
  const char* sep = " ";
  for (const Operand& o : f.operands()) {
    const int64_t v = get_field(in, o.field);
    const auto u = static_cast<uint32_t>(v);
    out += sep;
    sep = ", ";
    switch (o.syntax) {
      case Syntax::Addr: out += strformat("0x%x", u); break;
      case Syntax::Group: out += strformat("g%u", u); break;
      case Syntax::Reg: out += strformat("r%u", u); break;
      case Syntax::Int:
      case Syntax::Target: out += strformat("%lld", static_cast<long long>(v)); break;
      case Syntax::Global: out += strformat("g:0x%x", u); break;
      case Syntax::Named:
        out += strformat("%s=%lld", field_name(o.field), static_cast<long long>(v));
        break;
    }
  }
  if (f.dtype) out += in.dtype == DType::I8 ? ", i8" : ", i32";
  return out;
}

}  // namespace pim::isa
