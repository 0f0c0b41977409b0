// Instruction corpora the ISA tests share: one instruction per opcode with
// every field it carries at its largest encodable value, and the random
// instructions of the encoder fuzz.
//
// Both corpora fill exactly the fields each opcode's format carries (the
// ISA's operand table), so every instruction in them must round-trip
// through encode/decode and to_string/assemble unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "isa/isa.h"

namespace pim::isa::corpus {

/// Every opcode, in opcode-value order.
inline std::vector<Opcode> opcodes() {
  std::vector<Opcode> out;
  for (unsigned v = 0; v < 256; ++v) {
    if (op_info(static_cast<Opcode>(v)).name != nullptr) out.push_back(static_cast<Opcode>(v));
  }
  return out;
}

/// Smallest and largest value a field's slot encodes (a length is at least
/// 1; an immediate is signed).
inline int64_t field_min(const Operand& o) {
  if (o.field == Field::Imm) return -(int64_t{1} << (o.bits - 1));
  return o.field == Field::Len ? 1 : 0;
}
inline int64_t field_max(const Operand& o) {
  if (o.field == Field::Imm) return (int64_t{1} << (o.bits - 1)) - 1;
  return (int64_t{1} << o.bits) - 1;
}

/// One instruction per opcode, every field it carries at its maximum and
/// i32 where it names an element type.
inline std::vector<Instruction> max_field_instructions() {
  std::vector<Instruction> out;
  for (Opcode op : opcodes()) {
    const Format& format = *op_info(op).format;
    Instruction in;
    in.op = op;
    if (format.dtype) in.dtype = DType::I32;
    for (const Operand& o : format.operands()) set_field(in, o.field, field_max(o));
    out.push_back(in);
  }
  return out;
}

/// A random instruction: a uniform opcode, then every field it carries
/// uniform over its encodable range.
inline Instruction random_instruction(Rng& rng) {
  static const std::vector<Opcode> ops = opcodes();
  Instruction in;
  in.op = ops[static_cast<size_t>(rng.uniform(0, static_cast<int64_t>(ops.size()) - 1))];
  const Format& format = *op_info(in.op).format;
  in.dtype = rng.uniform(0, 1) != 0 ? DType::I32 : DType::I8;
  if (!format.dtype) in.dtype = DType::I8;
  for (const Operand& o : format.operands()) {
    set_field(in, o.field, rng.uniform(field_min(o), field_max(o)));
  }
  return in;
}

/// The encoder fuzz corpus: `count` random instructions from seed 0xC0DEC.
inline std::vector<Instruction> fuzz_instructions(size_t count = 10000) {
  Rng rng(0xC0DEC);
  std::vector<Instruction> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(random_instruction(rng));
  return out;
}

}  // namespace pim::isa::corpus
