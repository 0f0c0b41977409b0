// The PIMSIM-NN instruction set architecture.
//
// The ISA is the paper's central contribution: it decouples the software
// (compiler) from the hardware (simulator) so each can be optimized
// independently. Instructions are high-level abstractions of the primary
// operators in DNN inference and fall into four classes, each executed by a
// dedicated unit in the core (Fig. 2b of the paper):
//
//   matrix    MVM — crossbar-group matrix-vector multiply
//   vector    element-wise SIMD ops over local memory (add/mul/relu/...)
//   transfer  synchronized core<->core SEND/RECV and global-memory access
//   scalar    register ALU ops and control flow
//
// The abstract machine (paper §II): cores and a global memory connected by
// an interconnect; each core has a local memory addressed by matrix, vector
// and transfer instructions, a scalar register file, and crossbars organized
// into *groups*. A group is the set of crossbars that jointly store one
// logical weight matrix and share the same input vector; its crossbars fire
// in parallel (paper's "group mechanism").
//
// Data types: activations are quantized int8 in local memory; MVM and vector
// arithmetic accumulate in int32; VQUANT requantizes int32 -> int8 with a
// rounded arithmetic shift.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

namespace pim::isa {

/// The four instruction classes of the ISA; each maps to one execution unit.
enum class InstrClass : uint8_t { Matrix = 0, Vector = 1, Transfer = 2, Scalar = 3 };

enum class Opcode : uint8_t {
  // -- matrix ---------------------------------------------------------------
  MVM = 0,    ///< local[dst:i32,out_len] = group(W) * local[src1:i8,len]

  // -- vector ---------------------------------------------------------------
  // Element-wise ops operate on `dtype` elements (i8 ops saturate).
  VADD = 16,  ///< dst[i] = src1[i] + src2[i]
  VSUB,       ///< dst[i] = src1[i] - src2[i]
  VMUL,       ///< dst[i] = src1[i] * src2[i]
  VMAX,       ///< dst[i] = max(src1[i], src2[i])
  VMIN,       ///< dst[i] = min(src1[i], src2[i])
  VADDI,      ///< dst[i] = src1[i] + imm
  VMULI,      ///< dst[i] = src1[i] * imm
  VSHR,       ///< dst[i] = round_shift(src1[i], imm)
  VDIVI,      ///< dst[i] = round_div(src1[i], imm)      (imm > 0)
  VRELU,      ///< dst[i] = max(src1[i], 0)
  VSIGMOID,   ///< dst[i] = lut_sigmoid(src1[i])         (i32, Q16 fixed point)
  VTANH,      ///< dst[i] = lut_tanh(src1[i])            (i32, Q16 fixed point)
  VMOV,       ///< dst[i] = src1[i]                      (dtype from `dtype`)
  VSET,       ///< dst[i] = imm                          (dtype from `dtype`)
  VQUANT,     ///< dst[i:i8] = sat8(round_shift(src1[i:i32], imm))
  VDEQUANT,   ///< dst[i:i32] = widen(src1[i:i8])

  // -- transfer -------------------------------------------------------------
  SEND = 32,  ///< send local[src1, len*dtype) to core `core`, matching `tag`
  RECV,       ///< receive into local[dst, len*dtype) from core `core`, `tag`
  GLOAD,      ///< local[dst, len*dtype) = global[imm (byte address), ...)
  GSTORE,     ///< global[imm, ...) = local[src1, len*dtype)

  // -- scalar ---------------------------------------------------------------
  LDI = 48,   ///< r[rd] = imm
  SADD,       ///< r[rd] = r[rs1] + r[rs2]
  SSUB,       ///< r[rd] = r[rs1] - r[rs2]
  SMUL,       ///< r[rd] = r[rs1] * r[rs2]
  SADDI,      ///< r[rd] = r[rs1] + imm
  SAND,       ///< r[rd] = r[rs1] & r[rs2]
  SOR,        ///< r[rd] = r[rs1] | r[rs2]
  SXOR,       ///< r[rd] = r[rs1] ^ r[rs2]
  SSLL,       ///< r[rd] = r[rs1] << (r[rs2] & 31)
  SSRA,       ///< r[rd] = r[rs1] >> (r[rs2] & 31)  (arithmetic)
  JMP,        ///< pc = imm (absolute instruction index)
  BEQ,        ///< if (r[rs1] == r[rs2]) pc = imm
  BNE,        ///< if (r[rs1] != r[rs2]) pc = imm
  BLT,        ///< if (r[rs1] <  r[rs2]) pc = imm
  BGE,        ///< if (r[rs1] >= r[rs2]) pc = imm
  NOP,        ///< no operation
  HALT,       ///< stop this core
};

/// Element types moved by vector/transfer instructions.
enum class DType : uint8_t { I8 = 0, I32 = 1 };

inline uint32_t dtype_size(DType t) { return t == DType::I8 ? 1u : 4u; }

/// Instruction class of an opcode (by numeric range).
inline InstrClass instr_class(Opcode op) {
  const auto v = static_cast<uint8_t>(op);
  return v < 16 ? InstrClass::Matrix
         : v < 32 ? InstrClass::Vector
         : v < 48 ? InstrClass::Transfer
                  : InstrClass::Scalar;
}

/// Mnemonic of an opcode, lowercase ("mvm", "vadd", ...).
const char* opcode_name(Opcode op);

/// Inverse of opcode_name; throws std::invalid_argument on unknown mnemonic.
Opcode opcode_from_name(const std::string& name);

/// True for vector opcodes whose second operand is an immediate rather than
/// a second local-memory address (vaddi/vmuli/vshr/vdivi/vset/vquant).
bool uses_vector_imm(Opcode op);

/// A decoded instruction. The same struct is produced by the compiler, by
/// the binary decoder, and by the assembler; the simulator executes it
/// directly (decode cost is modeled in time, not re-done in data).
struct Instruction {
  Opcode op = Opcode::NOP;
  DType dtype = DType::I8;

  /// Provenance: id of the network layer this instruction implements, or -1.
  /// Debug/statistics metadata only — not part of the binary encoding.
  int32_t layer_id = -1;

  // Scalar register operands.
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;

  // Immediate: scalar value, branch target, or global-memory byte address.
  int32_t imm = 0;

  // Local-memory byte addresses.
  uint32_t dst_addr = 0;
  uint32_t src1_addr = 0;
  uint32_t src2_addr = 0;

  // Element count for matrix/vector/transfer operations.
  uint32_t len = 0;

  // Matrix: group id. Transfer: matching tag.
  uint16_t group = 0;
  uint16_t tag = 0;

  // Transfer: peer core id (SEND destination / RECV source).
  uint16_t core = 0;

  InstrClass cls() const { return instr_class(op); }

  /// Bytes read from / written to local memory, the sums of local_ranges():
  /// the core model's port occupancy and energy. A two-source vector op
  /// reads two equal halves of bytes_in(); an MVM's bytes_out() is 0
  /// because its output length belongs to the crossbar group.
  uint64_t bytes_in() const;
  uint64_t bytes_out() const;

  bool operator==(const Instruction&) const = default;
};

// -- operand table ------------------------------------------------------------
//
// isa.cpp holds one row per opcode: its mnemonic, its operand format and its
// source and destination element widths. The encoding, the assembly text,
// verify's local-memory ranges and the core's hazard sets are all read from
// that row.

/// The operand fields of an Instruction (dtype and layer_id aside).
enum class Field : uint8_t { Rd, Rs1, Rs2, Imm, Dst, Src1, Src2, Len, Group, Tag, Core };
constexpr size_t kFieldCount = static_cast<size_t>(Field::Core) + 1;

/// Program-JSON key and assembly name of a field: "rd", "dst", "len", ...
const char* field_name(Field f);
/// A field's value; imm is signed, every other field unsigned.
int64_t get_field(const Instruction& in, Field f);
/// Store `v` into a field, truncated to the field's C++ type.
void set_field(Instruction& in, Field f, int64_t v);

/// How the assembly text writes a field.
enum class Syntax : uint8_t {
  Addr,    ///< local-memory address, "0x1f0"
  Group,   ///< crossbar group, "g3"
  Reg,     ///< scalar register, "r5"
  Int,     ///< signed value, "-12"
  Target,  ///< branch target, "42" (assembly input may name a label)
  Global,  ///< global-memory address, "g:0x100"
  Named,   ///< "<field>=<value>", e.g. "len=64", "imm=-3"
};

/// One field an opcode carries: its slot in the binary encoding and how the
/// text writes it.
struct Operand {
  Field field = Field::Len;
  uint8_t word = 0;  ///< EncodedInstruction word: 0 or 1
  uint8_t lsb = 0;
  uint8_t bits = 0;  ///< slot width; imm is sign-extended from it
  Syntax syntax = Syntax::Addr;
};

/// A local-memory range an opcode reads or writes. Its size is `len`
/// elements of the opcode's source or destination width, except an MVM's
/// output (group_out), which is its group's out_len int32 sums.
struct Access {
  uint32_t Instruction::*addr = &Instruction::dst_addr;
  bool write = false;
  const char* name = "";  ///< operand name in verify's messages
  bool group_out = false;
};

/// An operand format: the fields an opcode carries, in assembly-text order,
/// the local memory they name, in the order verify reports it, and whether
/// the text ends with the element type.
struct Format {
  constexpr Format(std::initializer_list<Operand> ops, std::initializer_list<Access> acc,
                   bool with_dtype)
      : dtype(with_dtype) {
    for (const Operand& o : ops) {
      operands_[operand_count_++] = o;
      carried |= 1u << static_cast<unsigned>(o.field);
      if (o.syntax == Syntax::Target) branch = true;
      if (o.field == Field::Len) len_max = static_cast<uint32_t>((uint64_t{1} << o.bits) - 1);
    }
    for (const Access& a : acc) {
      accesses_[access_count_++] = a;
      if (!a.write) ++reads;
      if (a.write && !a.group_out) ++len_writes;
    }
  }
  std::span<const Operand> operands() const { return {operands_.data(), operand_count_}; }
  std::span<const Access> accesses() const { return {accesses_.data(), access_count_}; }
  bool carries(Field f) const { return (carried >> static_cast<unsigned>(f)) & 1u; }

  bool dtype = false;      ///< text ends with ", i8" or ", i32"
  bool branch = false;     ///< carries a branch target
  uint16_t carried = 0;    ///< bit per Field
  uint8_t reads = 0;       ///< accesses that read `len` source elements
  uint8_t len_writes = 0;  ///< accesses that write `len` destination elements
  uint32_t len_max = 0;    ///< largest `len` the encoding's slot holds; 0 without one

 private:
  std::array<Operand, 4> operands_{};
  std::array<Access, 3> accesses_{};
  size_t operand_count_ = 0;
  size_t access_count_ = 0;
};

/// The table row of an opcode. An opcode value no opcode has gets a row with
/// a null name and an empty format.
struct OpInfo {
  const char* name = nullptr;
  const Format* format = nullptr;
  uint8_t src_width = 0;  ///< source element bytes: 1, 4, or 0 for dtype_size(dtype)
  uint8_t dst_width = 0;  ///< destination element bytes, likewise
};

// The lookups below run once or more per simulated instruction, so they are
// inline and read the table directly.
namespace detail {
/// The operand table, indexed by opcode value (defined in isa.cpp).
extern const std::array<OpInfo, 256> kOpTable;
inline uint32_t width(uint8_t w, DType t) { return w != 0 ? w : dtype_size(t); }
}  // namespace detail

inline const OpInfo& op_info(Opcode op) { return detail::kOpTable[static_cast<uint8_t>(op)]; }

/// True for control-flow opcodes: jmp and the conditional branches.
inline bool is_branch(Opcode op) { return op_info(op).format->branch; }

/// Element bytes of an instruction's sources and of its destination.
inline uint32_t src_width(const Instruction& in) {
  return detail::width(op_info(in.op).src_width, in.dtype);
}
inline uint32_t dst_width(const Instruction& in) {
  return detail::width(op_info(in.op).dst_width, in.dtype);
}

/// A local-memory byte range an instruction reads or writes.
struct LocalRange {
  uint32_t addr = 0;
  uint64_t bytes = 0;
  bool write = false;
  const char* name = "";  ///< operand name in verify's messages
  bool overlaps(const LocalRange& o) const {
    return bytes != 0 && o.bytes != 0 && addr < o.addr + o.bytes && o.addr < addr + bytes;
  }
};

/// Calls `visit(const LocalRange&)` for each local-memory range of `in`, in
/// the order verify reports them: mvm input, output; vector dst, src1, src2;
/// the transfer's local side. `mvm_out_len` sizes an MVM's output (its
/// group's out_len); other opcodes ignore it.
template <class Visit>
void local_ranges(const Instruction& in, uint32_t mvm_out_len, Visit&& visit) {
  const OpInfo& info = op_info(in.op);
  const uint64_t src = uint64_t{in.len} * detail::width(info.src_width, in.dtype);
  const uint64_t dst = uint64_t{in.len} * detail::width(info.dst_width, in.dtype);
  for (const Access& a : info.format->accesses()) {
    const uint64_t bytes = !a.write ? src : a.group_out ? 4ull * mvm_out_len : dst;
    visit(LocalRange{in.*a.addr, bytes, a.write, a.name});
  }
}

inline uint64_t Instruction::bytes_in() const {
  const OpInfo& info = op_info(op);
  return uint64_t{len} * info.format->reads * detail::width(info.src_width, dtype);
}

inline uint64_t Instruction::bytes_out() const {
  // An MVM's output belongs to its crossbar group; the matrix unit accounts
  // for it from the group table, so it counts 0 here.
  const OpInfo& info = op_info(op);
  return uint64_t{len} * info.format->len_writes * detail::width(info.dst_width, dtype);
}

/// Bit masks of the scalar registers an instruction reads and writes. r0
/// reads as zero and ignores writes, so it is in neither mask.
inline uint32_t regs_read(const Instruction& in) {
  const Format& f = *op_info(in.op).format;
  const auto bit = [](uint8_t r) { return r == 0 ? 0u : 1u << r; };
  return (f.carries(Field::Rs1) ? bit(in.rs1) : 0u) | (f.carries(Field::Rs2) ? bit(in.rs2) : 0u);
}
inline uint32_t regs_written(const Instruction& in) {
  return op_info(in.op).format->carries(Field::Rd) && in.rd != 0 ? 1u << in.rd : 0u;
}

// -- binary encoding ---------------------------------------------------------
//
// Fixed-width 128-bit format (two little-endian 64-bit words). word0 holds
// the opcode at [7:0] and the dtype at [15:8]; the rest holds the fields the
// opcode's format carries, in these slots (bits no field uses are zero):
//
//   format        word0                            word1
//   mvm           group [63:48]                    src1 [23:0]  dst [47:24]  len [63:48]
//   vector        len [47:36]                      src1 [19:0]  src2|imm [39:20]  dst [59:40]
//   send, recv    tag [63:48]                      src1|dst [19:0]  len [35:20]  core [51:36]
//   gload, gstore len [47:36]                      dst|src1 [19:0]  imm [63:32]
//   scalar        rd [23:16]  rs1 [31:24]  rs2 [39:32]   imm [31:0]
//
// So local addresses are 24 bits in an MVM and 20 bits (1 MB) elsewhere, and
// a vector immediate is a signed 20-bit value. encode() throws
// std::out_of_range, naming the opcode and the field, for a value its slot
// cannot hold.

struct EncodedInstruction {
  uint64_t word0 = 0;
  uint64_t word1 = 0;
  bool operator==(const EncodedInstruction&) const = default;
};

EncodedInstruction encode(const Instruction& instr);
Instruction decode(const EncodedInstruction& enc);

// -- assembly text ------------------------------------------------------------

/// Disassemble one instruction to canonical text, e.g.
///   "mvm g2, 0x400, 0x100, len=128"
///   "send core=3, tag=7, 0x200, len=64, i8"
std::string to_string(const Instruction& instr);

}  // namespace pim::isa
