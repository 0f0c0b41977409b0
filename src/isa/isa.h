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

#include <cstdint>
#include <string>
#include <vector>

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
  VSET,       ///< dst[i] = imm                          (i32)
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
/// a second local-memory address (vaddi/vmuli/vshr/vset/vquant).
bool uses_vector_imm(Opcode op);

/// True for vector opcodes that read a second local-memory vector at
/// src2_addr (vadd/vsub/vmul/vmax/vmin); the two sources have equal size.
inline bool has_vector_src2(Opcode op) {
  return op == Opcode::VADD || op == Opcode::VSUB || op == Opcode::VMUL ||
         op == Opcode::VMAX || op == Opcode::VMIN;
}

/// True for control-flow opcodes: jmp and the conditional branches.
inline bool is_branch(Opcode op) {
  return op == Opcode::JMP || op == Opcode::BEQ || op == Opcode::BNE || op == Opcode::BLT ||
         op == Opcode::BGE;
}

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

  /// Bytes read from / written to local memory: the core model's port
  /// occupancy, energy and hazard ranges. A two-source vector op reads two
  /// equal halves of bytes_in(); an MVM's bytes_out() is 0 because its
  /// output length belongs to the crossbar group.
  uint64_t bytes_in() const;
  uint64_t bytes_out() const;

  bool operator==(const Instruction&) const = default;
};

// -- binary encoding ---------------------------------------------------------
//
// Fixed-width 128-bit format (two little-endian 64-bit words):
//
//   word0: [ 7:0] opcode   [15:8] dtype   [23:16] rd   [31:24] rs1
//          [39:32] rs2     [55:40] group  [63:56] reserved
//   word1 packing depends on class; see encoding.cpp.

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
