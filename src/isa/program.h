// Program container: the compiler's output and the simulator's input.
//
// A `Program` holds one instruction stream per core plus the per-core
// crossbar *group table* — the paper's "mapping register" contents (Fig. 2c):
// which crossbars form each logical matrix, the matrix dimensions, and (for
// functional simulation) the quantized weights themselves.
//
// Who verifies: compiler::compile runs Program::verify once and mints a
// VerifyProof, which runtime::CompiledNetwork keeps next to its (const)
// program. arch::Chip re-verifies any program it gets without a proof that
// covers it, so raw programs (simulate_program, pimsim on a program file)
// are verified exactly once, by the chip, and compiled ones only by the
// compiler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "json/json.h"

namespace pim::config {
struct ArchConfig;
}

namespace pim::isa {

/// One crossbar group: the set of crossbars jointly storing a logical weight
/// matrix slice of shape [in_len x out_len]. All crossbars in a group share
/// the same input vector and fire in parallel (paper §II group mechanism).
struct GroupDef {
  uint16_t id = 0;
  uint32_t in_len = 0;     ///< rows of the logical matrix slice (<= xbar rows)
  uint32_t out_len = 0;    ///< columns of the logical matrix slice
  uint32_t xbar_count = 0; ///< physical crossbars occupied by this group
  int32_t out_shift = 0;   ///< requantization shift folded into this matrix
  /// Row-major int8 weights [in_len x out_len]; empty when running
  /// timing-only simulations.
  std::vector<int8_t> weights;

  bool operator==(const GroupDef&) const = default;
};

/// A data segment preloaded into local memory before execution starts
/// (constants such as biases — the loader's job, like .data in an ELF).
struct DataSegment {
  uint32_t addr = 0;
  std::vector<uint8_t> bytes;
  bool operator==(const DataSegment&) const = default;
};

/// Instruction stream + group table for one core.
struct CoreProgram {
  std::vector<Instruction> code;
  std::vector<GroupDef> groups;
  std::vector<DataSegment> lm_init;

  /// Groups by id: slot `id` points at the first group with that id,
  /// nullptr where none has it. Sized to the largest id + 1.
  std::vector<const GroupDef*> group_table() const;
  /// Total crossbars used by all groups on this core.
  uint32_t xbars_used() const;
  /// One past the highest local-memory byte this core's data segments and
  /// instructions may touch, by the same ranges verify() checks and the
  /// core accesses (isa::local_ranges). Every local-memory operand is an
  /// immediate, so this static mark bounds every access; a verified
  /// program's mark never exceeds the configured local memory.
  uint64_t lm_high_water() const;

  bool operator==(const CoreProgram&) const = default;
};

struct Program;

/// Proof that one Program passed verify() with no violations under an
/// architecture whose compile-relevant key (config::arch_key) it records.
/// Only Program::verify mints one. It names the program by its core table,
/// whose buffer moves with the Program but is not shared by copies, so it
/// covers neither a copy nor a different program. Modifying a proven
/// program voids the proof without the proof noticing, and a proof must
/// not outlive its program: holders keep both together and the program
/// const, as runtime::CompiledNetwork does.
class VerifyProof {
 public:
  /// True when this proof is for `program` and `cfg` has the key it was
  /// verified under, so verifying again under `cfg` would find nothing.
  bool covers(const Program& program, const config::ArchConfig& cfg) const;

 private:
  friend struct Program;
  VerifyProof(const CoreProgram* cores, size_t core_count, uint64_t arch_key)
      : cores_(cores), core_count_(core_count), arch_key_(arch_key) {}

  const CoreProgram* cores_;
  size_t core_count_;
  uint64_t arch_key_;
};

/// A compiled network: one CoreProgram per core (index == core id), plus
/// metadata describing provenance.
struct Program {
  std::string network_name;
  std::string mapping_policy;  ///< "utilization_first" / "performance_first" / ...
  std::vector<CoreProgram> cores;

  size_t total_instructions() const;
  size_t total_groups() const;

  /// Structural verification against an architecture:
  ///  * every referenced group id exists and fits in the core's crossbars,
  ///  * local-memory addresses stay within the configured local memory,
  ///  * SEND/RECV peers are valid core ids and pair up by (src,dst,tag),
  ///  * branch targets are in range, every core ends with HALT,
  ///  * vector/transfer length limits of the binary encoding are respected.
  /// Returns the list of violations (empty == valid). One pass over the
  /// program plus a sort of its SEND/RECV flows. When `proof` is non-null
  /// it receives a VerifyProof for `cfg` if the list is empty, and is reset
  /// otherwise.
  std::vector<std::string> verify(const config::ArchConfig& cfg,
                                  std::optional<VerifyProof>* proof = nullptr) const;

  json::Value to_json(bool include_weights = true) const;
  static Program from_json(const json::Value& v);
  void save(const std::string& path, bool include_weights = true) const;
  static Program load(const std::string& path);

  bool operator==(const Program&) const = default;
};

}  // namespace pim::isa
