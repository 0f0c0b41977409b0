// Core model (paper Fig. 2b): fetch/decode -> dispatch -> re-order buffer ->
// four execution units (matrix / vector / transfer / scalar) over a local
// memory and a scalar register file.
//
// Execution model:
//  * Instructions are fetched and dispatched in order, one per
//    fetch_decode_cycles, into the ROB (capacity = rob_size). A full ROB
//    stalls dispatch — this is the knob the paper sweeps in Fig. 4.
//  * An entry issues to its unit when (a) no data hazard against any older
//    in-flight entry remains (local-memory ranges + scalar registers, all of
//    RAW/WAR/WAW), and (b) no older instruction of the same class is still
//    un-issued (units process their class in program order).
//  * Units execute concurrently; completion is out of order; retirement is
//    in order from the ROB head.
//  * The matrix unit admits concurrent MVMs on *different* crossbar groups;
//    MVMs on the same group serialize on the group — the "structure hazard"
//    the paper names as the reason ROB scaling flattens (Fig. 4).
//  * Transfers are synchronized rendezvous through the mesh NoC (see noc.h).
//    SEND, GLOAD and GSTORE run one sequence: source access (local memory,
//    or the global-memory port for GLOAD), the SEND rendezvous, one walk
//    over the route's links, destination access (the peer's or this core's
//    local memory, or the global-memory port for GSTORE).
//  * Operands come from the ISA's operand table, not from a table here:
//    hazard ranges are isa::local_ranges, register hazards
//    isa::regs_read/regs_written, port occupancy and energy
//    Instruction::bytes_in()/bytes_out(), functional vector element widths
//    isa::src_width/dst_width, and the front end stalls on isa::is_branch.
//
// Bookkeeping cost (the simulated behaviour does not depend on it):
//  * The ROB is a ring of rob_size slots with stable addresses; an entry's
//    slot follows from its program-order number, and each execution
//    coroutine holds a reference to its slot until it completes.
//  * The hazard check is incremental. An entry's ranges and registers are
//    fixed at dispatch and Done is permanent, so once an older entry is
//    found Done or disjoint it never blocks this entry again. Each entry
//    keeps the order number of the oldest older entry it has not cleared
//    (hazard_from) and resumes there, which makes the checks of an entry
//    O(ROB) in total instead of O(ROB) per scan.
//  * Waiting entries also sit in one FIFO per class. Only a class's oldest
//    waiting entry can issue, so a scan tries the four queue heads, oldest
//    first, and stops once every class is blocked or empty; it never walks
//    the executing entries. Issue order is ROB order, as a full walk gives.
//  * A scan is one resume of a coroutine the core owns (scan_proc), not a
//    parked callback.
//  * A timing-only instruction allocates nothing: the route is walked hop by
//    hop (Noc::Route), rendezvous records live in the waiting coroutines'
//    frames, and frames come from the kernel's pool. Functional runs reuse
//    per-group MVM and per-core vector/transfer staging buffers.
//
// The core is also *functional*: local memory holds real bytes, units
// compute real int8/int32 arithmetic, so simulated inference results can be
// checked against the nn reference executor bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/noc.h"
#include "arch/stats.h"
#include "config/arch_config.h"
#include "isa/program.h"
#include "sim/kernel.h"

namespace pim::arch {

class Chip;

class Core {
 public:
  Core(sim::Kernel& kernel, const config::ArchConfig& cfg, uint16_t id, Chip& chip,
       const isa::CoreProgram& program, RunStats& stats);
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Spawn the dispatch process. No-op for a core with an empty program.
  void start();

  uint16_t id() const { return id_; }
  bool halted() const { return halted_; }
  bool started() const { return started_; }

  /// Functional local memory, sized to the program's static high-water
  /// mark (isa::CoreProgram::lm_high_water). Empty in timing-only runs
  /// (sim.functional == false): contents are never read or written there,
  /// so the backing store is not allocated.
  std::vector<uint8_t>& lm() { return lm_; }
  const std::vector<uint8_t>& lm() const { return lm_; }

  /// Local-memory access port: single-ported, bandwidth-serialized. Shared
  /// with remote senders delivering payloads into this core.
  sim::Resource& lm_port() { return lm_port_; }
  /// Port occupancy for an access of `bytes`, in ps (latency + serialization).
  sim::Time lm_access_ps(uint64_t bytes) const;
  /// Charge local-memory access energy.
  void charge_lm(uint64_t bytes);

  CoreStats& stats() { return my_stats_; }

 private:
  static constexpr uint64_t kNoEntry = ~uint64_t{0};

  struct RobEntry {
    const isa::Instruction* instr = nullptr;
    uint64_t order = 0;  ///< program-order sequence number
    /// Order number of the oldest older entry not yet cleared as Done or
    /// hazard-free against this one (see hazards_clear).
    uint64_t hazard_from = 0;
    /// The entry at hazard_from was found to conflict with this one.
    bool hazard_found = false;
    /// Order number of the next entry of the same class, while waiting.
    uint64_t next_of_class = kNoEntry;
    enum class State { Waiting, Executing, Done } state = State::Waiting;
    isa::InstrClass cls = isa::InstrClass::Scalar;
    isa::LocalRange reads[2];
    int read_count = 0;
    isa::LocalRange write;
    uint32_t reg_reads = 0;   ///< bitmask of registers read
    uint32_t reg_writes = 0;  ///< bitmask of registers written
    sim::Time issue_ps = 0;
  };

  // -- processes ------------------------------------------------------------
  sim::Process dispatch_proc();
  sim::Process exec_matrix(RobEntry& e);
  sim::Process exec_vector(RobEntry& e);
  sim::Process exec_transfer(RobEntry& e);
  sim::Process exec_scalar(RobEntry& e);
  /// Runs scan() once per resume. The core owns it and never spawns it:
  /// request_scan schedules its handle directly (Kernel::resume_at).
  sim::Process scan_proc();

  // -- ROB machinery ----------------------------------------------------------
  void fill_hazard_info(RobEntry& e) const;
  static bool conflicts(const RobEntry& e, const RobEntry& older);
  bool hazards_clear(RobEntry& e);
  size_t rob_next(size_t slot) const { return slot + 1 == rob_.size() ? 0 : slot + 1; }
  /// Ring slot of the entry with program-order number `order` (which must be
  /// in [rob_head_order_, rob_head_order_ + rob_.size()]).
  size_t slot_of(uint64_t order) const {
    const size_t slot = rob_head_ + static_cast<size_t>(order - rob_head_order_);
    return slot >= rob_.size() ? slot - rob_.size() : slot;
  }
  void request_scan();
  void scan();  ///< retire from head, then issue ready entries
  void complete(RobEntry& e);

  // -- helpers ----------------------------------------------------------------
  const isa::GroupDef& group(uint16_t id) const;
  LayerStats* layer_stats(const isa::Instruction& in);

  sim::Kernel& kernel_;
  const config::ArchConfig& cfg_;
  const uint16_t id_;
  Chip& chip_;
  // Tracing (owned by the tool / Chip; null = off). unit_tids_ is indexed by
  // InstrClass; dispatch_tid_ carries ROB-full stall spans.
  telemetry::TraceSink* trace_ = nullptr;
  std::array<uint32_t, 4> unit_tids_{};
  uint32_t dispatch_tid_ = 0;
  const isa::CoreProgram& program_;
  RunStats& stats_;
  CoreStats& my_stats_;

  sim::Clock clock_;
  std::vector<uint8_t> lm_;
  std::array<int32_t, config::kMaxRegisterCount> regs_{};
  static_assert(config::kMaxRegisterCount <= 32, "register hazard masks are 32 bits wide");

  // Structural resources.
  sim::Resource lm_port_;
  sim::Resource vector_unit_;
  sim::Resource transfer_unit_;
  sim::Resource scalar_unit_;
  sim::Resource adc_pool_;
  std::vector<const isa::GroupDef*> groups_;                 // index: group id
  std::vector<std::unique_ptr<sim::Resource>> group_locks_;  // index: group id
  std::vector<LayerStats*> layer_cache_;  // index: layer id; filled on first use

  // Functional staging buffers. A group's lock, the vector unit and the
  // transfer unit each admit one instruction at a time, so one buffer per
  // group (MVM partial sums) and one per unit is never shared.
  std::vector<std::vector<int32_t>> mvm_sums_;  // index: group id
  std::vector<uint8_t> vector_out_;
  std::vector<uint8_t> payload_;

  // ROB: a ring of rob_size slots holding rob_count_ entries from rob_head_;
  // the head entry's order number is rob_head_order_.
  std::vector<RobEntry> rob_;
  size_t rob_head_ = 0;
  size_t rob_count_ = 0;
  uint64_t rob_head_order_ = 0;
  uint64_t next_order_ = 0;
  /// Per InstrClass, the oldest and newest waiting entries (order numbers,
  /// kNoEntry when none): a queue linked through RobEntry::next_of_class.
  std::array<uint64_t, 4> waiting_head_{kNoEntry, kNoEntry, kNoEntry, kNoEntry};
  std::array<uint64_t, 4> waiting_tail_{};
  sim::Process scan_process_;
  sim::Event rob_slot_freed_;
  sim::Event branch_resolved_;
  int32_t branch_target_ = -1;  ///< -1 = fall-through, else new pc
  bool scan_scheduled_ = false;
  bool dispatch_done_ = false;
  bool halted_ = false;
  bool started_ = false;
};

}  // namespace pim::arch
