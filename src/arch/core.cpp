#include "arch/core.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "arch/chip.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace pim::arch {

using isa::GroupDef;
using isa::Instruction;
using isa::InstrClass;
using isa::Opcode;

Core::Core(sim::Kernel& kernel, const config::ArchConfig& cfg, uint16_t id, Chip& chip,
           const isa::CoreProgram& program, RunStats& stats)
    : kernel_(kernel),
      cfg_(cfg),
      id_(id),
      chip_(chip),
      program_(program),
      stats_(stats),
      my_stats_(stats.cores.at(id)),
      clock_(kernel, cfg.core.freq_mhz),
      // Timing-only runs never read or write local-memory contents (every
      // consumer is gated on sim.functional), so skip the allocation.
      // Functional runs allocate the program's static high-water mark, not
      // the configured size: paper-scale programs touch ~100 KB of 4 MB.
      lm_(cfg.sim.functional ? program.lm_high_water() : 0, 0),
      lm_port_(kernel, 1),
      vector_unit_(kernel, 1),
      transfer_unit_(kernel, 1),
      scalar_unit_(kernel, 1),
      adc_pool_(kernel, cfg.core.matrix.adc_count),
      groups_(program.group_table()),
      rob_slot_freed_(kernel),
      branch_resolved_(kernel) {
  for (const isa::DataSegment& seg : program.lm_init) {
    if (seg.addr + seg.bytes.size() > cfg.core.local_memory.size_bytes) {
      throw std::invalid_argument(strformat("core %u: lm_init segment out of range", id));
    }
    if (cfg.sim.functional) {
      std::copy(seg.bytes.begin(), seg.bytes.end(), lm_.begin() + seg.addr);
    }
  }
  group_locks_.resize(groups_.size());
  for (const GroupDef& g : program.groups) {
    group_locks_[g.id] = std::make_unique<sim::Resource>(kernel, 1);
  }
  if (cfg.sim.functional) mvm_sums_.resize(groups_.size());
  rob_.resize(cfg.core.rob_size);
  if (telemetry::TraceSink* sink = chip.trace()) {
    trace_ = sink;
    const uint32_t pid = chip.trace_pid();
    const std::string prefix = "core" + std::to_string(id);
    unit_tids_[static_cast<size_t>(InstrClass::Matrix)] = sink->tid(pid, prefix + "/matrix");
    unit_tids_[static_cast<size_t>(InstrClass::Vector)] = sink->tid(pid, prefix + "/vector");
    unit_tids_[static_cast<size_t>(InstrClass::Transfer)] =
        sink->tid(pid, prefix + "/transfer");
    unit_tids_[static_cast<size_t>(InstrClass::Scalar)] = sink->tid(pid, prefix + "/scalar");
    dispatch_tid_ = sink->tid(pid, prefix + "/dispatch");
  }
}

void Core::start() {
  if (program_.code.empty()) return;
  started_ = true;
  scan_process_ = scan_proc();
  kernel_.spawn(dispatch_proc());
}

sim::Time Core::lm_access_ps(uint64_t bytes) const {
  const auto& lm = cfg_.core.local_memory;
  return clock_.to_ps(lm.latency_cycles + ceil_div<uint64_t>(bytes, lm.bytes_per_cycle));
}

void Core::charge_lm(uint64_t bytes) {
  stats_.energy.add(Component::LocalMemory,
                    cfg_.core.local_memory.energy_pj_per_byte * static_cast<double>(bytes));
}

const GroupDef& Core::group(uint16_t gid) const {
  const GroupDef* g = gid < groups_.size() ? groups_[gid] : nullptr;
  if (g == nullptr) {
    throw std::logic_error(strformat("core %u: undefined group %u", id_, gid));
  }
  return *g;
}

LayerStats* Core::layer_stats(const Instruction& in) {
  // Cache the map node (std::map nodes never move). The entry is still
  // created on first use, so stats.layers fills in the same order as
  // without the cache. Ids past the bound only a hand-written program uses
  // go to the map directly.
  constexpr size_t kCachedLayers = 1 << 16;
  if (in.layer_id < 0) return nullptr;
  const auto id = static_cast<size_t>(in.layer_id);
  if (id >= kCachedLayers) return &stats_.layers[in.layer_id];
  if (id >= layer_cache_.size()) layer_cache_.resize(id + 1, nullptr);
  LayerStats*& ls = layer_cache_[id];
  if (ls == nullptr) ls = &stats_.layers[in.layer_id];
  return ls;
}

// --------------------------------------------------------------- dispatch

sim::Process Core::dispatch_proc() {
  size_t pc = 0;
  while (pc < program_.code.size()) {
    const Instruction& in = program_.code[pc];
    co_await clock_.cycles(cfg_.core.fetch_decode_cycles);
    if (rob_count_ == rob_.size()) {
      const sim::Time stall_start = kernel_.now();
      while (rob_count_ == rob_.size()) {
        ++my_stats_.rob_full_stalls;
        co_await rob_slot_freed_;
      }
      if (dispatch_tid_ != 0) {
        trace_->complete(dispatch_tid_, "rob_full", stall_start,
                         kernel_.now() - stall_start);
      }
    }
    RobEntry& entry = rob_[slot_of(next_order_)];
    entry = RobEntry{};
    entry.instr = &in;
    entry.order = next_order_++;
    entry.cls = in.cls();
    fill_hazard_info(entry);
    ++rob_count_;
    // Append to its class's queue of waiting entries.
    const size_t c = static_cast<size_t>(entry.cls);
    if (waiting_head_[c] == kNoEntry) {
      waiting_head_[c] = entry.order;
    } else {
      rob_[slot_of(waiting_tail_[c])].next_of_class = entry.order;
    }
    waiting_tail_[c] = entry.order;
    request_scan();
    if (in.op == Opcode::HALT) break;
    if (isa::is_branch(in.op)) {
      // The front end stalls until the branch resolves (no speculation).
      co_await branch_resolved_;
      pc = branch_target_ >= 0 ? static_cast<size_t>(branch_target_) : pc + 1;
    } else {
      ++pc;
    }
  }
  dispatch_done_ = true;
  request_scan();
}

void Core::fill_hazard_info(RobEntry& e) const {
  // Local-memory ranges and registers as the ISA gives them. An MVM writes
  // its group's out_len int32 partial sums.
  const Instruction& in = *e.instr;
  const uint32_t out_len = e.cls == InstrClass::Matrix ? group(in.group).out_len : 0;
  isa::local_ranges(in, out_len, [&e](const isa::LocalRange& r) {
    if (r.write) {
      e.write = r;
    } else {
      e.reads[e.read_count++] = r;
    }
  });
  e.reg_reads = isa::regs_read(in);
  e.reg_writes = isa::regs_written(in);
}

bool Core::conflicts(const RobEntry& e, const RobEntry& o) {
  // RAW: my reads vs their write.
  for (int r = 0; r < e.read_count; ++r) {
    if (e.reads[r].overlaps(o.write)) return true;
  }
  // WAW / WAR.
  if (e.write.overlaps(o.write)) return true;
  for (int r = 0; r < o.read_count; ++r) {
    if (e.write.overlaps(o.reads[r])) return true;
  }
  // Registers.
  return (e.reg_reads & o.reg_writes) != 0 ||
         (e.reg_writes & (o.reg_reads | o.reg_writes)) != 0;
}

bool Core::hazards_clear(RobEntry& e) {
  // Every older entry before e.hazard_from was already found Done or
  // disjoint from e, and both stay true (ranges are fixed at dispatch, Done
  // is final), so the check resumes there; retired entries are Done too.
  // The entry at hazard_from, once found to conflict, blocks e until Done.
  uint64_t j = e.hazard_from;
  if (j < rob_head_order_) {
    j = rob_head_order_;
  } else if (e.hazard_found && rob_[slot_of(j)].state != RobEntry::State::Done) {
    return false;
  }
  for (size_t slot = slot_of(j); j < e.order; ++j, slot = rob_next(slot)) {
    const RobEntry& o = rob_[slot];
    if (o.state != RobEntry::State::Done && conflicts(e, o)) {
      e.hazard_from = j;
      e.hazard_found = true;
      return false;
    }
  }
  e.hazard_from = e.order;
  return true;
}

void Core::request_scan() {
  if (scan_scheduled_) return;
  scan_scheduled_ = true;
  kernel_.resume_at(kernel_.now(), scan_process_.handle());
}

sim::Process Core::scan_proc() {
  for (;;) {
    scan_scheduled_ = false;
    scan();
    co_await std::suspend_always{};
  }
}

void Core::scan() {
  // In-order retirement from the head.
  while (rob_count_ > 0 && rob_[rob_head_].state == RobEntry::State::Done) {
    rob_head_ = rob_next(rob_head_);
    --rob_count_;
    ++rob_head_order_;
    ++my_stats_.instructions_retired;
    rob_slot_freed_.notify();
  }
  if (rob_count_ == 0 && dispatch_done_ && !halted_) {
    halted_ = true;
    my_stats_.halt_time_ps = kernel_.now();
  }
  // Issue: per class strictly in order; across classes, limited only by data
  // hazards (this is the dispatch-unit conflict check of paper §III-B).
  // Only the oldest waiting entry of a class can issue, so the candidates
  // are the heads of the four waiting queues, tried oldest first (ROB
  // order). A class whose head is blocked is done for this scan; the scan
  // ends when every class is done.
  size_t active[4];
  size_t n_active = 0;
  for (size_t c = 0; c < 4; ++c) {
    if (waiting_head_[c] != kNoEntry) active[n_active++] = c;
  }
  while (n_active > 0) {
    size_t pick = 0;
    for (size_t k = 1; k < n_active; ++k) {
      if (waiting_head_[active[k]] < waiting_head_[active[pick]]) pick = k;
    }
    const size_t c = active[pick];
    RobEntry& e = rob_[slot_of(waiting_head_[c])];
    if (!hazards_clear(e)) {
      active[pick] = active[--n_active];
      continue;
    }
    waiting_head_[c] = e.next_of_class;
    if (e.next_of_class == kNoEntry) active[pick] = active[--n_active];
    e.state = RobEntry::State::Executing;
    e.issue_ps = kernel_.now();
    if (LayerStats* ls = layer_stats(*e.instr)) {
      ls->first_issue_ps = std::min(ls->first_issue_ps, e.issue_ps);
    }
    switch (e.cls) {
      case InstrClass::Matrix: kernel_.spawn(exec_matrix(e)); break;
      case InstrClass::Vector: kernel_.spawn(exec_vector(e)); break;
      case InstrClass::Transfer: kernel_.spawn(exec_transfer(e)); break;
      case InstrClass::Scalar: kernel_.spawn(exec_scalar(e)); break;
    }
  }
}

void Core::complete(RobEntry& e) {
  e.state = RobEntry::State::Done;
  const sim::Time dur = kernel_.now() - e.issue_ps;
  if (trace_ != nullptr) {
    trace_->complete(unit_tids_[static_cast<size_t>(e.cls)],
                     isa::to_string(*e.instr), e.issue_ps, dur);
  }
  LayerStats* ls = layer_stats(*e.instr);
  if (ls != nullptr) ls->last_complete_ps = std::max(ls->last_complete_ps, kernel_.now());
  auto account = [&](UnitStats& unit, sim::Time LayerStats::*layer_busy) {
    ++unit.ops;
    unit.busy_ps += dur;
    if (ls != nullptr && layer_busy != nullptr) ls->*layer_busy += dur;
  };
  switch (e.cls) {
    case InstrClass::Matrix:
      account(my_stats_.matrix, &LayerStats::matrix_busy_ps);
      if (ls != nullptr) ++ls->mvm_count;
      break;
    case InstrClass::Vector: account(my_stats_.vector, &LayerStats::vector_busy_ps); break;
    case InstrClass::Transfer: account(my_stats_.transfer, &LayerStats::transfer_busy_ps); break;
    case InstrClass::Scalar: account(my_stats_.scalar, nullptr); break;
  }
  request_scan();
}

// ------------------------------------------------------------------ matrix

sim::Process Core::exec_matrix(RobEntry& e) {
  const Instruction& in = *e.instr;
  const GroupDef& g = group(in.group);
  sim::Resource& lock = *group_locks_[in.group];
  // Structural hazard: the group's crossbars serve one MVM at a time.
  co_await lock.acquire();

  // Read the input vector from local memory.
  co_await lm_port_.acquire();
  co_await kernel_.delay(lm_access_ps(in.len));
  lm_port_.release();
  charge_lm(in.len);

  // Functional: int32 partial sums (no weights -> zeros), staged in this
  // group's buffer, which the group lock keeps to this MVM.
  int32_t* sums = nullptr;
  if (cfg_.sim.functional) {
    std::vector<int32_t>& buf = mvm_sums_[in.group];
    buf.assign(g.out_len, 0);
    sums = buf.data();
    if (!g.weights.empty()) {
      const int8_t* src = reinterpret_cast<const int8_t*>(lm_.data() + in.src1_addr);
      for (uint32_t k = 0; k < g.in_len; ++k) {
        const int32_t xv = src[k];
        if (xv == 0) continue;
        const int8_t* wrow = g.weights.data() + size_t{k} * g.out_len;
        for (uint32_t j = 0; j < g.out_len; ++j) sums[j] += xv * wrow[j];
      }
    }
  }

  // Analog pipeline: bit-serial phases; array reads overlap the ADC
  // conversions of the previous phase. The group converts on up to
  // min(xbar_count, adc_count) parallel ADC channels; with per-crossbar ADCs
  // each crossbar streams its own columns, with shared ADCs the columns
  // funnel through fewer converters.
  const auto& xb = cfg_.core.matrix.xbar;
  const auto& adc = cfg_.core.matrix.adc;
  const uint64_t phases = xb.phases();
  const uint32_t adcs_for_group = std::max(1u, std::min(g.xbar_count, cfg_.core.matrix.adc_count));
  const uint64_t adc_per_phase =
      ceil_div<uint64_t>(ceil_div(g.out_len, adcs_for_group), adc.samples_per_cycle);
  co_await clock_.cycles(xb.read_latency_cycles);
  co_await adc_pool_.acquire();
  const uint64_t steady = std::max<uint64_t>(adc_per_phase, xb.read_latency_cycles);
  co_await clock_.cycles((phases - 1) * steady + adc_per_phase);
  adc_pool_.release();

  stats_.energy.add(Component::Xbar,
                    static_cast<double>(phases) * xb.read_energy_pj * g.xbar_count);
  stats_.energy.add(Component::Dac, static_cast<double>(phases) * xb.dac_energy_pj_per_row *
                                        g.in_len * g.xbar_count);
  stats_.energy.add(Component::Adc, static_cast<double>(phases) * adc.energy_pj_per_sample *
                                        g.out_len);

  // Write the int32 partial sums back.
  co_await lm_port_.acquire();
  co_await kernel_.delay(lm_access_ps(4ull * g.out_len));
  lm_port_.release();
  charge_lm(4ull * g.out_len);
  if (sums != nullptr) std::memcpy(lm_.data() + in.dst_addr, sums, 4ull * g.out_len);

  lock.release();
  complete(e);
}

// ------------------------------------------------------------------ vector

namespace {
/// Fixed-point Q16 sigmoid/tanh used by VSIGMOID/VTANH (input and output are
/// Q16: value = raw / 65536). Deterministic across platforms for the inputs
/// the tests use; a hardware implementation would use a LUT of this curve.
int32_t q16_sigmoid(int32_t x) {
  const double v = 1.0 / (1.0 + std::exp(-static_cast<double>(x) / 65536.0));
  return static_cast<int32_t>(std::lround(v * 65536.0));
}
int32_t q16_tanh(int32_t x) {
  const double v = std::tanh(static_cast<double>(x) / 65536.0);
  return static_cast<int32_t>(std::lround(v * 65536.0));
}
}  // namespace

sim::Process Core::exec_vector(RobEntry& e) {
  const Instruction& in = *e.instr;
  const auto& vu = cfg_.core.vector;
  co_await vector_unit_.acquire();

  const uint64_t bytes_in = in.bytes_in();
  const uint64_t bytes_out = in.bytes_out();
  if (bytes_in) {
    co_await lm_port_.acquire();
    co_await kernel_.delay(lm_access_ps(bytes_in));
    lm_port_.release();
    charge_lm(bytes_in);
  }

  // Functional evaluation into the core's staging buffer (applied after the
  // write latency below, i.e. at completion time); the vector unit is held
  // throughout, so no other vector instruction touches the buffer.
  if (cfg_.sim.functional) {
    vector_out_.assign(bytes_out, 0);
    // Element widths from the ISA: i8 sources sign-extend, i8 destinations
    // saturate (VQUANT saturated already; saturate_i8 is then the identity),
    // i32 destinations store the low 32 bits.
    const bool src_i8 = isa::src_width(in) == 1;
    const bool out_i8 = isa::dst_width(in) == 1;
    auto load = [&](uint32_t addr, uint32_t i) -> int64_t {
      if (src_i8) return *reinterpret_cast<const int8_t*>(lm_.data() + addr + i);
      int32_t v;
      std::memcpy(&v, lm_.data() + addr + 4ull * i, 4);
      return v;
    };
    auto load1 = [&](uint32_t i) { return load(in.src1_addr, i); };
    auto load2 = [&](uint32_t i) { return load(in.src2_addr, i); };
    auto store = [&](uint32_t i, int64_t v) {
      if (out_i8) {
        vector_out_[i] = static_cast<uint8_t>(saturate_i8(v));
      } else {
        const int32_t w = static_cast<int32_t>(v);
        std::memcpy(vector_out_.data() + 4ull * i, &w, 4);
      }
    };
    for (uint32_t i = 0; i < in.len; ++i) {
      int64_t v = 0;
      switch (in.op) {
        case Opcode::VADD: v = load1(i) + load2(i); break;
        case Opcode::VSUB: v = load1(i) - load2(i); break;
        case Opcode::VMUL: v = load1(i) * load2(i); break;
        case Opcode::VMAX: v = std::max(load1(i), load2(i)); break;
        case Opcode::VMIN: v = std::min(load1(i), load2(i)); break;
        case Opcode::VADDI: v = load1(i) + in.imm; break;
        case Opcode::VMULI: v = load1(i) * in.imm; break;
        case Opcode::VSHR: v = rounded_shift_right(load1(i), in.imm); break;
        case Opcode::VDIVI: v = (load1(i) + in.imm / 2) / in.imm; break;
        case Opcode::VRELU: v = std::max<int64_t>(load1(i), 0); break;
        case Opcode::VSIGMOID: v = q16_sigmoid(static_cast<int32_t>(load1(i))); break;
        case Opcode::VTANH: v = q16_tanh(static_cast<int32_t>(load1(i))); break;
        case Opcode::VMOV: v = load1(i); break;
        case Opcode::VSET: v = in.imm; break;
        case Opcode::VQUANT: v = saturate_i8(rounded_shift_right(load1(i), in.imm)); break;
        case Opcode::VDEQUANT: v = load1(i); break;
        default: throw std::logic_error("unhandled vector op");
      }
      store(i, v);
    }
  }

  co_await clock_.cycles(vu.pipeline_latency_cycles + ceil_div<uint64_t>(in.len, vu.lanes));
  stats_.energy.add(Component::VectorAlu, vu.energy_pj_per_element * in.len);

  if (bytes_out) {
    co_await lm_port_.acquire();
    co_await kernel_.delay(lm_access_ps(bytes_out));
    lm_port_.release();
    charge_lm(bytes_out);
    if (cfg_.sim.functional) std::memcpy(lm_.data() + in.dst_addr, vector_out_.data(), bytes_out);
  }

  vector_unit_.release();
  complete(e);
}

// ---------------------------------------------------------------- transfer

sim::Process Core::exec_transfer(RobEntry& e) {
  const Instruction& in = *e.instr;
  Noc& noc = chip_.noc();
  const uint64_t bytes = uint64_t{in.len} * isa::dtype_size(in.dtype);
  co_await transfer_unit_.acquire();

  if (in.op == Opcode::RECV) {
    // Post the receive; the matching SEND delivers into it. The record lives
    // in this frame until the SEND takes it.
    Channel& ch = noc.channel(in.core, id_);
    sim::Event delivered(kernel_);
    Channel::PendingRecv recv{in.tag, in.dst_addr, bytes, &delivered};
    ch.recvs.push(recv);
    if (Channel::PendingSend* send = ch.sends.pop()) send->recv_arrived->notify();
    co_await delivered;
  } else {
    // One sequence for SEND, GLOAD and GSTORE: source access, SEND
    // rendezvous, link walk, destination access. SEND and GSTORE read local
    // memory, GLOAD the global-memory port; SEND delivers into the peer's
    // local memory, GLOAD into this core's, GSTORE to the global-memory port.
    // The payload is staged in this core's buffer, which the transfer unit
    // keeps to this instruction.
    const bool from_gmem = in.op == Opcode::GLOAD;
    const bool to_gmem = in.op == Opcode::GSTORE;
    const uint64_t gaddr = static_cast<uint32_t>(in.imm);
    Core& dst = in.op == Opcode::SEND ? chip_.core(in.core) : *this;
    Noc::Route route = noc.route_of(from_gmem ? Noc::kGlobalMemNode : id_,
                                    to_gmem ? Noc::kGlobalMemNode : dst.id());
    const uint32_t hops = route.hops();

    // A GLOAD's request travels to the memory port first (header-only).
    if (from_gmem) co_await kernel_.delay(noc.hop_ps() * hops);
    sim::Resource& src_port = from_gmem ? chip_.gmem_port() : lm_port_;
    co_await src_port.acquire();
    co_await kernel_.delay(from_gmem ? chip_.gmem_access_ps(bytes) : lm_access_ps(bytes));
    src_port.release();
    if (from_gmem) {
      chip_.charge_gmem(bytes);
      if (cfg_.sim.functional) {
        payload_.resize(bytes);
        chip_.read_global(gaddr, payload_);
      }
    } else {
      charge_lm(bytes);
      if (cfg_.sim.functional) {
        payload_.assign(lm_.begin() + in.src1_addr, lm_.begin() + in.src1_addr + bytes);
      }
    }

    // Where the payload lands: this instruction's own range, or for a SEND
    // the range of the peer's matching RECV, which it blocks until posted.
    Channel::PendingRecv target{in.tag, in.dst_addr, bytes, nullptr};
    if (in.op == Opcode::SEND) {
      Channel& ch = noc.channel(id_, in.core);
      if (ch.recvs.empty()) {
        sim::Event recv_arrived(kernel_);
        Channel::PendingSend send{in.tag, &recv_arrived};
        ch.sends.push(send);
        co_await recv_arrived;
      }
      target = *ch.recvs.pop();
      if (target.tag != in.tag) {
        PIM_LOG(Error) << strformat("core %u -> %u: tag mismatch send=%u recv=%u", id_,
                                    in.core, in.tag, target.tag);
      }
      if (target.bytes != bytes) {
        // verify pairs byte totals per (src, dst, tag), not per instruction.
        // Deliver only what the RECV reserved: its range is all the
        // receiver's local memory is sized for.
        PIM_LOG(Error) << strformat("core %u -> %u: send of %llu bytes meets recv of %llu",
                                    id_, in.core, static_cast<unsigned long long>(bytes),
                                    static_cast<unsigned long long>(target.bytes));
      }
    }

    // Store-and-forward traversal, one occupied link at a time.
    const sim::Time wire_start = kernel_.now();
    while (Link* l = noc.next_link(route)) {
      co_await l->busy.acquire();
      const sim::Time link_start = kernel_.now();
      co_await kernel_.delay(noc.hop_ps() + noc.serialization_ps(bytes));
      l->bytes_carried += bytes;
      ++l->messages;
      if (l->trace_tid != 0) {
        trace_->complete(l->trace_tid, "xfer", link_start, kernel_.now() - link_start);
      }
      l->busy.release();
    }
    noc.charge(bytes, hops);

    sim::Resource& dst_port = to_gmem ? chip_.gmem_port() : dst.lm_port();
    co_await dst_port.acquire();
    co_await kernel_.delay(to_gmem ? chip_.gmem_access_ps(bytes) : dst.lm_access_ps(bytes));
    dst_port.release();
    if (to_gmem) {
      chip_.charge_gmem(bytes);
      if (cfg_.sim.functional) chip_.write_global(gaddr, payload_);
    } else {
      dst.charge_lm(bytes);
      if (cfg_.sim.functional) {
        std::memcpy(dst.lm().data() + target.dst_addr, payload_.data(),
                    std::min(bytes, target.bytes));
      }
      dst.stats().bytes_received += bytes;
    }
    if (!from_gmem) my_stats_.bytes_sent += bytes;
    if (LayerStats* ls = layer_stats(in)) {
      ls->transfer_wire_ps += kernel_.now() - wire_start;
      ls->bytes_moved += bytes;
    }
    if (target.delivered != nullptr) target.delivered->notify();
  }

  transfer_unit_.release();
  complete(e);
}

// ------------------------------------------------------------------ scalar

sim::Process Core::exec_scalar(RobEntry& e) {
  const Instruction& in = *e.instr;
  co_await scalar_unit_.acquire();
  co_await clock_.cycles(cfg_.core.scalar.latency_cycles);
  stats_.energy.add(Component::ScalarAlu, cfg_.core.scalar.energy_pj_per_op);

  auto r = [this](uint8_t idx) -> int32_t { return idx == 0 ? 0 : regs_[idx]; };
  auto wr = [this](uint8_t idx, int32_t v) {
    if (idx != 0) regs_[idx] = v;
  };
  int32_t target = -1;
  switch (in.op) {
    case Opcode::LDI: wr(in.rd, in.imm); break;
    case Opcode::SADD: wr(in.rd, r(in.rs1) + r(in.rs2)); break;
    case Opcode::SSUB: wr(in.rd, r(in.rs1) - r(in.rs2)); break;
    case Opcode::SMUL: wr(in.rd, r(in.rs1) * r(in.rs2)); break;
    case Opcode::SADDI: wr(in.rd, r(in.rs1) + in.imm); break;
    case Opcode::SAND: wr(in.rd, r(in.rs1) & r(in.rs2)); break;
    case Opcode::SOR: wr(in.rd, r(in.rs1) | r(in.rs2)); break;
    case Opcode::SXOR: wr(in.rd, r(in.rs1) ^ r(in.rs2)); break;
    case Opcode::SSLL: wr(in.rd, r(in.rs1) << (r(in.rs2) & 31)); break;
    case Opcode::SSRA: wr(in.rd, r(in.rs1) >> (r(in.rs2) & 31)); break;
    case Opcode::JMP: target = in.imm; break;
    case Opcode::BEQ: target = r(in.rs1) == r(in.rs2) ? in.imm : -1; break;
    case Opcode::BNE: target = r(in.rs1) != r(in.rs2) ? in.imm : -1; break;
    case Opcode::BLT: target = r(in.rs1) < r(in.rs2) ? in.imm : -1; break;
    case Opcode::BGE: target = r(in.rs1) >= r(in.rs2) ? in.imm : -1; break;
    case Opcode::NOP: case Opcode::HALT: break;
    default: throw std::logic_error("unhandled scalar op");
  }

  scalar_unit_.release();
  if (isa::is_branch(in.op)) {
    branch_target_ = target;
    branch_resolved_.notify();
  }
  complete(e);
}

}  // namespace pim::arch
