#include "arch/chip.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace pim::arch {

namespace {
// Functional global memory is grown on demand; a hard cap protects against
// wild addresses in hand-written programs.
constexpr uint64_t kGmemFunctionalCap = 256ull * 1024 * 1024;
}  // namespace

Chip::Chip(const config::ArchConfig& cfg, const isa::Program& program,
           telemetry::TraceSink* trace, const isa::VerifyProof* proof)
    : trace_(trace),
      cfg_(cfg),
      program_(program),
      noc_(kernel_, cfg_, stats_.energy),
      core_clock_(kernel_, cfg_.core.freq_mhz),
      gmem_port_(kernel_, 1) {
  cfg_.validate();
  std::vector<std::string> errors;
  if (proof == nullptr || !proof->covers(program, cfg_)) errors = program.verify(cfg_);
  if (!errors.empty()) {
    std::string msg = "program verification failed:\n";
    for (size_t i = 0; i < errors.size() && i < 10; ++i) msg += "  " + errors[i] + "\n";
    if (errors.size() > 10) msg += strformat("  ... and %zu more\n", errors.size() - 10);
    throw std::invalid_argument(msg);
  }
  if (trace_ != nullptr) {
    trace_pid_ = trace_->pid(program.network_name.empty() ? "chip" : program.network_name);
    kernel_.set_trace(trace_);
    noc_.attach_trace(*trace_, trace_pid_);
  }
  stats_.cores.resize(cfg_.core_count);
  cores_.resize(cfg_.core_count);
  for (size_t id = 0; id < program.cores.size(); ++id) {
    const isa::CoreProgram& cp = program.cores[id];
    if (cp.code.empty()) continue;
    cores_[id] = std::make_unique<Core>(kernel_, cfg_, static_cast<uint16_t>(id), *this, cp,
                                        stats_);
  }
}

Core& Chip::core(uint16_t id) {
  Core* c = cores_.at(id).get();
  if (c == nullptr) throw std::out_of_range(strformat("core %u has no code and no model", id));
  return *c;
}

double Chip::static_power_mw() const {
  const auto& c = cfg_.core;
  double per_core = c.static_power_mw + c.vector.static_power_mw +
                    c.local_memory.static_power_mw +
                    c.matrix.adc.static_power_mw * c.matrix.adc_count;
  return per_core * cfg_.core_count + cfg_.noc.router_static_power_mw * cfg_.core_count +
         cfg_.global_memory.static_power_mw;
}

sim::Time Chip::gmem_access_ps(uint64_t bytes) const {
  const auto& g = cfg_.global_memory;
  return core_clock_.to_ps(g.latency_cycles + ceil_div<uint64_t>(bytes, g.bytes_per_cycle));
}

void Chip::charge_gmem(uint64_t bytes) {
  stats_.energy.add(Component::GlobalMemory,
                    cfg_.global_memory.energy_pj_per_byte * static_cast<double>(bytes));
}

void Chip::write_global(uint64_t addr, std::span<const uint8_t> bytes) {
  if (addr + bytes.size() > kGmemFunctionalCap) {
    throw std::out_of_range("write_global beyond functional global-memory cap");
  }
  if (gmem_.size() < addr + bytes.size()) gmem_.resize(addr + bytes.size(), 0);
  std::copy(bytes.begin(), bytes.end(), gmem_.begin() + static_cast<ptrdiff_t>(addr));
}

std::vector<uint8_t> Chip::read_global(uint64_t addr, size_t size) const {
  std::vector<uint8_t> out(size);
  read_global(addr, out);
  return out;
}

void Chip::read_global(uint64_t addr, std::span<uint8_t> out) const {
  size_t n = 0;
  if (addr < gmem_.size()) {
    n = std::min<uint64_t>(out.size(), gmem_.size() - addr);
    std::copy_n(gmem_.begin() + static_cast<ptrdiff_t>(addr), n, out.begin());
  }
  std::fill(out.begin() + static_cast<ptrdiff_t>(n), out.end(), uint8_t{0});
}

RunStats Chip::run() {
  if (ran_) throw std::logic_error("Chip::run() may only be called once");
  ran_ = true;
  for (auto& core : cores_) {
    if (core) core->start();
  }

  sim::Time limit = sim::kTimeMax;
  if (cfg_.sim.max_time_ps > 0) limit = cfg_.sim.max_time_ps;
  if (cfg_.sim.max_wall_ms > 0) {
    kernel_.arm_wall_watchdog(std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(cfg_.sim.max_wall_ms));
  }
  kernel_.run(limit);

  stats_.kernel_events = kernel_.events_executed();
  sim::Time end = 0;
  for (const CoreStats& cs : stats_.cores) end = std::max(end, cs.halt_time_ps);
  stats_.total_ps = end;
  stats_.energy.add_static(static_power_mw(), end);

  if (!finished()) {
    // Events still queued mean the run was cut short (time budget or wall
    // watchdog), which budgeted DSE points do on purpose. An empty queue
    // with cores still waiting is a deadlock.
    if (kernel_.empty()) {
      PIM_LOG(Error) << "simulation deadlocked: cores wait on each other with nothing "
                        "left to run";
    } else {
      PIM_LOG(Debug) << "simulation stopped at its time limit before every core halted";
    }
  }
  return stats_;
}

bool Chip::wall_expired() const { return kernel_.wall_expired(); }

bool Chip::finished() const {
  return std::all_of(cores_.begin(), cores_.end(), [](const std::unique_ptr<Core>& c) {
    return c == nullptr || !c->started() || c->halted();
  });
}

}  // namespace pim::arch
