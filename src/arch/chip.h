// Chip model (paper Fig. 2a): a mesh of cores plus a global memory reachable
// through the NoC. Owns the simulation kernel, the cores, the interconnect
// and the statistics of one run.
//
// A chip is sized to its program. Only cores with code get a Core model;
// a core without code gets no resources, no local memory and no trace rows,
// while RunStats still lists every configured core. In functional runs each
// modeled core's local memory is its program's static high-water mark
// (isa::CoreProgram::lm_high_water), not the configured size.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/core.h"
#include "arch/noc.h"
#include "arch/stats.h"
#include "config/arch_config.h"
#include "isa/program.h"
#include "sim/kernel.h"
#include "telemetry/telemetry.h"

namespace pim::arch {

class Chip {
 public:
  /// The program must outlive the chip. Throws std::invalid_argument when
  /// the program fails structural verification against `cfg`. The chip runs
  /// isa::Program::verify itself unless `proof` covers this program under
  /// `cfg` (VerifyProof::covers: same program object, same compile-relevant
  /// key), i.e. unless the compiler already verified exactly this.
  ///
  /// `trace`, when non-null, receives the structural timeline of the run
  /// (pid = this chip; tids = core units, NoC links, layer phases) and must
  /// outlive the chip. It is the only way to trace a chip; the caller
  /// writes the sink out.
  Chip(const config::ArchConfig& cfg, const isa::Program& program,
       telemetry::TraceSink* trace = nullptr, const isa::VerifyProof* proof = nullptr);
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  /// Simulate to completion (all cores halted) or until the configured
  /// max_time budget. Returns the accumulated statistics (also kept in
  /// stats()). Can only be called once per Chip instance.
  RunStats run();

  /// True when every core with a program retired its HALT. If run() returns
  /// with !finished(), the program deadlocked (logged as an error) or
  /// stopped at the time budget (logged at debug level).
  bool finished() const;

  /// True when run() was abandoned by the wall-clock watchdog
  /// (SimSettings.max_wall_ms) rather than finishing or exhausting the
  /// simulated-time budget.
  bool wall_expired() const;

  // -- functional global memory ------------------------------------------------
  void write_global(uint64_t addr, std::span<const uint8_t> bytes);
  std::vector<uint8_t> read_global(uint64_t addr, size_t size) const;
  /// Fill `out` from `addr`; bytes never written read as zero.
  void read_global(uint64_t addr, std::span<uint8_t> out) const;

  /// The model of core `id`. Throws std::out_of_range for a core without
  /// code, which has none.
  Core& core(uint16_t id);
  Noc& noc() { return noc_; }
  sim::Kernel& kernel() { return kernel_; }
  const config::ArchConfig& config() const { return cfg_; }
  RunStats& stats() { return stats_; }

  /// Global-memory port occupancy (latency + serialization) for `bytes`.
  sim::Time gmem_access_ps(uint64_t bytes) const;
  sim::Resource& gmem_port() { return gmem_port_; }
  void charge_gmem(uint64_t bytes);
  std::vector<uint8_t>& gmem_backing() { return gmem_; }

  /// Static power of the whole chip in mW (leakage integrated over the run).
  double static_power_mw() const;

  /// Trace sink for this run (nullptr when tracing is off). Cores emit one
  /// complete event per retired instruction on their unit tids.
  telemetry::TraceSink* trace() { return trace_; }
  /// Trace process id of this chip (0 when tracing is off).
  uint32_t trace_pid() const { return trace_pid_; }

 private:
  telemetry::TraceSink* trace_ = nullptr;
  uint32_t trace_pid_ = 0;
  config::ArchConfig cfg_;
  const isa::Program& program_;
  sim::Kernel kernel_;
  RunStats stats_;
  Noc noc_;
  sim::Clock core_clock_;
  sim::Resource gmem_port_;
  std::vector<std::unique_ptr<Core>> cores_;  ///< null for cores without code
  std::vector<uint8_t> gmem_;  ///< grown on demand, capped far below config size
  bool ran_ = false;
};

}  // namespace pim::arch
