// Architecture configuration — the typed form of the paper's
// "architecture configuration file" (Fig. 1): architectural resources,
// hardware performance parameters, interconnection parameters, and
// simulator settings.
//
// All latencies are expressed in cycles of the owning clock domain, all
// dynamic energies in picojoules, static powers in milliwatts. The JSON
// schema mirrors the struct layout 1:1. The named presets are the files
// configs/{tiny,paper_default,mnsim_like}.json, compiled into the library.
#pragma once

#include <cstdint>
#include <string>

#include "json/json.h"

namespace pim::config {

/// Size of the core's scalar register file and width of its register hazard
/// masks: the most registers a configuration may declare.
inline constexpr uint32_t kMaxRegisterCount = 32;

/// Crossbar array parameters (the memristor MVM engine).
struct XbarConfig {
  uint32_t rows = 128;              ///< word lines (input vector length)
  uint32_t cols = 128;              ///< bit lines (output vector length)
  uint32_t cell_bits = 2;           ///< bits stored per memristor cell
  uint32_t weight_bits = 8;         ///< logical weight precision
  uint32_t input_bits = 8;          ///< logical activation precision
  uint32_t dac_bits = 1;            ///< bits applied per DAC phase
  uint32_t read_latency_cycles = 4; ///< analog read settle time per phase
  double read_energy_pj = 3.2;      ///< array read energy per phase
  double dac_energy_pj_per_row = 0.004;  ///< DAC drive energy per row per phase

  /// Bit-serial phases needed for one logical MVM:
  /// ceil(weight_bits/cell_bits) * ceil(input_bits/dac_bits).
  uint32_t phases() const;
};

/// Analog-to-digital converter shared by crossbars in a matrix unit.
struct AdcConfig {
  uint32_t resolution_bits = 8;
  uint32_t samples_per_cycle = 1;   ///< conversion throughput
  double energy_pj_per_sample = 2.0;
  /// Leakage per ADC. Per-crossbar SAR ADCs are aggressively power-gated,
  /// hence the small default (512 of them per core).
  double static_power_mw = 0.05;
};

/// Matrix execution unit: crossbars with a pool of ADC conversion channels.
///
/// `adc_count` is the number of concurrent MVM conversion streams per core.
/// adc_count == xbar_count models one ADC per crossbar (ISAAC/PUMA style;
/// the paper's "512 crossbars ... sharing with one ADC [each]") — crossbar
/// groups then execute fully in parallel and the only matrix-side structural
/// hazard is reusing the *same* group (the paper's Fig. 4 plateau).
/// Smaller values share ADCs between crossbars and serialize conversions
/// (see bench/ablation_adc).
struct MatrixUnitConfig {
  uint32_t xbar_count = 512;        ///< crossbars per core
  uint32_t adc_count = 512;         ///< ADC conversion channels per core
  XbarConfig xbar;
  AdcConfig adc;
};

/// Vector execution unit (element-wise SIMD ALU: add/mul/relu/pool/...).
struct VectorUnitConfig {
  uint32_t lanes = 32;              ///< elements processed per cycle
  uint32_t pipeline_latency_cycles = 2;  ///< startup latency per instruction
  double energy_pj_per_element = 0.08;
  double static_power_mw = 0.5;
};

/// Scalar execution unit (control ALU).
struct ScalarUnitConfig {
  uint32_t latency_cycles = 1;
  double energy_pj_per_op = 0.01;
};

/// Core-local scratchpad storing intermediate activations.
struct LocalMemoryConfig {
  uint64_t size_bytes = 4 * 1024 * 1024;
  uint32_t bytes_per_cycle = 64;    ///< access bandwidth
  uint32_t latency_cycles = 2;      ///< fixed access latency
  double energy_pj_per_byte = 0.15;
  double static_power_mw = 1.0;
};

/// Per-core front end and out-of-order machinery.
struct CoreConfig {
  double freq_mhz = 1000.0;
  uint32_t rob_size = 16;           ///< re-order buffer capacity
  uint32_t fetch_decode_cycles = 1; ///< front-end latency per instruction
  uint32_t dispatch_width = 1;      ///< instructions dispatched per cycle
  uint32_t register_count = kMaxRegisterCount;  ///< scalar registers, in [4, kMaxRegisterCount]
  MatrixUnitConfig matrix;
  VectorUnitConfig vector;
  ScalarUnitConfig scalar;
  LocalMemoryConfig local_memory;
  double static_power_mw = 4.0;     ///< remaining core logic leakage
};

/// Mesh NoC interconnection parameters.
struct NocConfig {
  double freq_mhz = 1000.0;
  uint32_t link_bytes_per_cycle = 32;  ///< flit/link width
  uint32_t hop_latency_cycles = 2;     ///< router + link traversal per hop
  double energy_pj_per_byte_hop = 0.8;
  double router_static_power_mw = 0.3; ///< per router
};

/// Off-core global memory (DRAM-like), attached to the mesh edge.
struct GlobalMemoryConfig {
  uint64_t size_bytes = 1ull << 30;
  uint32_t bytes_per_cycle = 64;
  uint32_t latency_cycles = 100;
  double energy_pj_per_byte = 6.0;
  double static_power_mw = 50.0;
};

/// Simulator settings (paper Fig. 1 "Simulator Settings"). Tracing is not a
/// setting: a run is traced by handing it a telemetry::TraceSink.
struct SimSettings {
  /// Simulated-time budget in picoseconds; 0 = unlimited. Paper-scale
  /// points often finish in tens of microseconds, so the budget is
  /// ps-granular.
  uint64_t max_time_ps = 0;
  /// Wall-clock budget in milliseconds for one simulation; 0 = unlimited.
  /// Runtime-only and deliberately *not* serialized by to_json/from_json: a
  /// machine-local watchdog setting must never enter the DSE cache key (it
  /// would fragment shared caches across hosts), and a wall-timed-out run is
  /// never a cacheable result anyway.
  uint64_t max_wall_ms = 0;
  bool functional = true;  ///< move/compute real data, not just timing
};

/// Complete accelerator configuration.
struct ArchConfig {
  std::string name = "default";
  uint32_t core_count = 64;
  uint32_t mesh_width = 8;          ///< cores arranged mesh_width x mesh_height
  uint32_t mesh_height = 8;
  CoreConfig core;
  NocConfig noc;
  GlobalMemoryConfig global_memory;
  SimSettings sim;

  /// Crossbars available on the whole chip.
  uint64_t total_xbars() const { return uint64_t{core_count} * core.matrix.xbar_count; }

  /// Throws std::invalid_argument with a precise message when inconsistent
  /// (e.g. mesh_width*mesh_height != core_count, zero sizes, ...).
  void validate() const;

  /// Arrange core_count cores as the squarest mesh: mesh_height is the
  /// largest divisor of core_count not above its square root.
  void set_squarest_mesh();

  json::Value to_json() const;
  /// Missing keys keep their defaults; omitted mesh dimensions become the
  /// squarest mesh. Throws std::invalid_argument for a key to_json() does
  /// not write (naming its dotted path), and for a millisecond budget or a
  /// non-empty trace path under "sim", which older configs may carry but
  /// nothing reads any more.
  static ArchConfig from_json(const json::Value& v);
  static ArchConfig load(const std::string& path);
  void save(const std::string& path) const;

  /// Preset lookup by name: "tiny", "paper" and "mnsim" are
  /// configs/{tiny,paper_default,mnsim_like}.json, embedded at build time and
  /// parsed once per process. Throws std::invalid_argument with the
  /// expected-names list for any other name.
  static ArchConfig preset(const std::string& name);
};

/// Canonical JSON of the ArchConfig fields compiler::compile and
/// isa::Program::verify actually read: core count, crossbar geometry and
/// count, local-memory size, register-file size, global-memory size.
/// Everything else — frequencies, energies, ROB size, NoC parameters,
/// ADC/vector-unit settings, SimSettings — is simulation-side only, so two
/// configurations differing solely in those share one compile identity.
std::string compile_relevant_arch(const ArchConfig& cfg);

/// fnv1a64 of compile_relevant_arch(cfg).
uint64_t arch_key(const ArchConfig& cfg);

}  // namespace pim::config
