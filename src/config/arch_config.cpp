#include "config/arch_config.h"

#include <stdexcept>

#include "common/math_util.h"
#include "common/strings.h"

namespace pim::config {

uint32_t XbarConfig::phases() const {
  return ceil_div(weight_bits, cell_bits) * ceil_div(input_bits, dac_bits);
}

// ------------------------------------------------------------------ validate

namespace {
void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument("ArchConfig: " + what);
}
}  // namespace

void ArchConfig::validate() const {
  require(core_count > 0, "core_count must be > 0");
  require(mesh_width > 0 && mesh_height > 0, "mesh dimensions must be > 0");
  // 64-bit product: an inconsistent mesh must be *reported*, not wrapped
  // around into a uint32 that happens to equal core_count.
  const uint64_t mesh_cores = uint64_t{mesh_width} * uint64_t{mesh_height};
  require(mesh_cores == core_count,
          "mesh_width*mesh_height (" + std::to_string(mesh_cores) +
              ") must equal core_count (" + std::to_string(core_count) + ")");
  require(core.freq_mhz > 0, "core.freq_mhz must be > 0");
  // The core allocates its ROB up front, one slot per entry.
  require(core.rob_size > 0 && core.rob_size <= 4096, "core.rob_size must be in [1, 4096]");
  require(core.dispatch_width > 0, "core.dispatch_width must be > 0");
  require(core.register_count >= 4, "core.register_count must be >= 4");
  const auto& mx = core.matrix;
  require(mx.xbar_count > 0, "matrix.xbar_count must be > 0");
  require(mx.adc_count > 0, "matrix.adc_count must be > 0");
  require(mx.adc_count <= mx.xbar_count, "matrix.adc_count must be <= xbar_count");
  require(mx.xbar.rows > 0 && mx.xbar.cols > 0, "xbar dimensions must be > 0");
  require(mx.xbar.cell_bits > 0 && mx.xbar.cell_bits <= mx.xbar.weight_bits,
          "xbar.cell_bits must be in [1, weight_bits]");
  require(mx.xbar.dac_bits > 0 && mx.xbar.dac_bits <= mx.xbar.input_bits,
          "xbar.dac_bits must be in [1, input_bits]");
  require(mx.adc.samples_per_cycle > 0, "adc.samples_per_cycle must be > 0");
  require(core.vector.lanes > 0, "vector.lanes must be > 0");
  require(core.local_memory.size_bytes > 0, "local_memory.size_bytes must be > 0");
  require(core.local_memory.bytes_per_cycle > 0, "local_memory.bytes_per_cycle must be > 0");
  require(noc.freq_mhz > 0, "noc.freq_mhz must be > 0");
  require(noc.link_bytes_per_cycle > 0, "noc.link_bytes_per_cycle must be > 0");
  require(global_memory.bytes_per_cycle > 0, "global_memory.bytes_per_cycle must be > 0");
}

// ---------------------------------------------------------------- JSON (out)

namespace {
json::Value xbar_to_json(const XbarConfig& x) {
  json::Value v;
  v["rows"] = json::Value(x.rows);
  v["cols"] = json::Value(x.cols);
  v["cell_bits"] = json::Value(x.cell_bits);
  v["weight_bits"] = json::Value(x.weight_bits);
  v["input_bits"] = json::Value(x.input_bits);
  v["dac_bits"] = json::Value(x.dac_bits);
  v["read_latency_cycles"] = json::Value(x.read_latency_cycles);
  v["read_energy_pj"] = json::Value(x.read_energy_pj);
  v["dac_energy_pj_per_row"] = json::Value(x.dac_energy_pj_per_row);
  return v;
}

json::Value adc_to_json(const AdcConfig& a) {
  json::Value v;
  v["resolution_bits"] = json::Value(a.resolution_bits);
  v["samples_per_cycle"] = json::Value(a.samples_per_cycle);
  v["energy_pj_per_sample"] = json::Value(a.energy_pj_per_sample);
  v["static_power_mw"] = json::Value(a.static_power_mw);
  return v;
}
}  // namespace

json::Value ArchConfig::to_json() const {
  json::Value v;
  v["name"] = json::Value(name);
  v["core_count"] = json::Value(core_count);
  v["mesh_width"] = json::Value(mesh_width);
  v["mesh_height"] = json::Value(mesh_height);

  json::Value c;
  c["freq_mhz"] = json::Value(core.freq_mhz);
  c["rob_size"] = json::Value(core.rob_size);
  c["fetch_decode_cycles"] = json::Value(core.fetch_decode_cycles);
  c["dispatch_width"] = json::Value(core.dispatch_width);
  c["register_count"] = json::Value(core.register_count);
  c["static_power_mw"] = json::Value(core.static_power_mw);

  json::Value mx;
  mx["xbar_count"] = json::Value(core.matrix.xbar_count);
  mx["adc_count"] = json::Value(core.matrix.adc_count);
  mx["xbar"] = xbar_to_json(core.matrix.xbar);
  mx["adc"] = adc_to_json(core.matrix.adc);
  c["matrix"] = std::move(mx);

  json::Value vec;
  vec["lanes"] = json::Value(core.vector.lanes);
  vec["pipeline_latency_cycles"] = json::Value(core.vector.pipeline_latency_cycles);
  vec["energy_pj_per_element"] = json::Value(core.vector.energy_pj_per_element);
  vec["static_power_mw"] = json::Value(core.vector.static_power_mw);
  c["vector"] = std::move(vec);

  json::Value sc;
  sc["latency_cycles"] = json::Value(core.scalar.latency_cycles);
  sc["energy_pj_per_op"] = json::Value(core.scalar.energy_pj_per_op);
  c["scalar"] = std::move(sc);

  json::Value lm;
  lm["size_bytes"] = json::Value(core.local_memory.size_bytes);
  lm["bytes_per_cycle"] = json::Value(core.local_memory.bytes_per_cycle);
  lm["latency_cycles"] = json::Value(core.local_memory.latency_cycles);
  lm["energy_pj_per_byte"] = json::Value(core.local_memory.energy_pj_per_byte);
  lm["static_power_mw"] = json::Value(core.local_memory.static_power_mw);
  c["local_memory"] = std::move(lm);

  v["core"] = std::move(c);

  json::Value n;
  n["freq_mhz"] = json::Value(noc.freq_mhz);
  n["link_bytes_per_cycle"] = json::Value(noc.link_bytes_per_cycle);
  n["hop_latency_cycles"] = json::Value(noc.hop_latency_cycles);
  n["energy_pj_per_byte_hop"] = json::Value(noc.energy_pj_per_byte_hop);
  n["router_static_power_mw"] = json::Value(noc.router_static_power_mw);
  v["noc"] = std::move(n);

  json::Value g;
  g["size_bytes"] = json::Value(global_memory.size_bytes);
  g["bytes_per_cycle"] = json::Value(global_memory.bytes_per_cycle);
  g["latency_cycles"] = json::Value(global_memory.latency_cycles);
  g["energy_pj_per_byte"] = json::Value(global_memory.energy_pj_per_byte);
  g["static_power_mw"] = json::Value(global_memory.static_power_mw);
  v["global_memory"] = std::move(g);

  json::Value s;
  s["max_time_ps"] = json::Value(sim.max_time_ps);
  s["functional"] = json::Value(sim.functional);
  v["sim"] = std::move(s);

  return v;
}

// ----------------------------------------------------------------- JSON (in)

namespace {
XbarConfig xbar_from_json(const json::Value& v, XbarConfig base) {
  base.rows = static_cast<uint32_t>(v.get_or("rows", base.rows));
  base.cols = static_cast<uint32_t>(v.get_or("cols", base.cols));
  base.cell_bits = static_cast<uint32_t>(v.get_or("cell_bits", base.cell_bits));
  base.weight_bits = static_cast<uint32_t>(v.get_or("weight_bits", base.weight_bits));
  base.input_bits = static_cast<uint32_t>(v.get_or("input_bits", base.input_bits));
  base.dac_bits = static_cast<uint32_t>(v.get_or("dac_bits", base.dac_bits));
  base.read_latency_cycles = static_cast<uint32_t>(v.get_or("read_latency_cycles", base.read_latency_cycles));
  base.read_energy_pj = v.get_or("read_energy_pj", base.read_energy_pj);
  base.dac_energy_pj_per_row = v.get_or("dac_energy_pj_per_row", base.dac_energy_pj_per_row);
  return base;
}

AdcConfig adc_from_json(const json::Value& v, AdcConfig base) {
  base.resolution_bits = static_cast<uint32_t>(v.get_or("resolution_bits", base.resolution_bits));
  base.samples_per_cycle = static_cast<uint32_t>(v.get_or("samples_per_cycle", base.samples_per_cycle));
  base.energy_pj_per_sample = v.get_or("energy_pj_per_sample", base.energy_pj_per_sample);
  base.static_power_mw = v.get_or("static_power_mw", base.static_power_mw);
  return base;
}
}  // namespace

ArchConfig ArchConfig::from_json(const json::Value& v) {
  ArchConfig cfg;
  cfg.name = v.get_or("name", cfg.name);
  cfg.core_count = static_cast<uint32_t>(v.get_or("core_count", cfg.core_count));
  // If mesh dimensions are omitted, derive the squarest mesh that fits.
  if (v.contains("mesh_width") || v.contains("mesh_height")) {
    cfg.mesh_width = static_cast<uint32_t>(v.get_or("mesh_width", cfg.mesh_width));
    cfg.mesh_height = static_cast<uint32_t>(v.get_or("mesh_height", cfg.mesh_height));
  } else {
    uint32_t w = 1;
    for (uint32_t i = 1; i * i <= cfg.core_count; ++i) {
      if (cfg.core_count % i == 0) w = i;
    }
    cfg.mesh_width = cfg.core_count / w;
    cfg.mesh_height = w;
  }

  if (v.contains("core")) {
    const json::Value& c = v.at("core");
    cfg.core.freq_mhz = c.get_or("freq_mhz", cfg.core.freq_mhz);
    cfg.core.rob_size = static_cast<uint32_t>(c.get_or("rob_size", cfg.core.rob_size));
    cfg.core.fetch_decode_cycles = static_cast<uint32_t>(c.get_or("fetch_decode_cycles", cfg.core.fetch_decode_cycles));
    cfg.core.dispatch_width = static_cast<uint32_t>(c.get_or("dispatch_width", cfg.core.dispatch_width));
    cfg.core.register_count = static_cast<uint32_t>(c.get_or("register_count", cfg.core.register_count));
    cfg.core.static_power_mw = c.get_or("static_power_mw", cfg.core.static_power_mw);
    if (c.contains("matrix")) {
      const json::Value& mx = c.at("matrix");
      cfg.core.matrix.xbar_count = static_cast<uint32_t>(mx.get_or("xbar_count", cfg.core.matrix.xbar_count));
      cfg.core.matrix.adc_count = static_cast<uint32_t>(mx.get_or("adc_count", cfg.core.matrix.adc_count));
      if (mx.contains("xbar")) cfg.core.matrix.xbar = xbar_from_json(mx.at("xbar"), cfg.core.matrix.xbar);
      if (mx.contains("adc")) cfg.core.matrix.adc = adc_from_json(mx.at("adc"), cfg.core.matrix.adc);
    }
    if (c.contains("vector")) {
      const json::Value& vec = c.at("vector");
      cfg.core.vector.lanes = static_cast<uint32_t>(vec.get_or("lanes", cfg.core.vector.lanes));
      cfg.core.vector.pipeline_latency_cycles =
          static_cast<uint32_t>(vec.get_or("pipeline_latency_cycles", cfg.core.vector.pipeline_latency_cycles));
      cfg.core.vector.energy_pj_per_element = vec.get_or("energy_pj_per_element", cfg.core.vector.energy_pj_per_element);
      cfg.core.vector.static_power_mw = vec.get_or("static_power_mw", cfg.core.vector.static_power_mw);
    }
    if (c.contains("scalar")) {
      const json::Value& sc = c.at("scalar");
      cfg.core.scalar.latency_cycles = static_cast<uint32_t>(sc.get_or("latency_cycles", cfg.core.scalar.latency_cycles));
      cfg.core.scalar.energy_pj_per_op = sc.get_or("energy_pj_per_op", cfg.core.scalar.energy_pj_per_op);
    }
    if (c.contains("local_memory")) {
      const json::Value& lm = c.at("local_memory");
      cfg.core.local_memory.size_bytes = static_cast<uint64_t>(lm.get_or("size_bytes", static_cast<int64_t>(cfg.core.local_memory.size_bytes)));
      cfg.core.local_memory.bytes_per_cycle = static_cast<uint32_t>(lm.get_or("bytes_per_cycle", cfg.core.local_memory.bytes_per_cycle));
      cfg.core.local_memory.latency_cycles = static_cast<uint32_t>(lm.get_or("latency_cycles", cfg.core.local_memory.latency_cycles));
      cfg.core.local_memory.energy_pj_per_byte = lm.get_or("energy_pj_per_byte", cfg.core.local_memory.energy_pj_per_byte);
      cfg.core.local_memory.static_power_mw = lm.get_or("static_power_mw", cfg.core.local_memory.static_power_mw);
    }
  }

  if (v.contains("noc")) {
    const json::Value& n = v.at("noc");
    cfg.noc.freq_mhz = n.get_or("freq_mhz", cfg.noc.freq_mhz);
    cfg.noc.link_bytes_per_cycle = static_cast<uint32_t>(n.get_or("link_bytes_per_cycle", cfg.noc.link_bytes_per_cycle));
    cfg.noc.hop_latency_cycles = static_cast<uint32_t>(n.get_or("hop_latency_cycles", cfg.noc.hop_latency_cycles));
    cfg.noc.energy_pj_per_byte_hop = n.get_or("energy_pj_per_byte_hop", cfg.noc.energy_pj_per_byte_hop);
    cfg.noc.router_static_power_mw = n.get_or("router_static_power_mw", cfg.noc.router_static_power_mw);
  }

  if (v.contains("global_memory")) {
    const json::Value& g = v.at("global_memory");
    cfg.global_memory.size_bytes = static_cast<uint64_t>(g.get_or("size_bytes", static_cast<int64_t>(cfg.global_memory.size_bytes)));
    cfg.global_memory.bytes_per_cycle = static_cast<uint32_t>(g.get_or("bytes_per_cycle", cfg.global_memory.bytes_per_cycle));
    cfg.global_memory.latency_cycles = static_cast<uint32_t>(g.get_or("latency_cycles", cfg.global_memory.latency_cycles));
    cfg.global_memory.energy_pj_per_byte = g.get_or("energy_pj_per_byte", cfg.global_memory.energy_pj_per_byte);
    cfg.global_memory.static_power_mw = g.get_or("static_power_mw", cfg.global_memory.static_power_mw);
  }

  if (v.contains("sim")) {
    const json::Value& s = v.at("sim");
    // Keys that older configs carry. Dropping a budget would make a bounded
    // run unbounded, and dropping a trace path would skip the trace without
    // a word, so both are refused; the unit-stats switch and an empty trace
    // path, which every older save() wrote, are ignored.
    if (s.contains("max_time_ms")) {
      throw std::invalid_argument(
          "sim.max_time_ms is no longer read: give the budget as sim.max_time_ps "
          "(1 ms = 1000000000 ps)");
    }
    if (!s.get_or("trace_file", "").empty()) {
      throw std::invalid_argument(
          "sim.trace_file is no longer read: trace a run with --trace-out FILE");
    }
    cfg.sim.max_time_ps = s.get_or("max_time_ps", cfg.sim.max_time_ps);
    cfg.sim.functional = s.get_or("functional", cfg.sim.functional);
  }

  cfg.validate();
  return cfg;
}

ArchConfig ArchConfig::load(const std::string& path) {
  return from_json(json::parse_file(path));
}

void ArchConfig::save(const std::string& path) const {
  json::write_file(path, to_json());
}

// ------------------------------------------------------------------ presets

ArchConfig ArchConfig::paper_default() {
  ArchConfig cfg;
  cfg.name = "paper-64core";
  cfg.core_count = 64;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.core.matrix.xbar_count = 512;
  cfg.core.matrix.adc_count = 512;  // one ADC per crossbar
  cfg.core.matrix.xbar.rows = 128;
  cfg.core.matrix.xbar.cols = 128;
  cfg.core.rob_size = 16;
  cfg.validate();
  return cfg;
}

ArchConfig ArchConfig::mnsim_like() {
  // Crossbar configuration "extracted from" MNSIM2.0's default behavior-level
  // model: 256x256 xbars, 1-bit DAC, 8 ADCs, behavior-level latencies.
  ArchConfig cfg;
  cfg.name = "mnsim-like";
  cfg.core_count = 64;
  cfg.mesh_width = 8;
  cfg.mesh_height = 8;
  cfg.core.matrix.xbar_count = 96;
  cfg.core.matrix.adc_count = 8;
  cfg.core.matrix.xbar.rows = 256;
  cfg.core.matrix.xbar.cols = 256;
  cfg.core.matrix.xbar.cell_bits = 2;
  cfg.core.matrix.xbar.read_latency_cycles = 10;
  cfg.core.rob_size = 16;
  cfg.noc.link_bytes_per_cycle = 64;
  cfg.noc.hop_latency_cycles = 1;
  cfg.validate();
  return cfg;
}

ArchConfig ArchConfig::tiny() {
  ArchConfig cfg;
  cfg.name = "tiny-4core";
  cfg.core_count = 4;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.core.matrix.xbar_count = 16;
  cfg.core.matrix.adc_count = 4;
  cfg.core.matrix.xbar.rows = 32;
  cfg.core.matrix.xbar.cols = 32;
  cfg.core.local_memory.size_bytes = 64 * 1024;
  cfg.core.rob_size = 8;
  cfg.validate();
  return cfg;
}

ArchConfig ArchConfig::preset(const std::string& name) {
  if (name == "tiny") return tiny();
  if (name == "paper") return paper_default();
  if (name == "mnsim") return mnsim_like();
  throw std::invalid_argument("unknown --arch \"" + name + "\" (expected tiny|paper|mnsim)");
}

std::string compile_relevant_arch(const ArchConfig& cfg) {
  // Exactly the fields compiler::compile and isa::Program::verify read —
  // keep in lockstep with src/compiler/{mapping,codegen}.cpp and
  // isa/program.cpp (tests/artifact_test.cpp pins the set from both
  // directions).
  json::Value v;
  v["core_count"] = json::Value(cfg.core_count);
  v["xbar_count"] = json::Value(cfg.core.matrix.xbar_count);
  v["xbar_rows"] = json::Value(cfg.core.matrix.xbar.rows);
  v["xbar_cols"] = json::Value(cfg.core.matrix.xbar.cols);
  v["local_memory_bytes"] = json::Value(cfg.core.local_memory.size_bytes);
  v["register_count"] = json::Value(cfg.core.register_count);
  v["global_memory_bytes"] = json::Value(cfg.global_memory.size_bytes);
  return v.dump();
}

uint64_t arch_key(const ArchConfig& cfg) { return fnv1a64(compile_relevant_arch(cfg)); }

}  // namespace pim::config
