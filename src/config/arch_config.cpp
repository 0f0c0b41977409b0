#include "config/arch_config.h"

#include <stdexcept>
#include <string_view>

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
  require(core.register_count >= 4 && core.register_count <= kMaxRegisterCount,
          "core.register_count must be in [4, " + std::to_string(kMaxRegisterCount) + "]");
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

void ArchConfig::set_squarest_mesh() {
  uint32_t h = 1;
  for (uint32_t i = 1; uint64_t{i} * i <= core_count; ++i) {
    if (core_count % i == 0) h = i;
  }
  mesh_width = core_count / h;
  mesh_height = h;
}

// ---------------------------------------------------------------------- JSON

namespace {

/// Visits every serialized field as out(key, field), one JSON object at a
/// time: the one list of keys. to_json writes them, from_json reads them and
/// refuses any other.
template <class Node, class Config>
void visit_fields(const Node& out, Config& c) {
  out("name", c.name);
  out("core_count", c.core_count);
  out("mesh_width", c.mesh_width);
  out("mesh_height", c.mesh_height);
  const Node core = out.sub("core");
  core("freq_mhz", c.core.freq_mhz);
  core("rob_size", c.core.rob_size);
  core("fetch_decode_cycles", c.core.fetch_decode_cycles);
  core("dispatch_width", c.core.dispatch_width);
  core("register_count", c.core.register_count);
  core("static_power_mw", c.core.static_power_mw);
  const Node matrix = core.sub("matrix");
  matrix("xbar_count", c.core.matrix.xbar_count);
  matrix("adc_count", c.core.matrix.adc_count);
  const Node xbar = matrix.sub("xbar");
  auto& x = c.core.matrix.xbar;
  xbar("rows", x.rows);
  xbar("cols", x.cols);
  xbar("cell_bits", x.cell_bits);
  xbar("weight_bits", x.weight_bits);
  xbar("input_bits", x.input_bits);
  xbar("dac_bits", x.dac_bits);
  xbar("read_latency_cycles", x.read_latency_cycles);
  xbar("read_energy_pj", x.read_energy_pj);
  xbar("dac_energy_pj_per_row", x.dac_energy_pj_per_row);
  const Node adc = matrix.sub("adc");
  auto& a = c.core.matrix.adc;
  adc("resolution_bits", a.resolution_bits);
  adc("samples_per_cycle", a.samples_per_cycle);
  adc("energy_pj_per_sample", a.energy_pj_per_sample);
  adc("static_power_mw", a.static_power_mw);
  const Node vector = core.sub("vector");
  vector("lanes", c.core.vector.lanes);
  vector("pipeline_latency_cycles", c.core.vector.pipeline_latency_cycles);
  vector("energy_pj_per_element", c.core.vector.energy_pj_per_element);
  vector("static_power_mw", c.core.vector.static_power_mw);
  const Node scalar = core.sub("scalar");
  scalar("latency_cycles", c.core.scalar.latency_cycles);
  scalar("energy_pj_per_op", c.core.scalar.energy_pj_per_op);
  const Node local = core.sub("local_memory");
  auto& lm = c.core.local_memory;
  local("size_bytes", lm.size_bytes);
  local("bytes_per_cycle", lm.bytes_per_cycle);
  local("latency_cycles", lm.latency_cycles);
  local("energy_pj_per_byte", lm.energy_pj_per_byte);
  local("static_power_mw", lm.static_power_mw);
  const Node noc = out.sub("noc");
  noc("freq_mhz", c.noc.freq_mhz);
  noc("link_bytes_per_cycle", c.noc.link_bytes_per_cycle);
  noc("hop_latency_cycles", c.noc.hop_latency_cycles);
  noc("energy_pj_per_byte_hop", c.noc.energy_pj_per_byte_hop);
  noc("router_static_power_mw", c.noc.router_static_power_mw);
  const Node global = out.sub("global_memory");
  auto& gm = c.global_memory;
  global("size_bytes", gm.size_bytes);
  global("bytes_per_cycle", gm.bytes_per_cycle);
  global("latency_cycles", gm.latency_cycles);
  global("energy_pj_per_byte", gm.energy_pj_per_byte);
  global("static_power_mw", gm.static_power_mw);
  const Node sim = out.sub("sim");
  sim("max_time_ps", c.sim.max_time_ps);
  sim("functional", c.sim.functional);
}

/// The member `key` of `v`, or nullptr when `v` is no object or lacks it.
const json::Value* member(const json::Value& v, std::string_view key) {
  if (!v.is_object()) return nullptr;
  const auto it = v.as_object().find(std::string(key));
  return it == v.as_object().end() ? nullptr : &it->second;
}

/// visit_fields' node for to_json: stores each field under its key.
struct Writer {
  json::Value& node;
  Writer sub(const char* key) const { return {node[key]}; }
  template <class T>
  void operator()(const char* key, const T& field) const { node[key] = json::Value(field); }
};

void read(const json::Value& v, uint32_t& field) { field = static_cast<uint32_t>(v.as_int()); }
void read(const json::Value& v, uint64_t& field) { field = static_cast<uint64_t>(v.as_int()); }
void read(const json::Value& v, double& field) { field = v.as_double(); }
void read(const json::Value& v, bool& field) { field = v.as_bool(); }
void read(const json::Value& v, std::string& field) { field = v.as_string(); }

/// visit_fields' node for from_json: a missing key or object leaves the
/// field as it is.
struct Reader {
  const json::Value* node;
  Reader sub(const char* key) const { return {node ? member(*node, key) : nullptr}; }
  template <class T>
  void operator()(const char* key, T& field) const {
    if (const json::Value* v = node ? member(*node, key) : nullptr) read(*v, field);
  }
};

/// Every key to_json() writes, plus the two "sim" keys older save() output
/// carried: the unit-stats switch and the trace path (refused by from_json
/// unless empty).
const json::Value& known_keys() {
  static const json::Value known = [] {
    json::Value k = ArchConfig{}.to_json();
    k["sim"]["collect_unit_stats"] = json::Value(false);
    k["sim"]["trace_file"] = json::Value("");
    return k;
  }();
  return known;
}

/// Throws for the first key of `v` that `known` lacks, naming its dotted
/// path: a misspelled key would otherwise leave its field at the default.
void reject_unknown_keys(const json::Value& v, const json::Value& known, const std::string& at) {
  for (const auto& [key, child] : v.as_object()) {
    const json::Value* sub = member(known, key);
    if (sub == nullptr) throw std::invalid_argument("ArchConfig: unknown key \"" + at + key + "\"");
    if (sub->is_object() && child.is_object()) reject_unknown_keys(child, *sub, at + key + ".");
  }
}

}  // namespace

json::Value ArchConfig::to_json() const {
  json::Value v;
  visit_fields(Writer{v}, *this);
  return v;
}

ArchConfig ArchConfig::from_json(const json::Value& v) {
  require(v.is_object(), "a configuration must be a JSON object");
  if (const json::Value* sim = member(v, "sim")) {
    // Keys that older configs carry. Dropping a budget would make a bounded
    // run unbounded, and dropping a trace path would skip the trace without
    // a word, so both are refused; the unit-stats switch and an empty trace
    // path, which every older save() wrote, are ignored.
    if (member(*sim, "max_time_ms") != nullptr) {
      throw std::invalid_argument(
          "sim.max_time_ms is no longer read: give the budget as sim.max_time_ps "
          "(1 ms = 1000000000 ps)");
    }
    if (const json::Value* trace = member(*sim, "trace_file");
        trace != nullptr && !trace->as_string().empty()) {
      throw std::invalid_argument(
          "sim.trace_file is no longer read: trace a run with --trace-out FILE");
    }
  }
  reject_unknown_keys(v, known_keys(), "");

  ArchConfig cfg;
  visit_fields(Reader{&v}, cfg);
  if (!v.contains("mesh_width") && !v.contains("mesh_height")) cfg.set_squarest_mesh();
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

namespace presets {
// The text of configs/{tiny,paper_default,mnsim_like}.json, defined in the
// source CMake generates from presets.cpp.in.
extern const char kTiny[];
extern const char kPaper[];
extern const char kMnsim[];
}  // namespace presets

ArchConfig ArchConfig::preset(const std::string& name) {
  // Each preset is parsed on first use and then copied: the initialization
  // of a function-local static is thread-safe.
  const auto parse = [](const char* text) { return from_json(json::parse(text)); };
  if (name == "tiny") {
    static const ArchConfig tiny = parse(presets::kTiny);
    return tiny;
  }
  if (name == "paper") {
    static const ArchConfig paper = parse(presets::kPaper);
    return paper;
  }
  if (name == "mnsim") {
    static const ArchConfig mnsim = parse(presets::kMnsim);
    return mnsim;
  }
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
