#include "workload/workload.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"
#include "common/transient_error.h"

namespace pim::workload {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("workload: " + what);
}

/// Basename of `path` without its extension ("nets/res_block.json" ->
/// "res_block"); the display label of graph-file workloads.
std::string file_stem(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base.empty() ? "graph" : base;
}

int32_t positive_i32(const char* field, int64_t v) {
  if (v < 1 || v > INT32_MAX) {
    fail(strformat("\"%s\" must be a positive integer, got %lld", field,
                   static_cast<long long>(v)));
  }
  return static_cast<int32_t>(v);
}

/// True when any Conv/FC layer carries parameters.
bool has_params(const nn::Graph& g) {
  return std::any_of(g.layers().begin(), g.layers().end(),
                     [](const nn::Layer& l) { return !l.weights.empty(); });
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Builtin: return "builtin";
    case Kind::GraphFile: return "graph_file";
    case Kind::Mlp: return "mlp";
  }
  return "?";
}

Kind kind_from_name(const std::string& name) {
  if (name == "builtin") return Kind::Builtin;
  if (name == "graph_file") return Kind::GraphFile;
  if (name == "mlp") return Kind::Mlp;
  fail("unknown workload kind \"" + name + "\" (expected builtin|graph_file|mlp)");
}

// ------------------------------------------------------------- WorkloadSpec

WorkloadSpec WorkloadSpec::builtin(std::string model, int32_t input_hw) {
  WorkloadSpec s;
  s.kind = Kind::Builtin;
  s.name = std::move(model);
  s.input_hw = input_hw;
  return s;
}

WorkloadSpec WorkloadSpec::graph_file(std::string path) {
  WorkloadSpec s;
  s.kind = Kind::GraphFile;
  s.path = std::move(path);
  s.name.clear();
  return s;
}

WorkloadSpec WorkloadSpec::mlp(int32_t input_hw, std::vector<int32_t> hidden,
                               int32_t num_classes) {
  WorkloadSpec s;
  s.kind = Kind::Mlp;
  s.name.clear();
  s.input_hw = input_hw;
  s.mlp_hidden = std::move(hidden);
  s.num_classes = num_classes;
  return s;
}

std::string WorkloadSpec::label() const {
  switch (kind) {
    case Kind::Builtin: return name;
    case Kind::Mlp: return "mlp";
    case Kind::GraphFile: return name.empty() ? file_stem(path) : name;
  }
  return "?";
}

WorkloadSpec WorkloadSpec::with_network(const std::string& token,
                                        const std::string& base_dir) const {
  WorkloadSpec next = parse_workload_token(token, input_hw, base_dir);
  next.input_channels = input_channels;
  next.num_classes = num_classes;
  next.weight_seed = weight_seed;
  next.mlp_hidden = mlp_hidden;
  return next;
}

json::Value WorkloadSpec::to_json() const {
  json::Value v;
  v["kind"] = json::Value(kind_name(kind));
  if (kind == Kind::Builtin) v["name"] = json::Value(name);
  if (kind == Kind::GraphFile) v["path"] = json::Value(path);
  if (kind == Kind::Mlp) {
    json::Array hidden;
    for (int32_t h : mlp_hidden) hidden.emplace_back(static_cast<int64_t>(h));
    v["hidden"] = json::Value(std::move(hidden));
  }
  if (kind != Kind::GraphFile) {
    v["input_hw"] = json::Value(input_hw);
    v["input_channels"] = json::Value(input_channels);
    v["num_classes"] = json::Value(num_classes);
  }
  v["weight_seed"] = json::Value(weight_seed);
  return v;
}

WorkloadSpec WorkloadSpec::from_json(const json::Value& v, const std::string& base_dir) {
  return from_json(v, base_dir, WorkloadSpec());
}

WorkloadSpec WorkloadSpec::from_json(const json::Value& v, const std::string& base_dir,
                                     const WorkloadSpec& defaults) {
  if (v.is_string()) return parse_workload_token(v.as_string(), defaults.input_hw, base_dir);
  if (!v.is_object()) {
    fail("a workload is a string token or an object with a \"kind\", got " + v.dump());
  }

  WorkloadSpec s = defaults;
  // "kind" may be inferred: a "path" means graph_file, a "hidden" means mlp.
  if (v.contains("kind")) {
    s.kind = kind_from_name(v.at("kind").as_string());
  } else if (v.contains("path")) {
    s.kind = Kind::GraphFile;
  } else if (v.contains("hidden")) {
    s.kind = Kind::Mlp;
  } else {
    s.kind = Kind::Builtin;
  }

  s.input_hw = positive_i32("input_hw", v.get_or("input_hw", int64_t{defaults.input_hw}));
  s.input_channels =
      positive_i32("input_channels", v.get_or("input_channels", int64_t{defaults.input_channels}));
  s.num_classes =
      positive_i32("num_classes", v.get_or("num_classes", int64_t{defaults.num_classes}));
  s.weight_seed = v.get_or("weight_seed", defaults.weight_seed);

  switch (s.kind) {
    case Kind::Builtin:
      if (!v.contains("name")) fail("a builtin workload needs a \"name\"");
      s.name = v.at("name").as_string();
      s.path.clear();
      if (!Registry::instance().contains(s.name)) {
        fail("unknown builtin workload \"" + s.name + "\" (registered: " +
             join(builtin_names(), ", ") + ")");
      }
      break;
    case Kind::GraphFile:
      if (!v.contains("path")) fail("a graph_file workload needs a \"path\"");
      s.path = resolve_path(v.at("path").as_string(), base_dir);
      s.name = v.get_or("name", std::string());
      break;
    case Kind::Mlp:
      s.name.clear();
      s.path.clear();
      if (v.contains("hidden")) {
        s.mlp_hidden.clear();
        for (const json::Value& h : v.at("hidden").as_array()) {
          s.mlp_hidden.push_back(positive_i32("hidden", h.as_int()));
        }
      }
      break;
  }
  return s;
}

namespace {

/// The one keying scheme shared by fingerprint() and fingerprint_and_build().
/// `loaded` is the parsed graph of a GraphFile spec (ignored otherwise).
uint64_t spec_fingerprint(const WorkloadSpec& spec, const nn::Graph* loaded) {
  json::Value v = spec.to_json();
  if (spec.kind == Kind::GraphFile) {
    // Content-addressed, path-independent: hash the parsed canonical graph,
    // so reformatting or moving the file keeps the fingerprint while any
    // semantic edit (layer, geometry, parameter) changes it.
    v["path"] = json::Value(strformat(
        "graph:%016llx", static_cast<unsigned long long>(graph_fingerprint(*loaded))));
    // A parameter-bearing file ignores weight_seed at build time (the
    // shipped weights win); neutralize it so bit-identical simulations
    // share one identity instead of one per seed.
    if (has_params(*loaded)) v["weight_seed"] = json::Value(uint64_t{0});
  }
  return fnv1a64(v.dump());
}

}  // namespace

uint64_t WorkloadSpec::fingerprint() const {
  if (kind == Kind::GraphFile) {
    const nn::Graph g = load_graph(path);
    return spec_fingerprint(*this, &g);
  }
  return spec_fingerprint(*this, nullptr);
}

WorkloadSpec parse_workload_token(const std::string& token, int32_t input_hw,
                                  const std::string& base_dir) {
  if (token == "mlp") {
    WorkloadSpec s = WorkloadSpec::mlp(input_hw);
    return s;
  }
  if (Registry::instance().contains(token)) return WorkloadSpec::builtin(token, input_hw);
  if (ends_with(token, ".json")) {
    return WorkloadSpec::graph_file(resolve_path(token, base_dir));
  }
  fail("unknown workload \"" + token + "\" — expected a registered network (" +
       join(builtin_names(), ", ") + "), \"mlp\", or a graph description file ending in .json");
}

// ----------------------------------------------------------------- Registry

Registry::Registry() {
  for (const std::string& name : nn::model_names()) {
    builders_.emplace_back(name,
                           [name](const nn::ModelOptions& opt) { return nn::build_model(name, opt); });
  }
  std::sort(builders_.begin(), builders_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

void Registry::add(const std::string& name, Builder builder) {
  if (name.empty() || name == "mlp" || ends_with(name, ".json")) {
    fail("cannot register reserved workload name \"" + name + "\"");
  }
  if (contains(name)) fail("workload \"" + name + "\" is already registered");
  const auto pos = std::lower_bound(
      builders_.begin(), builders_.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  builders_.emplace(pos, name, std::move(builder));
}

bool Registry::contains(const std::string& name) const {
  const auto pos = std::lower_bound(
      builders_.begin(), builders_.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  return pos != builders_.end() && pos->first == name;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& [name, _] : builders_) out.push_back(name);
  return out;
}

nn::Graph Registry::build(const std::string& name, const nn::ModelOptions& opt) const {
  for (const auto& [n, builder] : builders_) {
    if (n == name) return builder(opt);
  }
  fail("unknown builtin workload \"" + name + "\" (registered: " + join(names(), ", ") + ")");
}

std::vector<std::string> builtin_names() { return Registry::instance().names(); }

// -------------------------------------------------------------------- build

BuiltWorkload build(const WorkloadSpec& spec, bool init_params) {
  switch (spec.kind) {
    case Kind::Builtin: {
      nn::ModelOptions mopt;
      mopt.input_hw = spec.input_hw;
      mopt.input_channels = spec.input_channels;
      mopt.num_classes = spec.num_classes;
      mopt.weight_seed = spec.weight_seed;
      mopt.init_params = init_params;
      nn::Graph g = Registry::instance().build(spec.name, mopt);
      return {std::move(g), {spec.input_channels, spec.input_hw, spec.input_hw}};
    }
    case Kind::Mlp: {
      // The FC-only sweep filler: channels*hw*hw features through the hidden
      // stack into the classifier (build_mlp always initializes parameters).
      const int32_t in_features = spec.input_channels * spec.input_hw * spec.input_hw;
      nn::Graph g = nn::build_mlp(in_features, spec.mlp_hidden, spec.num_classes,
                                  spec.weight_seed);
      return {std::move(g), {in_features, 1, 1}};
    }
    case Kind::GraphFile: {
      nn::Graph g = load_graph(spec.path);
      if (init_params && !has_params(g)) g.init_parameters(spec.weight_seed);
      const std::vector<int32_t> ins = g.inputs();
      if (ins.empty()) fail("graph \"" + spec.path + "\" has no input layer");
      const nn::Shape in_shape = g.layer(ins.front()).out_shape;
      return {std::move(g), in_shape};
    }
  }
  fail("corrupt WorkloadSpec kind");
}

FingerprintedWorkload fingerprint_and_build(const WorkloadSpec& spec, bool init_params) {
  if (spec.kind != Kind::GraphFile) {
    // Builtin/Mlp fingerprints are pure functions of the spec — no file, no
    // race — so the plain build path is already atomic.
    return {spec_fingerprint(spec, nullptr), build(spec, init_params)};
  }
  // One read: fingerprint the file content exactly as parsed, then finish
  // the build on that same graph. The returned identity can never describe
  // different bytes than the simulation consumes, even if the file is
  // rewritten concurrently.
  nn::Graph g = load_graph(spec.path);
  FingerprintedWorkload out;
  out.fingerprint = spec_fingerprint(spec, &g);
  if (init_params && !has_params(g)) g.init_parameters(spec.weight_seed);
  const std::vector<int32_t> ins = g.inputs();
  if (ins.empty()) fail("graph \"" + spec.path + "\" has no input layer");
  const nn::Shape in_shape = g.layer(ins.front()).out_shape;
  out.built = {std::move(g), in_shape};
  return out;
}

// ----------------------------------------------------------- graph-file I/O

namespace {

/// Per-layer schema checks that nn::Graph::from_json is lenient about.
void check_layer_json(const json::Value& lj, size_t index) {
  const auto where = [&] {
    const std::string name = lj.is_object() ? lj.get_or("name", std::string()) : std::string();
    return strformat("layer %zu%s", index,
                     name.empty() ? "" : (" ('" + name + "')").c_str());
  };
  if (!lj.is_object()) fail(where() + ": expected an object");
  if (!lj.contains("type") || !lj.at("type").is_string()) {
    fail(where() + ": missing string \"type\"");
  }
  const nn::OpType type = nn::op_from_name(lj.at("type").as_string());  // throws when unknown

  // Ids are optional documentation; when present they must agree with the
  // layer's position — from_json assigns ids positionally, so a disagreeing
  // file would silently rewire the DAG.
  if (lj.contains("id") && lj.at("id").as_int() != static_cast<int64_t>(index)) {
    fail(where() + strformat(": \"id\" %lld disagrees with its position %zu",
                             static_cast<long long>(lj.at("id").as_int()), index));
  }

  const size_t arity = lj.contains("inputs") ? lj.at("inputs").as_array().size() : 0;
  if (type == nn::OpType::Input) {
    if (arity != 0) fail(where() + ": input layers take no \"inputs\"");
    if (!lj.contains("shape") || !lj.at("shape").is_array() || lj.at("shape").size() != 3) {
      fail(where() + ": input layers need \"shape\": [channels, height, width]");
    }
    for (const json::Value& d : lj.at("shape").as_array()) {
      if (!d.is_int() || d.as_int() < 1) {
        fail(where() + ": \"shape\" dimensions must be positive integers");
      }
    }
  } else {
    if (arity == 0) fail(where() + ": non-input layers need \"inputs\"");
    if (type == nn::OpType::Add && arity != 2) {
      fail(where() + strformat(": add takes exactly 2 inputs, got %zu", arity));
    }
    const bool single_input = type != nn::OpType::Add && type != nn::OpType::Concat;
    if (single_input && arity != 1) {
      fail(where() + strformat(": %s takes exactly 1 input, got %zu",
                               nn::op_name(type), arity));
    }
  }
  if (type == nn::OpType::Conv || type == nn::OpType::FullyConnected) {
    if (lj.get_or("out_channels", int64_t{0}) < 1) {
      fail(where() + ": conv/fc layers need a positive \"out_channels\"");
    }
    if (type == nn::OpType::Conv && lj.get_or("kernel", int64_t{0}) < 1) {
      fail(where() + ": conv layers need a positive \"kernel\"");
    }
  }
  if ((type == nn::OpType::MaxPool || type == nn::OpType::AvgPool) &&
      lj.get_or("kernel", int64_t{0}) < 1) {
    fail(where() + ": pooling layers need a positive \"kernel\"");
  }
  if (type == nn::OpType::Conv || type == nn::OpType::MaxPool || type == nn::OpType::AvgPool) {
    // stride = 0 would divide by zero inside shape inference (SIGFPE, not a
    // clean error); negative pads make no geometric sense.
    if (lj.get_or("stride", int64_t{1}) < 1) {
      fail(where() + ": \"stride\" must be >= 1");
    }
    if (lj.get_or("pad", int64_t{0}) < 0) {
      fail(where() + ": \"pad\" must be >= 0");
    }
  }
  if (lj.contains("weights") != lj.contains("bias")) {
    fail(where() + ": \"weights\" and \"bias\" must be given together");
  }
}

/// Post-parse parameter consistency: sizes must match the inferred geometry,
/// and parameters are all-or-none across the matrix layers (a half-
/// parameterized graph cannot run functionally and cannot be re-seeded
/// without clobbering the provided half).
/// nn::Graph::infer_shapes truncates toward zero, so a window larger than
/// the padded input computes a bogus 1x1 output instead of failing — reject
/// it here with the layer named.
void check_windows(const nn::Graph& g) {
  for (const nn::Layer& l : g.layers()) {
    if (l.kernel_h == 0) continue;  // not a windowed op
    if (l.kernel_h > l.in_shape.h + 2 * l.pad_h || l.kernel_w > l.in_shape.w + 2 * l.pad_w) {
      fail(strformat("layer '%s': %dx%d window does not fit the padded %dx%d input",
                     l.name.c_str(), l.kernel_h, l.kernel_w, l.in_shape.h + 2 * l.pad_h,
                     l.in_shape.w + 2 * l.pad_w));
    }
  }
}

void check_params(const nn::Graph& g) {
  size_t with = 0, without = 0;
  for (const nn::Layer& l : g.layers()) {
    if (l.type != nn::OpType::Conv && l.type != nn::OpType::FullyConnected) continue;
    if (l.weights.empty()) {
      ++without;
      continue;
    }
    ++with;
    const size_t want_w = static_cast<size_t>(l.weight_rows() * l.weight_cols());
    const size_t want_b = static_cast<size_t>(l.weight_cols());
    if (l.weights.size() != want_w || l.bias.size() != want_b) {
      fail(strformat("layer '%s': %zu weights / %zu bias values, geometry needs %zu / %zu",
                     l.name.c_str(), l.weights.size(), l.bias.size(), want_w, want_b));
    }
  }
  if (with > 0 && without > 0) {
    fail("graph mixes parameterized and parameter-free conv/fc layers — ship "
         "parameters for all of them or for none");
  }
}

}  // namespace

nn::Graph graph_from_json(const json::Value& v) {
  if (!v.is_object() || !v.contains("layers") || !v.at("layers").is_array()) {
    fail("a graph description is an object with a \"layers\" array");
  }
  const json::Array& layers = v.at("layers").as_array();
  if (layers.empty()) fail("\"layers\" must not be empty");
  for (size_t i = 0; i < layers.size(); ++i) check_layer_json(layers[i], i);

  nn::Graph g = nn::Graph::from_json(v);  // resolves inputs, infers shapes
  if (g.inputs().empty()) fail("graph has no input layer");
  check_windows(g);
  check_params(g);
  return g;
}

nn::Graph load_graph(const std::string& path) {
  try {
    return graph_from_json(json::parse_file(path));
  } catch (const TransientError& e) {
    throw TransientError("workload: " + path + ": " + e.what(), e.error_code());
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
  }
}

void export_graph(const nn::Graph& g, const std::string& path, bool include_params) {
  json::write_file(path, g.to_json(include_params));
}

uint64_t graph_fingerprint(const nn::Graph& g) {
  return fnv1a64(g.to_json(/*include_params=*/true).dump());
}

}  // namespace pim::workload
