#include "dse/search_space.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>

#include "common/strings.h"
#include "workload/workload.h"

namespace pim::dse {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("SearchSpace: " + what);
}

/// Render a knob value compactly: strings without quotes, numbers via dump.
std::string value_str(const json::Value& v) {
  return v.is_string() ? v.as_string() : v.dump();
}

compiler::MappingPolicy parse_policy(const std::string& p) {
  if (p == "perf") return compiler::MappingPolicy::PerformanceFirst;
  if (p == "util") return compiler::MappingPolicy::UtilizationFirst;
  fail("policy must be \"perf\" or \"util\", got \"" + p + "\"");
}

/// "WxH" -> {W, H}; throws on anything else (including trailing junk).
std::pair<uint32_t, uint32_t> parse_mesh(const std::string& text) {
  const std::vector<std::string> parts = split(text, 'x');
  if (parts.size() == 2 && !parts[0].empty() && !parts[1].empty()) {
    char* wend = nullptr;
    char* hend = nullptr;
    const unsigned long w = std::strtoul(parts[0].c_str(), &wend, 10);
    const unsigned long h = std::strtoul(parts[1].c_str(), &hend, 10);
    if (*wend == '\0' && *hend == '\0' && w >= 1 && h >= 1 && w <= 0xfffffffful &&
        h <= 0xfffffffful) {
      return {static_cast<uint32_t>(w), static_cast<uint32_t>(h)};
    }
  }
  fail("mesh values must look like \"8x8\", got \"" + text + "\"");
}

uint32_t positive_u32(const std::string& knob, const json::Value& v) {
  if (!v.is_int() || v.as_int() < 1) {
    fail("knob \"" + knob + "\": values must be integers >= 1, got " + v.dump());
  }
  return static_cast<uint32_t>(v.as_int());
}

double positive_number(const std::string& knob, const json::Value& v) {
  if (!v.is_number() || v.as_double() <= 0.0) {
    fail("knob \"" + knob + "\": values must be numbers > 0, got " + v.dump());
  }
  return v.as_double();
}

/// Expand one knob's JSON spec into its ordered value list.
std::vector<json::Value> expand_values(const std::string& name, const json::Value& spec) {
  if (spec.is_array()) {
    if (spec.size() == 0) fail("knob \"" + name + "\" has an empty value list");
    return spec.as_array();
  }
  if (!spec.is_object()) {
    fail("knob \"" + name + "\": expected a value list or a range object, got " + spec.dump());
  }
  if (spec.contains("values")) return expand_values(name, spec.at("values"));

  std::vector<json::Value> out;
  if (spec.contains("range")) {
    const json::Value& r = spec.at("range");
    if (!r.is_array() || r.size() != 2) fail("knob \"" + name + "\": \"range\" must be [lo, hi]");
    const bool int_range = r.at(0).is_int() && r.at(1).is_int() &&
                           (!spec.contains("step") || spec.at("step").is_int());
    if (int_range) {
      const int64_t lo = r.at(0).as_int(), hi = r.at(1).as_int();
      const int64_t step = spec.get_or("step", int64_t{1});
      if (step < 1 || hi < lo) fail("knob \"" + name + "\": bad range [lo, hi] / step");
      for (int64_t v = lo; v <= hi; v += step) out.push_back(json::Value(v));
    } else {
      const double lo = r.at(0).as_double(), hi = r.at(1).as_double();
      const double step = spec.get_or("step", 1.0);
      if (step <= 0.0 || hi < lo) fail("knob \"" + name + "\": bad range [lo, hi] / step");
      for (double v = lo; v <= hi + 1e-12; v += step) out.push_back(json::Value(v));
    }
    return out;
  }
  if (spec.contains("log2_range") || spec.contains("log_range")) {
    const json::Value& r = spec.contains("log2_range") ? spec.at("log2_range") : spec.at("log_range");
    if (!r.is_array() || r.size() != 2 || !r.at(0).is_int() || !r.at(1).is_int()) {
      fail("knob \"" + name + "\": \"log2_range\" must be [lo, hi] with integer bounds");
    }
    const int64_t lo = r.at(0).as_int(), hi = r.at(1).as_int();
    const int64_t factor = spec.get_or("factor", int64_t{2});
    if (lo < 1 || hi < lo || factor < 2) {
      fail("knob \"" + name + "\": log range needs 1 <= lo <= hi and factor >= 2");
    }
    for (int64_t v = lo; v <= hi; v *= factor) out.push_back(json::Value(v));
    return out;
  }
  fail("knob \"" + name + "\": range object needs \"values\", \"range\" or \"log2_range\"");
}

/// Apply one structured knob onto the scenario/config being built. Returns
/// false when `name` is not a structured knob (the caller falls back to the
/// dotted-path form); throws on a malformed value. The single registry of
/// structured knobs: parse-time validation runs this same function against
/// scratch objects, so the two can never drift apart.
bool apply_structured_knob(const std::string& name, const json::Value& v,
                           config::ArchConfig* cfg, runtime::Scenario* s) {
  if (name == "model") {
    // A zoo/registry name, "mlp", or a graph description file. Relative
    // .json values were already resolved against the space file's directory
    // at parse time; with_network throws on anything unknown and preserves
    // the other workload-level knobs regardless of the (alphabetical) order
    // knobs are applied in.
    s->workload = s->workload.with_network(v.as_string());
  } else if (name == "input_hw") {
    s->workload.input_hw = static_cast<int32_t>(positive_u32(name, v));
  } else if (name == "weight_seed") {
    if (!v.is_int() || v.as_int() < 0) {
      fail("knob \"weight_seed\": values must be integers >= 0, got " + v.dump());
    }
    s->workload.weight_seed = static_cast<uint64_t>(v.as_int());
  } else if (name == "num_classes") {
    s->workload.num_classes = static_cast<int32_t>(positive_u32(name, v));
  } else if (name == "policy") {
    s->copts.policy = parse_policy(v.as_string());
  } else if (name == "batch") {
    s->copts.batch = positive_u32(name, v);
  } else if (name == "replication") {
    s->copts.replication = positive_u32(name, v);
  } else if (name == "fuse_relu") {
    if (!v.is_bool()) fail("knob \"fuse_relu\": values must be booleans");
    s->copts.fuse_relu = v.as_bool();
  } else if (name == "core_count") {
    cfg->core_count = positive_u32(name, v);
  } else if (name == "mesh") {
    const auto [w, h] = parse_mesh(v.as_string());
    cfg->mesh_width = w;
    cfg->mesh_height = h;
  } else if (name == "xbars_per_core") {
    cfg->core.matrix.xbar_count = positive_u32(name, v);
  } else if (name == "adcs_per_core") {
    cfg->core.matrix.adc_count = positive_u32(name, v);
  } else if (name == "noc_link_bytes") {
    cfg->noc.link_bytes_per_cycle = positive_u32(name, v);
  } else if (name == "rob_size") {
    cfg->core.rob_size = positive_u32(name, v);
  } else if (name == "freq_mhz") {
    cfg->core.freq_mhz = positive_number(name, v);
  } else if (name == "noc_freq_mhz") {
    cfg->noc.freq_mhz = positive_number(name, v);
  } else {
    return false;
  }
  return true;
}

/// Type/validity check of one candidate value, at parse time. `base_json`
/// lets dotted-path knobs verify the path exists in the config schema.
void check_knob_value(const std::string& name, const json::Value& v,
                      const json::Value& base_json) {
  config::ArchConfig scratch_cfg;
  runtime::Scenario scratch_s;
  if (apply_structured_knob(name, v, &scratch_cfg, &scratch_s)) return;
  if (name.find('.') != std::string::npos) {
    json::Value patched = base_json;
    set_json_path(&patched, name, v);  // throws on unknown path / type change
    return;
  }
  fail("unknown knob \"" + name + "\" (not a structured knob, and not a dotted "
       "config path such as \"core.local_memory.size_bytes\")");
}

// ---------------------------------------------------------------- constraints

const char* op_text(CmpOp op) {
  switch (op) {
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
  }
  return "?";
}

/// Compare two knob values. Numbers compare numerically (int vs double is
/// fine); strings and bools support equality only — the parser has already
/// rejected ordering on non-numeric operands.
bool compare_values(const json::Value& a, CmpOp op, const json::Value& b) {
  if (a.is_number() && b.is_number()) {
    const double x = a.as_double(), y = b.as_double();
    switch (op) {
      case CmpOp::Lt: return x < y;
      case CmpOp::Le: return x <= y;
      case CmpOp::Gt: return x > y;
      case CmpOp::Ge: return x >= y;
      case CmpOp::Eq: return x == y;
      case CmpOp::Ne: return x != y;
    }
  }
  switch (op) {
    case CmpOp::Eq: return a == b;
    case CmpOp::Ne: return !(a == b);
    default:
      fail("constraint compares non-numeric values with \"" + std::string(op_text(op)) + "\"");
  }
}

/// Both operand types usable under `op`? Ordering needs two numbers;
/// equality additionally accepts two strings or two bools.
bool types_comparable(const json::Value& a, CmpOp op, const json::Value& b) {
  if (a.is_number() && b.is_number()) return true;
  if (op != CmpOp::Eq && op != CmpOp::Ne) return false;
  return (a.is_string() && b.is_string()) || (a.is_bool() && b.is_bool());
}

/// Parse one side of a constraint: `knob OP rhs` where rhs is a knob name
/// or a literal (JSON number / bool / quoted string, or a bare word taken
/// as a string, e.g. `policy == util`).
Predicate parse_predicate(const std::string& text, const SearchSpace& space,
                          const std::string& full) {
  const auto bad = [&full](const std::string& why) {
    fail("constraint \"" + full + "\": " + why);
  };
  size_t pos = std::string::npos;
  size_t op_len = 0;
  CmpOp op = CmpOp::Eq;
  for (size_t i = 0; i < text.size() && pos == std::string::npos; ++i) {
    const std::string_view two = std::string_view(text).substr(i, 2);
    if (two == "<=") { pos = i; op_len = 2; op = CmpOp::Le; }
    else if (two == ">=") { pos = i; op_len = 2; op = CmpOp::Ge; }
    else if (two == "==") { pos = i; op_len = 2; op = CmpOp::Eq; }
    else if (two == "!=") { pos = i; op_len = 2; op = CmpOp::Ne; }
    else if (text[i] == '<') { pos = i; op_len = 1; op = CmpOp::Lt; }
    else if (text[i] == '>') { pos = i; op_len = 1; op = CmpOp::Gt; }
  }
  if (pos == std::string::npos) bad("expected a comparison (<, <=, >, >=, ==, !=)");

  Predicate pred;
  pred.op = op;
  pred.lhs = std::string(trim(text.substr(0, pos)));
  const std::string rhs = std::string(trim(text.substr(pos + op_len)));
  if (pred.lhs.empty() || rhs.empty()) bad("missing operand around \"" + std::string(op_text(op)) + "\"");

  const Knob* lhs_knob = space.find_knob(pred.lhs);
  if (lhs_knob == nullptr) bad("unknown knob \"" + pred.lhs + "\"");

  std::vector<const json::Value*> rhs_domain;
  if (const Knob* k = space.find_knob(rhs)) {
    pred.rhs_is_knob = true;
    pred.rhs_knob = rhs;
    for (const json::Value& v : k->values) rhs_domain.push_back(&v);
  } else {
    try {
      pred.rhs_value = json::parse(rhs);
      if (pred.rhs_value.is_array() || pred.rhs_value.is_object() || pred.rhs_value.is_null()) {
        bad("literal \"" + rhs + "\" must be a number, bool or string");
      }
    } catch (const json::Error&) {
      pred.rhs_value = json::Value(rhs);  // bare word -> string literal
    }
    rhs_domain.push_back(&pred.rhs_value);
  }

  // Type-check every candidate operand pair now, not at sampling time.
  for (const json::Value& lv : lhs_knob->values) {
    for (const json::Value* rv : rhs_domain) {
      if (!types_comparable(lv, pred.op, *rv)) {
        bad("type mismatch: cannot compare " + lv.dump() + " " + op_text(pred.op) + " " +
            rv->dump());
      }
    }
  }
  return pred;
}

/// True when some assignment of `knobs` (odometer order, last knob
/// fastest) satisfies `fn` — the satisfiability sweep shared by the
/// per-constraint and whole-space checks. Callers bound the product of the
/// domain cardinalities before calling; this helper just enumerates.
bool any_assignment(const std::vector<const Knob*>& knobs,
                    const std::function<bool(const Point&)>& fn) {
  std::vector<size_t> idx(knobs.size(), 0);
  for (;;) {
    Point p;
    for (size_t k = 0; k < knobs.size(); ++k) p[knobs[k]->name] = knobs[k]->values[idx[k]];
    if (fn(p)) return true;
    size_t k = idx.size();
    for (;;) {
      if (k == 0) return false;
      --k;
      if (++idx[k] < knobs[k]->values.size()) break;
      idx[k] = 0;
    }
  }
}

/// Product of the involved domain cardinalities, saturating at `cap + 1`
/// so a pathological range knob cannot overflow uint64 and sneak a huge
/// sweep past the caller's threshold.
uint64_t capped_combo_count(const std::vector<const Knob*>& knobs, uint64_t cap) {
  uint64_t combos = 1;
  for (const Knob* k : knobs) {
    combos *= k->values.size();
    if (combos > cap) return cap + 1;
  }
  return combos;
}

/// Reject cyclic implication chains (a -> b, b -> a). This is a deliberate
/// conservative lint, not a logical necessity: such a pair can be
/// satisfiable, but chained implications over the same knobs almost always
/// indicate a mis-stated spec, and keeping chains acyclic is what lets a
/// future repair strategy (ROADMAP) propagate consequents with guaranteed
/// termination. Edges run from each antecedent knob to each consequent
/// knob; a constraint mentioning the same knob on both sides is fine (that
/// is just a restricted comparison).
void check_implication_acyclic(const std::vector<Constraint>& constraints) {
  std::map<std::string, std::set<std::string>> edges;
  for (const Constraint& c : constraints) {
    if (!c.antecedent) continue;
    std::vector<std::string> from = {c.antecedent->lhs};
    if (c.antecedent->rhs_is_knob) from.push_back(c.antecedent->rhs_knob);
    std::vector<std::string> to = {c.consequent.lhs};
    if (c.consequent.rhs_is_knob) to.push_back(c.consequent.rhs_knob);
    for (const std::string& f : from) {
      for (const std::string& t : to) {
        if (f != t) edges[f].insert(t);
      }
    }
  }
  enum class Mark { White, Grey, Black };
  std::map<std::string, Mark> mark;
  const std::function<void(const std::string&)> visit = [&](const std::string& knob) {
    Mark& m = mark[knob];
    if (m == Mark::Grey) {
      fail("constraints form a cyclic implication chain through knob \"" + knob + "\"");
    }
    if (m == Mark::Black) return;
    m = Mark::Grey;
    const auto it = edges.find(knob);
    if (it != edges.end()) {
      for (const std::string& next : it->second) visit(next);
    }
    mark[knob] = Mark::Black;
  };
  for (const auto& [knob, _] : edges) visit(knob);
}

/// The per-constraint satisfiability check inside Constraint::parse cannot
/// see a jointly-empty region spread across constraints ("x <= 4" plus
/// "x >= 8" are each fine alone). Sweep the whole grid when it is small
/// enough to afford at load time; larger spaces surface the problem as an
/// exploration that evaluates zero points.
void check_constraints_jointly_satisfiable(const SearchSpace& s) {
  if (s.constraints.empty() || s.grid_size() > 65536) return;  // grid_size saturates
  std::vector<const Knob*> knobs;
  knobs.reserve(s.knobs.size());
  for (const Knob& k : s.knobs) knobs.push_back(&k);
  if (!any_assignment(knobs, [&s](const Point& p) { return s.satisfies(p); })) {
    fail("constraints are jointly unsatisfiable: no point of the space "
         "satisfies all of them (empty feasible region)");
  }
}

/// Every knob a constraint reads, without duplicates.
std::vector<const Knob*> involved_knobs(const Constraint& c, const SearchSpace& space) {
  std::vector<const Knob*> out;
  const auto add = [&](const Predicate& p) {
    for (const std::string* name : {&p.lhs, &p.rhs_knob}) {
      if (name->empty()) continue;
      const Knob* k = space.find_knob(*name);
      if (k != nullptr && std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
    }
  };
  if (c.antecedent) add(*c.antecedent);
  add(c.consequent);
  return out;
}

}  // namespace

bool Predicate::holds(const Point& p) const {
  const auto lhs_it = p.find(lhs);
  if (lhs_it == p.end()) return true;  // unassigned knob: vacuously true
  const json::Value* rhs = &rhs_value;
  if (rhs_is_knob) {
    const auto rhs_it = p.find(rhs_knob);
    if (rhs_it == p.end()) return true;
    rhs = &rhs_it->second;
  }
  return compare_values(lhs_it->second, op, *rhs);
}

bool Constraint::holds(const Point& p) const {
  if (antecedent && !antecedent->holds(p)) return true;  // implication: A false
  return consequent.holds(p);
}

Constraint Constraint::parse(const std::string& text, const SearchSpace& space) {
  Constraint c;
  c.text = text;
  const size_t arrow = text.find("->");
  if (arrow != std::string::npos) {
    const std::string tail = text.substr(arrow + 2);
    if (tail.find("->") != std::string::npos) {
      fail("constraint \"" + text + "\": at most one \"->\" implication allowed");
    }
    c.antecedent = parse_predicate(text.substr(0, arrow), space, text);
    c.consequent = parse_predicate(tail, space, text);
  } else {
    c.consequent = parse_predicate(text, space, text);
  }

  // Per-constraint satisfiability over the involved knob domains: a
  // constraint no assignment can satisfy empties the feasible region, which
  // is always a spec bug — reject it at load time. The product of the (at
  // most four) involved domains is tiny in practice; skip the sweep if a
  // pathological space makes it large.
  const std::vector<const Knob*> knobs = involved_knobs(c, space);
  if (capped_combo_count(knobs, 65536) <= 65536 &&
      !any_assignment(knobs, [&c](const Point& p) { return c.holds(p); })) {
    fail("constraint \"" + text +
         "\" is unsatisfiable over the knob domains (empty feasible region)");
  }
  return c;
}

bool SearchSpace::satisfies(const Point& p) const {
  for (const Constraint& c : constraints) {
    if (!c.holds(p)) return false;
  }
  return true;
}

void set_json_path(json::Value* root, const std::string& dotted, const json::Value& v) {
  json::Value* node = root;
  const std::vector<std::string> parts = split(dotted, '.');
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    if (!node->is_object() || !node->contains(parts[i])) {
      fail("unknown config path \"" + dotted + "\" (no \"" + parts[i] + "\")");
    }
    node = &(*node)[parts[i]];
  }
  const std::string& leaf = parts.back();
  if (!node->is_object() || !node->contains(leaf)) {
    fail("unknown config path \"" + dotted + "\" (no \"" + leaf + "\")");
  }
  const json::Value& old = node->at(leaf);
  const bool both_numbers = old.is_number() && v.is_number();
  if (!both_numbers && old.type() != v.type()) {
    fail("config path \"" + dotted + "\": value " + v.dump() +
         " does not match the schema type of " + old.dump());
  }
  (*node)[leaf] = v;
}

std::string point_label(const Point& p) {
  std::string out;
  for (const auto& [k, v] : p) {
    if (!out.empty()) out += ' ';
    out += k + "=" + value_str(v);
  }
  return out.empty() ? "base" : out;
}

std::string point_key(const Point& p) {
  json::Object o(p.begin(), p.end());
  return json::Value(std::move(o)).dump();
}

// -------------------------------------------------------------------- Metrics

double Metrics::objective(const std::string& name) const {
  if (name == "latency_ms") return latency_ms;
  if (name == "energy_uj") return energy_uj;
  if (name == "power_mw") return power_mw;
  if (name == "area_mm2") return area_mm2;
  throw std::invalid_argument("Metrics: unknown objective \"" + name + "\"");
}

json::Value Metrics::to_json() const {
  json::Value v;
  v["latency_ms"] = json::Value(latency_ms);
  v["energy_uj"] = json::Value(energy_uj);
  v["power_mw"] = json::Value(power_mw);
  v["area_mm2"] = json::Value(area_mm2);
  v["instructions"] = json::Value(instructions);
  v["noc_bytes"] = json::Value(noc_bytes);
  v["total_ps"] = json::Value(total_ps);
  return v;
}

Metrics Metrics::from_json(const json::Value& v) {
  Metrics m;
  m.latency_ms = v.get_or("latency_ms", 0.0);
  m.energy_uj = v.get_or("energy_uj", 0.0);
  m.power_mw = v.get_or("power_mw", 0.0);
  m.area_mm2 = v.get_or("area_mm2", 0.0);
  m.instructions = v.get_or("instructions", uint64_t{0});
  m.noc_bytes = v.get_or("noc_bytes", uint64_t{0});
  m.total_ps = v.get_or("total_ps", uint64_t{0});
  return m;
}

// ------------------------------------------------------------- EvaluatedPoint

std::vector<double> EvaluatedPoint::objective_values(
    const std::vector<std::string>& objectives) const {
  std::vector<double> out;
  out.reserve(objectives.size());
  for (const std::string& o : objectives) out.push_back(metrics.objective(o));
  return out;
}

json::Value EvaluatedPoint::to_json() const {
  json::Value v;
  v["point"] = json::Value(json::Object(point.begin(), point.end()));
  v["label"] = json::Value(label);
  v["feasible"] = json::Value(feasible);
  v["ok"] = json::Value(ok);
  if (!error.empty()) v["error"] = json::Value(error);
  if (feasible && ok) v["metrics"] = metrics.to_json();
  return v;
}

EvaluatedPoint EvaluatedPoint::from_json(const json::Value& v) {
  EvaluatedPoint ep;
  const json::Object& pt = v.at("point").as_object();
  for (const auto& [k, val] : pt) ep.point[k] = val;
  ep.label = v.get_or("label", "");
  if (ep.label.empty()) ep.label = point_label(ep.point);
  ep.feasible = v.get_or("feasible", false);
  ep.ok = v.get_or("ok", false);
  ep.error = v.get_or("error", "");
  if (v.contains("metrics")) ep.metrics = Metrics::from_json(v.at("metrics"));
  return ep;
}

// ---------------------------------------------------------------- SearchSpace

uint64_t SearchSpace::grid_size() const {
  uint64_t n = 1;
  for (const Knob& k : knobs) {
    const uint64_t card = k.values.size();
    if (card != 0 && n > std::numeric_limits<uint64_t>::max() / card) {
      return std::numeric_limits<uint64_t>::max();
    }
    n *= card;
  }
  return n;
}

const Knob* SearchSpace::find_knob(const std::string& name) const {
  for (const Knob& k : knobs) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

SearchSpace SearchSpace::from_json(const json::Value& v, const std::string& base_dir) {
  SearchSpace s;
  s.name = v.get_or("name", s.name);

  if (v.contains("base_config")) {
    s.base = config::ArchConfig::load(resolve_path(v.at("base_config").as_string(), base_dir));
  } else {
    const std::string base = v.get_or("base", "tiny");
    try {
      s.base = config::ArchConfig::preset(base);
    } catch (const std::invalid_argument&) {
      fail("\"base\" must be tiny|paper|mnsim (or use \"base_config\": <path>), got \"" +
           base + "\"");
    }
  }

  s.functional = v.get_or("functional", s.functional);
  s.input_seed = v.get_or("input_seed", s.input_seed);
  const int64_t hw = v.get_or("input_hw", int64_t{32});
  if (hw < 1) fail("\"input_hw\" must be >= 1");
  // "workload" (spec object or token, including graph files) is the
  // first-class form; "model" + "input_hw" stays as the legacy spelling.
  if (v.contains("workload")) {
    if (v.contains("model")) fail("give either \"workload\" or the legacy \"model\", not both");
    workload::WorkloadSpec defaults;
    defaults.input_hw = static_cast<int32_t>(hw);
    s.workload = workload::WorkloadSpec::from_json(v.at("workload"), base_dir, defaults);
  } else {
    s.workload = workload::parse_workload_token(v.get_or("model", std::string("tiny_cnn")),
                                                static_cast<int32_t>(hw), base_dir);
  }
  // A broken graph file should fail here, at space load, not after an hour
  // of exploration — fingerprint() parses and validates it.
  if (s.workload.kind == workload::Kind::GraphFile) s.workload.fingerprint();

  if (!v.contains("knobs") || !v.at("knobs").is_object()) {
    fail("a space needs a \"knobs\" object");
  }
  const json::Value base_json = s.base.to_json();
  for (const auto& [name, spec] : v.at("knobs").as_object()) {
    Knob k;
    k.name = name;
    k.values = expand_values(name, spec);
    if (name == "model") {
      // Resolve graph-file values against the space file's directory now and
      // load-validate them, so materialize never sees a relative path or a
      // malformed file.
      for (json::Value& val : k.values) {
        if (!val.is_string()) fail("knob \"model\": values must be strings, got " + val.dump());
        if (ends_with(val.as_string(), ".json")) {
          const workload::WorkloadSpec wl = workload::parse_workload_token(
              val.as_string(), static_cast<int32_t>(hw), base_dir);
          wl.fingerprint();  // throws on unreadable/malformed graph files
          val = json::Value(wl.path);
        }
      }
    }
    for (const json::Value& val : k.values) check_knob_value(name, val, base_json);
    s.knobs.push_back(std::move(k));
  }
  if (s.knobs.empty()) fail("\"knobs\" must name at least one knob");

  if (v.contains("objectives")) {
    s.objectives.clear();
    for (const json::Value& o : v.at("objectives").as_array()) {
      Metrics{}.objective(o.as_string());  // validates the name
      s.objectives.push_back(o.as_string());
    }
    if (s.objectives.empty()) fail("\"objectives\" must not be empty");
  }

  if (v.contains("constraints")) {
    if (!v.at("constraints").is_array()) fail("\"constraints\" must be an array of strings");
    for (const json::Value& c : v.at("constraints").as_array()) {
      if (!c.is_string()) {
        fail("\"constraints\" entries must be strings, got " + c.dump());
      }
      s.constraints.push_back(Constraint::parse(c.as_string(), s));
    }
    check_implication_acyclic(s.constraints);
    check_constraints_jointly_satisfiable(s);
  }
  return s;
}

SearchSpace SearchSpace::load(const std::string& path) {
  return from_json(json::parse_file(path), dirname(path));
}

// ---------------------------------------------------------------- materialize

MaterializedPoint materialize(const SearchSpace& space, const Point& p) {
  MaterializedPoint out;
  runtime::Scenario& s = out.scenario;
  s.workload = space.workload;
  s.functional = space.functional;
  s.input_seed = space.input_seed;
  s.arch = space.base;
  s.name = point_label(p);
  config::ArchConfig& cfg = s.arch;
  cfg.sim.functional = space.functional;
  s.copts.include_weights = space.functional;

  try {
    std::vector<std::pair<std::string, json::Value>> path_overrides;
    for (const auto& [k, v] : p) {
      if (!apply_structured_knob(k, v, &cfg, &s)) {
        path_overrides.emplace_back(k, v);  // dotted path, validated at parse
      }
    }

    // core_count <-> mesh coupling: a lone knob derives its counterpart so
    // the common "sweep core_count" space stays valid; setting both leaves
    // consistency to validate() below.
    if (p.count("core_count") != 0 && p.count("mesh") == 0) {
      cfg.set_squarest_mesh();
    } else if (p.count("mesh") != 0 && p.count("core_count") == 0) {
      cfg.core_count = cfg.mesh_width * cfg.mesh_height;
    }

    if (!path_overrides.empty()) {
      json::Value j = cfg.to_json();
      for (const auto& [path, val] : path_overrides) set_json_path(&j, path, val);
      cfg = config::ArchConfig::from_json(j);  // re-validates
      cfg.sim.functional = space.functional;
    }

    cfg.validate();
    out.feasible = true;
  } catch (const std::exception& e) {
    out.feasible = false;
    out.error = e.what();
  }
  return out;
}

}  // namespace pim::dse
