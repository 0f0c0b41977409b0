// Report goldens: the simulated answers of a fixed set of runs, pinned in
// tests/golden/reports.json.
//
// Each case records total_ps, instructions, energy per component, per-layer
// busy time and communication ratio, and one hash over every RunStats field
// except kernel_events (a host cost of the simulator, not a property of the
// simulated design). Functional cases also hash the output bytes. Timing-only
// cases cover the zoo and mlp on paper/mnsim under both mapping policies, and
// tiny_cnn/mlp on tiny; zoo networks that do not fit tiny are listed with the
// error they fail on. Functional cases run at inputs 8-16, once with the
// zoo's own requantization shifts and once with a smaller "live" shift that
// keeps every layer's activations non-zero. ROB-size cases run vgg8 and
// resnet18 on paper at ROB sizes around the preset's 16, and tiny_cnn on tiny
// with a one-entry ROB, so the core's hazard check and ROB bookkeeping are
// pinned where issue order is most constrained and least.
//
// On a mismatch the test names each field that moved and writes the fresh
// file into the build tree (PIM_GOLDEN_FRESH); a change that moves the
// answers on purpose copies that file over the golden, says why, and bumps
// dse::kSimModelVersion so stored results of the older build miss (see
// tests/golden/README.md).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "config/arch_config.h"
#include "json/json.h"
#include "nn/executor.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace pim {
namespace {

// The stats hash below feeds every field of these structs; a new field
// must be added there (and the goldens re-recorded) before these pass.
static_assert(sizeof(arch::UnitStats) == 16);
static_assert(sizeof(arch::CoreStats) == 4 * sizeof(arch::UnitStats) + 5 * 8);
static_assert(sizeof(arch::LayerStats) == 8 * 8);

const char* const kZoo[] = {"alexnet",    "vgg8",       "vgg16",    "resnet18",
                            "googlenet",  "squeezenet", "tiny_cnn", "mlp"};

struct Case {
  std::string arch;     ///< ArchConfig preset name
  bool perf = true;     ///< mapping policy: performance- or utilization-first
  std::string network;  ///< workload token
  int32_t input_hw = 16;
  bool functional = false;
  bool live_shift = false;  ///< functional with out_shift = ceil(log2(rows)/2)+1
  uint32_t rob_size = 0;    ///< core.rob_size; 0 keeps the preset's

  std::string key() const {
    std::string k = arch + "/" + (perf ? "perf" : "util") + "/" + network + "@" +
                    std::to_string(input_hw);
    if (functional) k += live_shift ? "/functional-live" : "/functional";
    if (rob_size != 0) k += "/rob" + std::to_string(rob_size);
    return k;
  }
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* arch : {"paper", "mnsim"}) {
    for (bool perf : {true, false}) {
      for (const char* net : kZoo) out.push_back(Case{arch, perf, net, 16});
    }
  }
  for (bool perf : {true, false}) {
    for (const char* net : kZoo) out.push_back(Case{"tiny", perf, net, 8});
    for (const char* net : {"tiny_cnn", "mlp"}) {
      for (bool live : {false, true}) out.push_back(Case{"tiny", perf, net, 8, true, live});
    }
  }
  for (const char* net : {"vgg8", "resnet18", "squeezenet", "alexnet", "googlenet"}) {
    for (bool live : {false, true}) out.push_back(Case{"paper", true, net, 16, true, live});
  }
  for (const char* net : {"vgg8", "resnet18"}) {
    for (uint32_t rob : {1u, 2u, 4u, 8u, 12u, 32u}) {
      out.push_back(Case{"paper", true, net, 16, false, false, rob});
    }
  }
  out.push_back(Case{"tiny", true, "tiny_cnn", 8, false, false, 1});
  return out;
}

/// FNV-1a over little-endian field bytes, in a fixed field order.
class StatsHash {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void add(double v) { add(std::bit_cast<uint64_t>(v)); }
  void add(const arch::UnitStats& u) {
    add(u.ops);
    add(u.busy_ps);
  }
  std::string hex() const {
    return strformat("0x%016llx", static_cast<unsigned long long>(fnv1a64(buf_)));
  }

 private:
  std::string buf_;
};

std::string stats_hash(const arch::RunStats& s) {
  StatsHash h;
  h.add(s.total_ps);
  for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
    h.add(s.energy.get(static_cast<arch::Component>(c)));
  }
  h.add(uint64_t{s.cores.size()});
  for (const arch::CoreStats& c : s.cores) {
    h.add(c.matrix);
    h.add(c.vector);
    h.add(c.transfer);
    h.add(c.scalar);
    h.add(c.instructions_retired);
    h.add(c.rob_full_stalls);
    h.add(c.halt_time_ps);
    h.add(c.bytes_sent);
    h.add(c.bytes_received);
  }
  h.add(uint64_t{s.layers.size()});
  for (const auto& [id, l] : s.layers) {
    h.add(static_cast<uint64_t>(id));
    h.add(l.first_issue_ps);
    h.add(l.last_complete_ps);
    h.add(l.matrix_busy_ps);
    h.add(l.vector_busy_ps);
    h.add(l.transfer_busy_ps);
    h.add(l.transfer_wire_ps);
    h.add(l.bytes_moved);
    h.add(l.mvm_count);
  }
  return h.hex();
}

json::Value record(const runtime::Report& r, bool functional) {
  json::Value v;
  v["finished"] = json::Value(r.finished);
  v["total_ps"] = json::Value(static_cast<uint64_t>(r.stats.total_ps));
  v["instructions"] = json::Value(r.stats.total_instructions());
  json::Value energy;
  for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
    const auto comp = static_cast<arch::Component>(c);
    energy[arch::component_name(comp)] = json::Value(r.stats.energy.get(comp));
  }
  v["energy_pj"] = std::move(energy);
  json::Value layers;
  for (const auto& [id, l] : r.stats.layers) {
    json::Value lj;
    lj["matrix_ps"] = json::Value(static_cast<uint64_t>(l.matrix_busy_ps));
    lj["vector_ps"] = json::Value(static_cast<uint64_t>(l.vector_busy_ps));
    lj["transfer_ps"] = json::Value(static_cast<uint64_t>(l.transfer_busy_ps));
    lj["comm_ratio"] = json::Value(l.comm_ratio());
    layers[std::to_string(id)] = std::move(lj);
  }
  v["layers"] = std::move(layers);
  v["stats_hash"] = json::Value(stats_hash(r.stats));
  if (functional) {
    const std::string_view out(reinterpret_cast<const char*>(r.output.data()),
                               r.output.size());
    v["output_hash"] = json::Value(
        strformat("0x%016llx", static_cast<unsigned long long>(fnv1a64(out))));
    size_t nonzero = 0;
    for (int8_t b : r.output) nonzero += b != 0;
    v["output_nonzero"] = json::Value(uint64_t{nonzero});
  }
  return v;
}

/// A shift small enough that random int8 activations survive every layer
/// of the zoo (the builders' default zeroes them after the first block).
void set_live_shift(nn::Graph& g) {
  for (nn::Layer& l : g.layers()) {
    if (l.type != nn::OpType::Conv && l.type != nn::OpType::FullyConnected) continue;
    const double rows = static_cast<double>(l.weight_rows());
    l.out_shift = static_cast<int32_t>(std::ceil(std::log2(rows) / 2)) + 1;
  }
}

/// Run one case; its record, or {"skipped": message} when it cannot compile.
json::Value run_case(const Case& c) {
  config::ArchConfig cfg = config::ArchConfig::preset(c.arch);
  cfg.sim.functional = c.functional;
  if (c.rob_size != 0) cfg.core.rob_size = c.rob_size;
  compiler::CompileOptions copts;
  copts.policy = c.perf ? compiler::MappingPolicy::PerformanceFirst
                        : compiler::MappingPolicy::UtilizationFirst;
  copts.include_weights = c.functional;
  workload::BuiltWorkload b =
      workload::build(workload::parse_workload_token(c.network, c.input_hw), c.functional);
  if (c.live_shift) set_live_shift(b.graph);
  const nn::Tensor input = nn::random_input(b.input_shape, 7);
  try {
    const runtime::Report r =
        runtime::simulate_network(b.graph, cfg, copts, c.functional ? &input : nullptr);
    return record(r, c.functional);
  } catch (const std::exception& e) {
    json::Value v;
    v["skipped"] = json::Value(std::string(e.what()));
    return v;
  }
}

/// Append one line per leaf of `fresh` that differs from `golden`.
void diff(const std::string& path, const json::Value& golden, const json::Value& fresh,
          std::vector<std::string>& out) {
  if (golden.is_object() && fresh.is_object()) {
    auto at = [&path](const std::string& k) { return path.empty() ? k : path + "." + k; };
    for (const auto& [k, v] : fresh.as_object()) {
      if (!golden.contains(k)) {
        out.push_back(at(k) + ": new");
      } else {
        diff(at(k), golden.at(k), v, out);
      }
    }
    for (const auto& [k, v] : golden.as_object()) {
      if (!fresh.contains(k)) out.push_back(at(k) + ": gone");
    }
    return;
  }
  if (!(golden == fresh)) out.push_back(path + ": " + golden.dump() + " -> " + fresh.dump());
}

TEST(ReportGolden, SimulatedAnswersMatchTheRecordedOnes) {
  json::Value fresh_cases;
  for (const Case& c : cases()) fresh_cases[c.key()] = run_case(c);
  json::Value fresh;
  fresh["cases"] = std::move(fresh_cases);
  const std::string fresh_text = fresh.dump(2) + "\n";

  std::ifstream in(PIM_GOLDEN_FILE);
  std::stringstream golden_text;
  golden_text << in.rdbuf();
  if (golden_text.str() == fresh_text) return;

  // Compare through one parse so numbers meet in the same representation.
  std::vector<std::string> moved;
  if (!in) {
    moved.push_back(std::string("no golden file at ") + PIM_GOLDEN_FILE);
  } else {
    diff("", json::parse(golden_text.str()).at("cases"),
         json::parse(fresh_text).at("cases"), moved);
  }
  std::ofstream(PIM_GOLDEN_FRESH) << fresh_text;
  std::string msg;
  for (const std::string& m : moved) msg += "  " + m + "\n";
  ADD_FAILURE() << moved.size() << " field(s) moved against " << PIM_GOLDEN_FILE << ":\n"
                << msg << "fresh file written to " << PIM_GOLDEN_FRESH;
}

}  // namespace
}  // namespace pim
