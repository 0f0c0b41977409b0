// First-class workload layer — the declarative form of "what network runs".
//
// The paper's evaluation (§IV) spans a fixed model zoo, but everything the
// simulator can run used to be keyed on a magic model *string* resolved deep
// inside the runtime, so a new scenario meant recompiling C++. This layer
// turns workloads into data, the same move MNSIM2.0 makes with its bundled
// network files:
//
//   - `WorkloadSpec` is a value type naming one workload three ways:
//       * a *builtin* zoo network ("alexnet", "tiny_cnn", ...) looked up in
//         the registry, parameterized by input resolution / classes / seed;
//       * a *graph file* — any nn::Graph serialized to JSON, so networks
//         that were never compiled in run end-to-end through pimsim,
//         pimbatch sweeps and pimdse search spaces;
//       * a parameterized *mlp* synthetic (the cheap FC-only sweep filler
//         that previously hid behind the special-cased "mlp" string).
//   - The registry subsumes nn::model_names()/build_model and accepts
//     client-registered builders.
//   - `load_graph`/`export_graph` round-trip any nn::Graph (including every
//     zoo model) through a JSON file, with strict validation on the way in —
//     a malformed description fails at load time with a precise message,
//     never mid-simulation.
//   - `fingerprint()` is a deterministic content hash: two specs with equal
//     fingerprints describe bit-identical simulations, and editing a graph
//     file changes its fingerprint. dse::scenario_key folds it into the
//     result-cache key, so a stale cache hit against an edited workload file
//     is impossible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "json/json.h"
#include "nn/graph.h"
#include "nn/models.h"

namespace pim::workload {

/// How a WorkloadSpec names its network.
enum class Kind : uint8_t {
  Builtin,    ///< registry (model zoo) network, built on demand
  GraphFile,  ///< nn::Graph serialized to a JSON description file
  Mlp,        ///< parameterized synthetic FC stack (cheap sweep filler)
};

const char* kind_name(Kind k);
Kind kind_from_name(const std::string& name);

/// A declarative, serializable description of one workload. Copyable value
/// type; building the actual nn::Graph is deferred to build().
struct WorkloadSpec {
  Kind kind = Kind::Builtin;
  std::string name = "tiny_cnn";       ///< Builtin: registry name (else unused)
  std::string path;                    ///< GraphFile: description-file location

  // Parameterization of Builtin and Mlp workloads (GraphFile fixes all of
  // this in the file itself; only weight_seed applies there, to initialize
  // parameters when the file ships none and the run is functional).
  int32_t input_hw = 32;               ///< input spatial resolution (square)
  int32_t input_channels = 3;
  int32_t num_classes = 10;
  uint64_t weight_seed = 1;            ///< deterministic parameter init
  std::vector<int32_t> mlp_hidden = {64, 32};  ///< Mlp: hidden layer widths

  bool operator==(const WorkloadSpec&) const = default;

  // ---- factories ----------------------------------------------------------
  static WorkloadSpec builtin(std::string model, int32_t input_hw = 32);
  static WorkloadSpec graph_file(std::string path);
  static WorkloadSpec mlp(int32_t input_hw = 32, std::vector<int32_t> hidden = {64, 32},
                          int32_t num_classes = 10);

  /// Compact display name: the builtin name, "mlp", or the graph file's
  /// basename without its extension. Used in scenario labels.
  std::string label() const;

  /// Swap the network, keep the parameterization: parse `token` (as
  /// parse_workload_token does) and graft it onto this spec — input_hw,
  /// input_channels, num_classes, weight_seed and mlp_hidden all carry
  /// over. The one place the "model knob changes only the network"
  /// semantics live (dse's "model" knob and pimdse --workload both use it).
  WorkloadSpec with_network(const std::string& token, const std::string& base_dir = "") const;

  /// Canonical JSON description (round-trips through from_json).
  json::Value to_json() const;

  /// Parse a spec. Accepts the object form
  ///   {"kind": "builtin"|"graph_file"|"mlp", "name"/"path"/..., ...}
  /// or a bare string, interpreted like a legacy "model" value (see
  /// parse_workload_token). `defaults` seeds every field the JSON omits —
  /// callers thread the surrounding config's input_hw through it. A relative
  /// graph-file path resolves against `base_dir`. Throws
  /// std::invalid_argument on any schema error.
  static WorkloadSpec from_json(const json::Value& v, const std::string& base_dir,
                                const WorkloadSpec& defaults);
  static WorkloadSpec from_json(const json::Value& v, const std::string& base_dir = "");

  /// Deterministic content hash of everything that determines the built
  /// graph. For graph files the *parsed canonical content* is hashed (not
  /// the path, not the raw bytes), so reformatting or moving the file keeps
  /// the fingerprint while any semantic edit changes it. Throws when a graph
  /// file cannot be loaded.
  uint64_t fingerprint() const;
};

/// Interpret one CLI/config "model" token as a spec: "mlp" -> the synthetic
/// mlp, a registered name -> builtin, anything ending in ".json" -> a graph
/// file (resolved against `base_dir` when relative). Throws
/// std::invalid_argument for anything else, listing the alternatives.
WorkloadSpec parse_workload_token(const std::string& token, int32_t input_hw = 32,
                                  const std::string& base_dir = "");

/// A spec turned runnable: the graph plus the input-tensor shape a driver
/// should feed it.
struct BuiltWorkload {
  nn::Graph graph;
  nn::Shape input_shape;
};

/// Build the network a spec describes. `init_params` requests deterministic
/// weight/bias initialization (needed for functional simulation); a graph
/// file that already carries parameters keeps them. Throws
/// std::invalid_argument for unknown builtin names or invalid graph files.
BuiltWorkload build(const WorkloadSpec& spec, bool init_params);

/// A built workload together with the spec fingerprint computed from the
/// *same* parse: for graph files the description file is read exactly once,
/// so the fingerprint and the graph it identifies cannot disagree.
struct FingerprintedWorkload {
  /// Equals WorkloadSpec::fingerprint() on the same file content.
  uint64_t fingerprint = 0;
  BuiltWorkload built;
};

/// fingerprint() and build() fused over one file read. The fingerprint is
/// taken on the graph exactly as loaded (before any weight_seed
/// initialization), matching what fingerprint() returns for the same
/// content — but here the caller also receives that very graph, closing the
/// window where the file changes between keying and building.
FingerprintedWorkload fingerprint_and_build(const WorkloadSpec& spec, bool init_params);

/// Builder registry mapping builtin names to graph constructors. Seeded with
/// the full model zoo (subsuming nn::model_names()/build_model); clients may
/// register additional builders at startup, which makes their names valid in
/// every consumer — pimbatch sweeps, pimdse "model" knobs, pimwl.
class Registry {
 public:
  using Builder = std::function<nn::Graph(const nn::ModelOptions&)>;

  /// The process-wide registry, zoo builders pre-registered.
  static Registry& instance();

  /// Register `name`; throws std::invalid_argument on duplicates and on the
  /// reserved names "mlp" / names ending in ".json".
  void add(const std::string& name, Builder builder);

  bool contains(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// Build `name`; throws std::invalid_argument when unknown.
  nn::Graph build(const std::string& name, const nn::ModelOptions& opt) const;

 private:
  Registry();
  std::vector<std::pair<std::string, Builder>> builders_;  // sorted by name
};

/// Registered builtin names (the zoo plus any client registrations).
std::vector<std::string> builtin_names();

// ---- graph-file I/O --------------------------------------------------------

/// Strictly validate + parse one graph description. On top of
/// nn::Graph::from_json this rejects: missing/empty "layers", non-object
/// layers, "id" fields disagreeing with the layer's position, input layers
/// without a positive [c,h,w] "shape" (or with "inputs"), non-input layers
/// without "inputs", arity violations (add needs 2 operands), conv/fc
/// without positive "out_channels" (conv also "kernel"), and parameter
/// arrays whose sizes disagree with the layer geometry. Shape inference runs
/// before returning, so geometry errors also surface here. Throws
/// std::invalid_argument with the offending layer named.
nn::Graph graph_from_json(const json::Value& v);

/// graph_from_json over a file, with the path prefixed to any error. A
/// retryable open failure stays a pim::TransientError; every other failure
/// is std::invalid_argument.
nn::Graph load_graph(const std::string& path);

/// Serialize `g` to `path` (canonical nn::Graph JSON). With
/// `include_params`, weights/bias ship in the file and a reload is
/// bit-identical to `g`; without, the file is a pure topology description
/// and parameters are re-derived from WorkloadSpec::weight_seed at build
/// time.
void export_graph(const nn::Graph& g, const std::string& path, bool include_params = true);

/// Content hash of a graph: FNV-1a over the canonical JSON dump including
/// parameters. Equal fingerprints mean bit-identical graphs, hence
/// bit-identical simulations on equal configurations.
uint64_t graph_fingerprint(const nn::Graph& g);

}  // namespace pim::workload
