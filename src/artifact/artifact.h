// Compile-once/simulate-many: a thread-safe, content-addressed store of
// build and compile artifacts, shared across runtime::BatchRunner workers,
// dse::Evaluator batches and the CLI tools.
//
// PIMCOMP-style lowering (the compile pipeline this repo models) is
// deterministic: the same graph, the same compile-relevant configuration
// fields and the same CompileOptions always produce bit-identical programs.
// That makes compiled artifacts safely shareable by content key — a sweep
// that only varies simulation-side knobs (ROB size, NoC parameters,
// frequencies, energies, time budgets) compiles each unique program exactly
// once and reuses it for every point.
//
// Two memo levels, both single-flight (concurrent requests for one key
// block on the first requester's build instead of duplicating it):
//
//   graph:    workload fingerprint + init_params
//               -> shared_ptr<const workload::BuiltWorkload>
//   program:  graph key + compile-relevant arch key + CompileOptions key
//               -> shared_ptr<const runtime::CompiledNetwork>
//
// Graph-file workloads are re-read on every graph() request — the returned
// handle always fingerprints the bytes just parsed (callers memoize handles
// per batch, so a file is still read once per batch) — and then deduplicated
// by content. A handle therefore pins the exact graph its fingerprint
// names: simulating through it closes the fingerprint/build TOCTOU where a
// description file edited between keying and building would run under a
// stale key.
//
// Both maps are LRU-bounded; eviction only drops the store's own reference
// (in-flight builds and artifacts still referenced by workers are
// unaffected). Failed builds are cached too: an artifact that failed to
// build fails identically — and is compiled at most once — for every
// requester.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "json/json.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace pim::artifact {

/// The compile-relevant architecture fingerprint is a config-level fact
/// (isa::Program::verify stamps its proofs with it); the store keys programs
/// by it.
using config::arch_key;
using config::compile_relevant_arch;

/// fnv1a64 over a canonical dump of every CompileOptions field (they all
/// shape the generated program).
uint64_t options_key(const compiler::CompileOptions& copts);

/// A resolved workload: the spec fingerprint plus the built graph that
/// fingerprint was computed on. Pass it to Store::program() — or simulate
/// `built->graph` directly — and the keyed content is exactly what runs.
struct GraphHandle {
  uint64_t fingerprint = 0;  ///< WorkloadSpec::fingerprint() of the content
  bool init_params = false;  ///< whether parameters were initialized
  std::shared_ptr<const workload::BuiltWorkload> built;
};

/// Hit/miss/evict counters. A "miss" is a request that triggered (and paid
/// for) a build; concurrent requests folded into an in-flight build count as
/// hits — so program_misses equals the number of compilations that ran.
struct StoreStats {
  size_t graph_hits = 0;
  size_t graph_misses = 0;
  size_t program_hits = 0;
  size_t program_misses = 0;
  size_t evictions = 0;

  /// Counter delta (this - rhs); both sides must come from one store.
  StoreStats operator-(const StoreStats& rhs) const;

  /// "graph hits 3, graph misses 1, program hits 12, ..." — the one-line
  /// rendering the tool summaries print.
  std::string summary() const;
  json::Value to_json() const;

  /// Add these counters into `registry` under "artifact.*" (graph_hits,
  /// graph_misses, program_hits, program_misses, evictions). Call with a
  /// delta to publish one run's activity.
  void publish(telemetry::Registry& registry) const;
};

/// The thread-safe artifact store. One instance may serve any number of
/// concurrent BatchRunner workers, evaluators and tools; all returned
/// artifacts are immutable and shared.
class Store {
 public:
  struct Options {
    size_t max_graphs = 32;     ///< LRU cap on retained built graphs
    size_t max_programs = 128;  ///< LRU cap on retained compiled programs
  };

  Store();
  explicit Store(const Options& opt);

  /// Resolve a workload: build (or reuse) its graph and return the handle
  /// carrying the fingerprint of exactly that graph. Graph files are
  /// re-read per call (see file header); builtin/mlp specs are built
  /// single-flight and cached. Throws what workload::build would.
  GraphHandle graph(const workload::WorkloadSpec& spec, bool init_params);

  /// Compile (or reuse) the program for `handle`'s graph under the
  /// compile-relevant fields of `cfg` and all of `copts`. Single-flight:
  /// one key compiles exactly once, concurrent requesters block and share.
  /// Throws what compiler::compile would.
  std::shared_ptr<const runtime::CompiledNetwork> program(
      const GraphHandle& handle, const config::ArchConfig& cfg,
      const compiler::CompileOptions& copts);

  /// Snapshot of the cumulative counters (thread-safe).
  StoreStats stats() const;

 private:
  template <typename V>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const V> value;
    std::exception_ptr error;
    bool done = false;       // build finished (ok or error); guarded by mutex_
    uint64_t last_used = 0;  // LRU tick; guarded by mutex_
  };
  using GraphSlot = Slot<workload::BuiltWorkload>;
  using ProgramSlot = Slot<runtime::CompiledNetwork>;

  template <typename V>
  std::shared_ptr<const V> get(std::map<std::string, std::shared_ptr<Slot<V>>>* slots,
                               const std::string& key, size_t cap, size_t* hits,
                               size_t* misses,
                               const std::function<std::shared_ptr<const V>()>& build);
  template <typename V>
  void evict_locked(std::map<std::string, std::shared_ptr<Slot<V>>>* slots, size_t cap);

  Options opt_;
  mutable std::mutex mutex_;
  uint64_t tick_ = 0;  // guarded by mutex_
  StoreStats stats_;   // guarded by mutex_
  std::map<std::string, std::shared_ptr<GraphSlot>> graphs_;
  std::map<std::string, std::shared_ptr<ProgramSlot>> programs_;
};

}  // namespace pim::artifact
