// Content-addressed result cache for design-space exploration.
//
// Every evaluated point is keyed by the *full canonical description of the
// simulation* — simulator model version, architecture configuration JSON,
// workload, input resolution and compile options — so repeated and incremental explorations (a refined
// space, a different sampler, a bigger budget) skip every point that has
// already been simulated, regardless of which space file produced it.
//
// One cache entry is one JSON file `<dir>/<fnv1a64(key) as hex>.json`
// holding the key string and the stored metrics. The key is compared
// verbatim on load, so a hash collision degrades to a miss, never to a
// wrong result. Entries are immutable once written; the cache directory can
// be deleted at any time.
//
// Durability (the cache is shared by concurrent pimdse processes):
//
//   * Writes are atomic: the entry is written to a `.tmp<pid>` sibling and
//     renamed into place, so readers never observe a half-written file even
//     if the writer dies mid-write.
//   * Every entry carries an FNV-1a checksum of its own payload. An entry
//     that fails the checksum (or does not parse) is *quarantined* — renamed
//     to `<entry>.bad`, counted in `dse.cache_quarantined`, and treated as a
//     miss so the point is recomputed; a corrupt cache degrades, it never
//     poisons results. An entry that simply vanished (a concurrent process
//     evicted it between lookup and read) is a plain miss, not corruption.
//   * Size-cap eviction takes an advisory file lock (`<dir>/.lock`, flock)
//     so N processes trimming the same directory never double-evict or
//     delete entries out from under each other's scans.
//
// The cache is bounded: pass `max_bytes > 0` and the directory is trimmed
// oldest-first (by file modification time) whenever the total entry size
// exceeds the cap, so long-lived caches no longer grow without bound.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dse/search_space.h"
#include "telemetry/telemetry.h"

namespace pim::dse {

/// Version of the simulator's answers. Every result-cache key (pimdse,
/// pimserved's L2) and every pimbatch and pimdse journal fingerprint names
/// it, so results stored by a build that simulated differently are never
/// replayed. Bump it whenever tests/golden/reports.json is re-recorded,
/// i.e. whenever a change moves simulated answers on purpose.
inline constexpr uint32_t kSimModelVersion = 1;

/// FNV-1a 64-bit over `data` (stable across platforms and runs); forwards
/// to the shared pim::fnv1a64 primitive.
uint64_t fnv1a64(std::string_view data);

/// Canonical cache key of one scenario: compact JSON of everything that
/// determines the simulation outcome. The workload contributes its content
/// fingerprint (WorkloadSpec::fingerprint), so editing a graph description
/// file always misses — never serves a stale result — while a moved or
/// reformatted file still hits. Throws when a graph file cannot be read.
std::string scenario_key(const runtime::Scenario& s);

/// Same key with the workload fingerprint supplied by the caller — the
/// evaluator memoizes it across points sharing a workload, so a graph
/// description file is parsed once per evaluation batch, not once per point.
/// `model_version` is kSimModelVersion except in tests.
std::string scenario_key(const runtime::Scenario& s, uint64_t workload_fingerprint,
                         uint32_t model_version = kSimModelVersion);

/// Shared-cache location resolution used by the tools: `explicit_dir` when
/// non-empty (a flag the user passed), else $PIMDSE_CACHE_DIR when set and
/// non-empty, else `fallback`. The env var lets CI jobs and developers
/// point every run at one shared cache without editing command lines.
std::string resolve_cache_dir(const std::string& explicit_dir, const std::string& fallback);

struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() > 0 ? static_cast<double>(hits) / static_cast<double>(lookups()) : 0.0;
  }
};

/// Disk-backed result store. An empty directory string disables the cache
/// (every lookup misses, stores are dropped). `max_bytes == 0` means
/// unbounded; otherwise the directory is kept at or under the cap by
/// evicting the oldest entries first.
class ResultCache {
 public:
  explicit ResultCache(std::string dir, uint64_t max_bytes = 0);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  uint64_t max_bytes() const { return max_bytes_; }

  /// Publish `dse.cache_quarantined` to `m` (nullable; call before load()s).
  void set_metrics(telemetry::Registry* m);

  /// Entries evicted by this instance (size-cap trims), cumulative.
  size_t evicted() const { return evicted_; }

  /// Corrupt entries this instance renamed to `.bad`, cumulative.
  size_t quarantined() const { return quarantined_; }

  /// Look `key` up; on a hit fills feasible/ok/error/metrics of `out`
  /// (leaving its point/label alone) and returns true. A corrupt entry is
  /// quarantined (renamed to `.bad`) and reported as a miss.
  bool load(const std::string& key, EvaluatedPoint* out);

  /// Persist one evaluated point under `key` (atomically: temp file +
  /// rename), then enforce the size cap. I/O failures are logged and
  /// swallowed — a broken cache must never fail an exploration.
  void store(const std::string& key, const EvaluatedPoint& p);

  /// Generic entry access — the on-disk format load()/store() use, open to
  /// other payloads (the serving layer caches whole runtime::Report JSON
  /// documents this way). `store_document` takes an arbitrary JSON object,
  /// injects the verbatim "key" and the payload "checksum" at top level, and
  /// writes it with the same atomic-rename + size-cap discipline as store().
  /// `load_document` verifies checksum and key (quarantining corrupt
  /// entries), strips the injected fields, and returns the caller's object.
  bool load_document(const std::string& key, json::Value* out);
  void store_document(const std::string& key, json::Value doc);

 private:
  std::string entry_path(const std::string& key) const;
  uint64_t scan_bytes() const;
  void quarantine(const std::string& path, const std::string& why);
  void trim();

  std::string dir_;
  uint64_t max_bytes_ = 0;
  uint64_t approx_bytes_ = 0;  // running estimate; trim() resyncs with disk
  size_t evicted_ = 0;
  size_t quarantined_ = 0;
  telemetry::Counter* quarantined_counter_ = nullptr;
};

}  // namespace pim::dse
