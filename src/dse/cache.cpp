#include "dse/cache.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"

namespace pim::dse {
namespace {

/// RAII advisory lock on `<dir>/.lock` — serializes eviction across
/// processes sharing a cache directory. Advisory only: readers and entry
/// writers never take it (atomic rename makes them safe without it); only
/// trim() does, so two processes can't double-evict or delete entries out
/// from under each other's directory scans. On platforms without flock the
/// lock degrades to a no-op (single-process use stays correct).
class DirLock {
 public:
  explicit DirLock(const std::string& dir) {
#ifndef _WIN32
    const std::string path = dir + "/.lock";
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
#else
    (void)dir;
#endif
  }
  ~DirLock() {
#ifndef _WIN32
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
#endif
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
#ifndef _WIN32
  int fd_ = -1;
#endif
};

uint64_t process_id() {
#ifndef _WIN32
  return static_cast<uint64_t>(::getpid());
#else
  return 0;
#endif
}

std::string checksum_hex(std::string_view payload) {
  return strformat("%016llx", static_cast<unsigned long long>(fnv1a64(payload)));
}

}  // namespace

uint64_t fnv1a64(std::string_view data) { return ::pim::fnv1a64(data); }

std::string scenario_key(const runtime::Scenario& s) {
  return scenario_key(s, s.workload.fingerprint());
}

std::string scenario_key(const runtime::Scenario& s, uint64_t workload_fingerprint,
                         uint32_t model_version) {
  json::Value v;
  v["model_version"] = json::Value(model_version);
  v["arch"] = s.arch.to_json();
  // The workload enters the key through its content fingerprint: for graph
  // files that hashes the parsed canonical graph, so editing the file is a
  // guaranteed cache miss while moving or reformatting it is not. No path
  // or label goes in — the content is the identity, not the location.
  json::Value w;
  w["kind"] = json::Value(workload::kind_name(s.workload.kind));
  w["fingerprint"] = json::Value(strformat(
      "%016llx", static_cast<unsigned long long>(workload_fingerprint)));
  v["workload"] = std::move(w);
  v["functional"] = json::Value(s.functional);
  v["input_seed"] = json::Value(s.input_seed);
  json::Value c;
  c["policy"] = json::Value(
      s.copts.policy == compiler::MappingPolicy::UtilizationFirst ? "util" : "perf");
  c["fuse_relu"] = json::Value(s.copts.fuse_relu);
  c["replication"] = json::Value(s.copts.replication);
  c["batch"] = json::Value(s.copts.batch);
  c["input_gaddr"] = json::Value(s.copts.input_gaddr);
  c["output_gaddr"] = json::Value(s.copts.output_gaddr);
  v["copts"] = std::move(c);
  return v.dump();
}

std::string resolve_cache_dir(const std::string& explicit_dir, const std::string& fallback) {
  if (!explicit_dir.empty()) return explicit_dir;
  const char* env = std::getenv("PIMDSE_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return fallback;
}

ResultCache::ResultCache(std::string dir, uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    PIM_LOG(Warn) << "dse cache: cannot create " << dir_ << " (" << ec.message()
                  << ") — caching disabled";
    dir_.clear();
    return;
  }
  if (max_bytes_ > 0) {
    approx_bytes_ = scan_bytes();
    if (approx_bytes_ > max_bytes_) trim();
  }
}

void ResultCache::set_metrics(telemetry::Registry* m) {
  quarantined_counter_ = m != nullptr ? &m->counter("dse.cache_quarantined") : nullptr;
}

uint64_t ResultCache::scan_bytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      total += entry.file_size(ec);
    }
  }
  return total;
}

void ResultCache::trim() {
  // Oldest-first eviction under the directory lock: concurrent processes
  // sharing the cache serialize here, so the scan each one sorts is the scan
  // it deletes from — no double-evictions, no evicting an entry another
  // process just renamed into place after our scan would have missed it.
  DirLock lock(dir_);
  struct Candidate {
    std::filesystem::file_time_type mtime;
    uint64_t size;
    std::filesystem::path path;
  };
  std::vector<Candidate> entries;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() == ".json") {
      Candidate c{entry.last_write_time(ec), entry.file_size(ec), p};
      total += c.size;
      entries.push_back(std::move(c));
      continue;
    }
    // Orphaned temp files (a writer died between write and rename) are junk
    // once they are demonstrably stale; only the eviction path, already
    // under the lock, cleans them up.
    if (p.filename().string().find(".tmp") != std::string::npos) {
      const auto age = std::filesystem::file_time_type::clock::now() - entry.last_write_time(ec);
      if (age > std::chrono::minutes(15)) std::filesystem::remove(p, ec);
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Candidate& a, const Candidate& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  size_t dropped = 0;
  for (const Candidate& c : entries) {
    if (total <= max_bytes_) break;
    if (std::filesystem::remove(c.path, ec)) {
      total -= c.size;
      ++dropped;
    }
  }
  evicted_ += dropped;
  approx_bytes_ = total;
  if (dropped > 0) {
    PIM_LOG(Debug) << "dse cache: evicted " << dropped << " oldest entr"
                   << (dropped == 1 ? "y" : "ies") << " to stay under " << max_bytes_
                   << " bytes";
  }
}

std::string ResultCache::entry_path(const std::string& key) const {
  return dir_ + "/" + strformat("%016llx", static_cast<unsigned long long>(fnv1a64(key))) +
         ".json";
}

void ResultCache::quarantine(const std::string& path, const std::string& why) {
  // Move the corrupt entry aside rather than deleting it: the `.bad` file is
  // evidence for debugging, is ignored by lookups and eviction scans (not
  // `.json`), and renaming is atomic so concurrent readers see either the
  // old entry or nothing — never a half-removed file.
  std::error_code ec;
  std::filesystem::rename(path, path + ".bad", ec);
  if (ec) std::filesystem::remove(path, ec);
  ++quarantined_;
  if (quarantined_counter_ != nullptr) quarantined_counter_->add();
  PIM_LOG(Warn) << "dse cache: quarantined corrupt entry " << path << " (" << why << ")";
}

bool ResultCache::load_document(const std::string& key, json::Value* out) {
  if (!enabled()) return false;
  const std::string path = entry_path(key);
  std::string contents;
  {
    // "Cannot open" is a plain miss, not corruption: a concurrent process
    // may have evicted the entry between our hash and our read.
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    contents = ss.str();
  }
  try {
    json::Value v = json::parse(contents);
    if (v.contains("checksum")) {
      // The checksum covers the entry as written minus the checksum field
      // itself; dumps are deterministic, so re-serializing the parsed value
      // reproduces the original payload byte for byte — unless the file was
      // truncated or bit-flipped, in which case the parse already failed or
      // the payload no longer matches.
      const std::string want = v.get_or("checksum", "");
      v.as_object().erase("checksum");
      if (checksum_hex(v.dump(2)) != want) {
        throw json::Error("payload checksum mismatch");
      }
    }
    if (v.get_or("key", "") != key) return false;  // hash collision -> miss
    v.as_object().erase("key");
    *out = std::move(v);
    return true;
  } catch (const std::exception& e) {
    quarantine(path, e.what());
    return false;
  }
}

bool ResultCache::load(const std::string& key, EvaluatedPoint* out) {
  json::Value v;
  if (!load_document(key, &v)) return false;
  try {
    // Entries written before the feasible flag existed default to true (only
    // feasible points were cached then).
    out->feasible = v.get_or("feasible", true);
    out->ok = v.get_or("ok", false);
    out->error = v.get_or("error", "");
    out->metrics = Metrics::from_json(v.at("metrics"));
    return true;
  } catch (const std::exception& e) {
    // Parsed and checksummed but the wrong shape (e.g. no metrics): still a
    // corrupt entry from this consumer's point of view.
    quarantine(entry_path(key), e.what());
    return false;
  }
}

void ResultCache::store(const std::string& key, const EvaluatedPoint& p) {
  json::Value v;
  v["label"] = json::Value(p.label);
  v["feasible"] = json::Value(p.feasible);
  v["ok"] = json::Value(p.ok);
  if (!p.error.empty()) v["error"] = json::Value(p.error);
  v["metrics"] = p.metrics.to_json();
  store_document(key, std::move(v));
}

void ResultCache::store_document(const std::string& key, json::Value v) {
  if (!enabled()) return;
  v["key"] = json::Value(key);
  const std::string payload_sum = checksum_hex(v.dump(2));
  v["checksum"] = json::Value(payload_sum);
  const std::string path = entry_path(key);
  // Unique-per-process temp name + atomic rename: a reader (or the eviction
  // scan, which only considers `.json` files) can never observe a partial
  // entry, and a writer killed mid-write leaves only a stale temp file that
  // trim() garbage-collects.
  const std::string tmp = path + strformat(".tmp%llu", static_cast<unsigned long long>(process_id()));
  try {
    if (testing::failpoint_hit("cache_write")) {
      throw std::runtime_error("failpoint cache_write");
    }
    if (testing::failpoint_hit("cache_truncate")) {
      // Simulate a torn non-atomic write: half the entry lands at the final
      // path. load() must quarantine it, never serve it.
      const std::string text = v.dump(2);
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(text.data(), static_cast<std::streamsize>(text.size() / 2));
      return;
    }
    json::write_file(tmp, v);
    std::filesystem::rename(tmp, path);
  } catch (const std::exception& e) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    PIM_LOG(Warn) << "dse cache: cannot write " << path << ": " << e.what();
    return;
  }
  if (max_bytes_ > 0) {
    std::error_code ec;
    approx_bytes_ += std::filesystem::file_size(path, ec);
    if (approx_bytes_ > max_bytes_) trim();
  }
}

}  // namespace pim::dse
