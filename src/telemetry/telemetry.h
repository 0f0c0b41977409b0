// pim::telemetry — structured tracing and metrics for the whole framework.
//
// Two halves, both machine-readable:
//
//   * TraceSink — an in-memory recorder of Chrome/Perfetto trace-event JSON
//     (the chrome://tracing "trace event format"): duration (B/E), complete
//     (X), instant (i) and counter (C) events organized as pid = one chip
//     (or the host process), tid = one core unit / NoC link / worker.
//     Timestamps are recorded in picoseconds (the sim::Kernel resolution)
//     and converted to the format's microseconds at serialization time.
//     Events may be emitted out of chronological order (an instruction's X
//     event is emitted at completion with its issue-time timestamp); the
//     sink stable-sorts by timestamp at dump time, so per-thread timestamps
//     are monotonic in the file while same-timestamp emission order (B
//     before E of a zero-width span) is preserved.
//
//   * Registry — named counters / gauges / histograms with a deterministic
//     JSON snapshot. Subsumes the ad-hoc counters scattered through the
//     artifact store, the DSE result cache and the batch runner. Counters
//     are atomic and references returned by the registry are stable, so
//     concurrent BatchRunner workers can hold and bump them lock-free.
//
// Layering: this module depends only on pim::json, so sim/arch/runtime/dse
// may all depend on it. Instrumentation sites hold a nullable TraceSink*;
// tracing-off costs exactly one branch per site (see sim/kernel.h, the
// null-sink fast path the kernel_stress bench keeps honest).
//
// Everything here observes, never schedules: attaching a sink cannot change
// simulated behavior, so order_fingerprint() and Reports are bit-identical
// with tracing on or off.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"

namespace pim::telemetry {

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

/// Thread-safe recorder of trace events. Create one per tool invocation,
/// hand it to the simulation as a nullable pointer, and write() it once at
/// the end.
class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Register a new process row (one per chip / host). Always creates a
  /// fresh pid; the name lands in the file as process_name metadata.
  uint32_t pid(const std::string& name);

  /// Intern a thread row under `p`. The same (pid, name) pair always returns
  /// the same tid; ids are >= 1, so 0 is free as an "untraced" sentinel on
  /// instrumented structures. The sink remembers which pid a tid belongs to,
  /// so event emission takes only the tid.
  uint32_t tid(uint32_t p, const std::string& name);

  // -- event emission (all thread-safe, timestamps in picoseconds) ----------
  void begin(uint32_t tid, std::string name, uint64_t ts_ps);
  void end(uint32_t tid, uint64_t ts_ps);
  void complete(uint32_t tid, std::string name, uint64_t ts_ps, uint64_t dur_ps);
  void instant(uint32_t tid, std::string name, uint64_t ts_ps);
  void counter(uint32_t tid, std::string name, double value, uint64_t ts_ps);

  /// Host-clock timestamp in ps since this sink was constructed — the time
  /// base for host-side spans (BatchRunner workers, tool phases), kept in
  /// the same unit as simulated time so one serializer handles both.
  uint64_t host_now_ps() const;

  size_t event_count() const;

  /// {"traceEvents": [...]} — metadata first, then events stable-sorted by
  /// timestamp. Deterministic for a deterministic emission sequence.
  json::Value to_json() const;
  /// Pretty-printed to_json() at `path`; throws json::Error on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Event {
    char phase;        // 'B', 'E', 'X', 'i', 'C'
    uint32_t pid;
    uint32_t tid;
    uint64_t ts_ps;
    uint64_t dur_ps;   // X only
    double value;      // C only
    std::string name;  // empty on E
  };

  void push(Event e);

  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::vector<std::string> process_names_;            // index = pid - 1
  std::vector<std::pair<uint32_t, std::string>> thread_names_;  // index = tid - 1
  std::map<std::pair<uint32_t, std::string>, uint32_t> tid_by_name_;
  std::chrono::steady_clock::time_point host_epoch_;
};

/// RAII span over an arbitrary clock: records the start on construction and
/// emits one complete (X) event on destruction. `now` is any callable
/// returning the current time in ps — pass `[&] { return kernel.now(); }`
/// for simulated-time spans. A null sink makes the span a no-op.
template <typename NowFn>
class ScopedSpan {
 public:
  ScopedSpan(TraceSink* sink, uint32_t tid, std::string name, NowFn now)
      : sink_(sink), tid_(tid), name_(std::move(name)), now_(std::move(now)) {
    if (sink_ != nullptr) start_ = now_();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (sink_ != nullptr) {
      const uint64_t end = now_();
      sink_->complete(tid_, std::move(name_), start_, end - start_);
    }
  }

 private:
  TraceSink* sink_;
  uint32_t tid_;
  std::string name_;
  NowFn now_;
  uint64_t start_ = 0;
};

/// RAII span over the sink's host clock (steady_clock since construction) —
/// for host-side phases: batch workers, compile/simulate phases in tools.
class HostSpan {
 public:
  HostSpan() = default;
  HostSpan(TraceSink* sink, uint32_t tid, std::string name)
      : sink_(sink), tid_(tid), name_(std::move(name)) {
    if (sink_ != nullptr) start_ = sink_->host_now_ps();
  }
  HostSpan(HostSpan&& o) noexcept
      : sink_(o.sink_), tid_(o.tid_), name_(std::move(o.name_)), start_(o.start_) {
    o.sink_ = nullptr;
  }
  HostSpan& operator=(HostSpan&& o) noexcept {
    if (this != &o) {
      close();
      sink_ = o.sink_;
      tid_ = o.tid_;
      name_ = std::move(o.name_);
      start_ = o.start_;
      o.sink_ = nullptr;
    }
    return *this;
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;
  ~HostSpan() { close(); }

  void close() {
    if (sink_ != nullptr) {
      sink_->complete(tid_, std::move(name_), start_, sink_->host_now_ps() - start_);
      sink_ = nullptr;
    }
  }

 private:
  TraceSink* sink_ = nullptr;
  uint32_t tid_ = 0;
  std::string name_;
  uint64_t start_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Monotonic counter (atomic; lock-free on every target we build for).
class Counter {
 public:
  void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket exponential histogram (base-4 upper bounds from 0.25 up, plus
/// a +inf overflow bucket) with count/sum/min/max. Good enough resolution for
/// the millisecond-scale latencies it records without per-instance bucket
/// configuration.
class Histogram {
 public:
  static constexpr size_t kBuckets = 11;  // 0.25 * 4^i for i in [0,10), then +inf
  static double bucket_bound(size_t i);   // +inf for the last bucket

  void record(double v);

  uint64_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  json::Value to_json() const;

 private:
  mutable std::mutex mutex_;
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics, created on first use. Returned references are stable for
/// the registry's lifetime (instruments are heap-allocated), so hot paths
/// can resolve a name once and keep the pointer.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — std::map
  /// keys, so two registries built by the same sequence of operations
  /// serialize byte-identically.
  json::Value to_json() const;
  /// Pretty-printed to_json() at `path`; throws json::Error on I/O failure.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace pim::telemetry
