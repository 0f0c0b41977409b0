// Unit tests for pim::telemetry — the trace sink and metrics registry every
// layer above the kernel reports into. These pin down the serialization
// contract (metadata-first, timestamp-sorted, microsecond conversion), the
// id-interning rules the instrumentation sites rely on (tid 0 = untraced
// sentinel), the null-sink no-op paths, and snapshot determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace pim::telemetry {
namespace {

// ------------------------------------------------------------------ TraceSink

TEST(TraceSink, PidAndTidInterning) {
  TraceSink sink;
  const uint32_t p1 = sink.pid("chip");
  const uint32_t p2 = sink.pid("chip");  // pids are never interned
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, 1u);  // 0 stays free as the untraced sentinel

  const uint32_t t1 = sink.tid(p1, "core0/matrix");
  EXPECT_EQ(sink.tid(p1, "core0/matrix"), t1);  // same (pid, name) -> same tid
  EXPECT_NE(sink.tid(p1, "core0/vector"), t1);
  EXPECT_NE(sink.tid(p2, "core0/matrix"), t1);  // same name, other pid
  EXPECT_GE(t1, 1u);
}

TEST(TraceSink, EventsWithSentinelTidAreDropped) {
  TraceSink sink;
  const uint32_t p = sink.pid("chip");
  const uint32_t t = sink.tid(p, "lane");
  sink.complete(0, "dropped", 0, 10);
  sink.instant(0, "dropped", 5);
  sink.counter(0, "dropped", 1.0, 5);
  EXPECT_EQ(sink.event_count(), 0u);
  sink.complete(t, "kept", 0, 10);
  EXPECT_EQ(sink.event_count(), 1u);
}

TEST(TraceSink, ToJsonPutsMetadataFirstAndSortsByTimestamp) {
  TraceSink sink;
  const uint32_t p = sink.pid("chip");
  const uint32_t t = sink.tid(p, "lane");
  // Emitted out of chronological order, as instruction X events are.
  sink.complete(t, "late", 3'000'000, 1'000'000);
  sink.complete(t, "early", 1'000'000, 500'000);
  sink.instant(t, "mid", 2'000'000);

  const json::Value doc = sink.to_json();
  const json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 5u);  // process_name + thread_name + 3 events
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("name").as_string(), "process_name");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "chip");
  EXPECT_EQ(events[1].at("ph").as_string(), "M");
  EXPECT_EQ(events[1].at("args").at("name").as_string(), "lane");
  // Sorted by ts, converted ps -> us.
  EXPECT_EQ(events[2].at("name").as_string(), "early");
  EXPECT_DOUBLE_EQ(events[2].at("ts").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(events[2].at("dur").as_double(), 0.5);
  EXPECT_EQ(events[3].at("name").as_string(), "mid");
  EXPECT_EQ(events[3].at("ph").as_string(), "i");
  EXPECT_EQ(events[4].at("name").as_string(), "late");
}

TEST(TraceSink, BeginEndKeepEmissionOrderAtEqualTimestamps) {
  TraceSink sink;
  const uint32_t t = sink.tid(sink.pid("chip"), "lane");
  sink.begin(t, "zero_width", 7);
  sink.end(t, 7);  // same ts: stable sort must keep B before E
  const json::Value doc = sink.to_json();
  const json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].at("ph").as_string(), "B");
  EXPECT_EQ(events[3].at("ph").as_string(), "E");
}

TEST(TraceSink, CounterEventCarriesValueInArgs) {
  TraceSink sink;
  const uint32_t t = sink.tid(sink.pid("chip"), "resource");
  sink.counter(t, "queue", 3.0, 42);
  const json::Value doc = sink.to_json();
  const json::Array& events = doc.at("traceEvents").as_array();
  const json::Value& c = events.back();
  EXPECT_EQ(c.at("ph").as_string(), "C");
  EXPECT_DOUBLE_EQ(c.at("args").at("value").as_double(), 3.0);
}

TEST(TraceSink, ScopedSpanEmitsOneCompleteEventAndNullSinkIsNoOp) {
  TraceSink sink;
  const uint32_t t = sink.tid(sink.pid("chip"), "lane");
  uint64_t fake_now = 100;
  {
    ScopedSpan span(&sink, t, "work", [&] { return fake_now; });
    fake_now = 250;
  }
  ASSERT_EQ(sink.event_count(), 1u);
  const json::Value doc = sink.to_json();
  const json::Value& ev = doc.at("traceEvents").as_array().back();
  EXPECT_EQ(ev.at("name").as_string(), "work");
  EXPECT_DOUBLE_EQ(ev.at("dur").as_double(), 150e-6);  // 150 ps in us

  {
    ScopedSpan span(static_cast<TraceSink*>(nullptr), t, "ignored",
                    [&] { return fake_now; });
  }
  HostSpan null_host(nullptr, t, "ignored");
  null_host.close();
  EXPECT_EQ(sink.event_count(), 1u);
}

TEST(TraceSink, HostSpanUsesHostClock) {
  TraceSink sink;
  const uint32_t t = sink.tid(sink.pid("host"), "worker0");
  { HostSpan span(&sink, t, "scenario"); }
  ASSERT_EQ(sink.event_count(), 1u);
  const json::Value doc = sink.to_json();
  const json::Value& ev = doc.at("traceEvents").as_array().back();
  EXPECT_EQ(ev.at("ph").as_string(), "X");
  EXPECT_GE(ev.at("dur").as_double(), 0.0);
}

TEST(TraceSink, WriteRoundTripsThroughParser) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pim_telemetry_test.json").string();
  TraceSink sink;
  const uint32_t t = sink.tid(sink.pid("chip"), "lane");
  sink.complete(t, "work", 0, 1000);
  sink.write(path);
  const json::Value doc = json::parse_file(path);
  EXPECT_EQ(doc.at("traceEvents").as_array().size(), 3u);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------------- metrics

TEST(Registry, CounterGaugeBasics) {
  Registry reg;
  Counter& c = reg.counter("hits");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("hits").value(), 5u);  // same name -> same instrument
  reg.gauge("depth").set(3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 3.5);
}

TEST(Registry, StableReferences) {
  Registry reg;
  Counter* first = &reg.counter("a");
  for (int i = 0; i < 64; ++i) reg.counter("name" + std::to_string(i));
  EXPECT_EQ(first, &reg.counter("a"));  // heap-allocated: growth never moves it
}

TEST(Registry, HistogramBucketsAndStats) {
  Histogram h;
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(0), 0.25);
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(1), 1.0);
  EXPECT_TRUE(std::isinf(Histogram::bucket_bound(Histogram::kBuckets - 1)));

  h.record(0.1);
  h.record(2.0);
  h.record(1e12);  // lands in the +inf overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_DOUBLE_EQ(h.sum(), 0.1 + 2.0 + 1e12);

  const json::Value v = h.to_json();
  EXPECT_EQ(v.at("count").as_int(), 3);
  const json::Array& buckets = v.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(buckets.back().at("le").as_string(), "inf");
  uint64_t total = 0;
  for (const json::Value& b : buckets) total += static_cast<uint64_t>(b.at("count").as_int());
  EXPECT_EQ(total, 3u);  // buckets are non-cumulative and partition the input
}

TEST(Registry, SnapshotIsDeterministic) {
  // Two registries fed the same operations in different orders serialize
  // byte-identically (std::map keys) — the property the CI smoke diffs rely
  // on.
  Registry a, b;
  a.counter("z.hits").add(2);
  a.gauge("a.depth").set(1.0);
  a.histogram("m.lat").record(0.5);
  b.histogram("m.lat").record(0.5);
  b.gauge("a.depth").set(1.0);
  b.counter("z.hits").add(2);
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));

  const json::Value v = a.to_json();
  EXPECT_EQ(v.at("counters").at("z.hits").as_int(), 2);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("a.depth").as_double(), 1.0);
  EXPECT_EQ(v.at("histograms").at("m.lat").at("count").as_int(), 1);
}

}  // namespace
}  // namespace pim::telemetry
