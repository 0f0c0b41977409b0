// Crash-safety and fault-isolation battery: failpoints, the append-only
// journal, the durable result cache (checksums + quarantine), the wall-clock
// watchdog, BatchRunner retry/cancel behavior, and resumable explorations
// (the "kill -9 then --resume is byte-identical" contract).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/failpoint.h"
#include "common/journal.h"
#include "config/arch_config.h"
#include "dse/cache.h"
#include "dse/explorer.h"
#include "dse/search_space.h"
#include "runtime/batch_runner.h"
#include "sim/kernel.h"
#include "telemetry/telemetry.h"
#include "workload/workload.h"

namespace pim {
namespace {

/// Every test that arms failpoints runs under this guard so an assertion
/// failure can never leak an armed site into later cases.
struct FailpointGuard {
  FailpointGuard() { testing::clear_failpoints(); }
  ~FailpointGuard() { testing::clear_failpoints(); }
};

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "pim_robust_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file_raw(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

// ------------------------------------------------------------- failpoints

TEST(Failpoint, WindowSemanticsAndClear) {
  FailpointGuard guard;
  EXPECT_FALSE(testing::failpoint_hit("unarmed_site"));

  testing::arm_failpoint("site", /*from=*/2, /*count=*/2);
  EXPECT_FALSE(testing::failpoint_hit("site"));  // hit 1: before the window
  EXPECT_TRUE(testing::failpoint_hit("site"));   // hit 2
  EXPECT_TRUE(testing::failpoint_hit("site"));   // hit 3
  EXPECT_FALSE(testing::failpoint_hit("site"));  // hit 4: window passed

  testing::arm_failpoint("once");  // defaults: fail exactly the first hit
  EXPECT_TRUE(testing::failpoint_hit("once"));
  EXPECT_FALSE(testing::failpoint_hit("once"));

  testing::arm_failpoint("cleared");
  testing::clear_failpoints();
  EXPECT_FALSE(testing::failpoint_hit("cleared"));
}

TEST(Failpoint, SpecParsing) {
  FailpointGuard guard;
  ASSERT_TRUE(testing::arm_from_spec("a, b:3 ,c:2:5"));
  EXPECT_TRUE(testing::failpoint_hit("a"));
  EXPECT_FALSE(testing::failpoint_hit("b"));  // fires on hit 3 only
  EXPECT_FALSE(testing::failpoint_hit("b"));
  EXPECT_TRUE(testing::failpoint_hit("b"));
  EXPECT_FALSE(testing::failpoint_hit("c"));  // window [2, 7)
  EXPECT_TRUE(testing::failpoint_hit("c"));

  EXPECT_FALSE(testing::arm_from_spec("bad:x"));
  EXPECT_FALSE(testing::arm_from_spec(":1"));
  EXPECT_FALSE(testing::arm_from_spec("too:1:2:3"));
}

// ---------------------------------------------------------------- journal

json::Value record(int i) {
  json::Value r;
  r["i"] = json::Value(static_cast<int64_t>(i));
  return r;
}

TEST(Journal, RoundTripAndResume) {
  const std::string path = fresh_path("journal_roundtrip");
  {
    journal::Journal j;
    EXPECT_EQ(j.open(path, "fp", nullptr), 0u);
    for (int i = 0; i < 3; ++i) j.append(record(i));
    j.flush();
  }
  std::vector<int64_t> seen;
  journal::Journal j;
  EXPECT_EQ(j.open(path, "fp",
                   [&seen](const json::Value& v) { seen.push_back(v.at("i").as_int()); }),
            3u);
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(j.discarded(), 0u);
}

TEST(Journal, RefusesForeignFingerprint) {
  const std::string path = fresh_path("journal_foreign");
  {
    journal::Journal j;
    j.open(path, "fingerprint-a", nullptr);
    j.append(record(1));
  }
  journal::Journal j;
  EXPECT_THROW(j.open(path, "fingerprint-b", nullptr), std::runtime_error);
}

TEST(Journal, PartialTailIsTruncatedThenAppendable) {
  const std::string path = fresh_path("journal_partial");
  {
    journal::Journal j;
    j.open(path, "fp", nullptr);
    j.append(record(0));
    j.append(record(1));
  }
  // Simulate a crash mid-append: garbage with no trailing newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "deadbeef partial";
  }
  {
    journal::Journal j;
    EXPECT_EQ(j.open(path, "fp", nullptr), 2u);
    EXPECT_EQ(j.discarded(), 1u);
    j.append(record(2));  // recovery leaves the file positioned for append
  }
  journal::Journal j;
  EXPECT_EQ(j.open(path, "fp", nullptr), 3u);
  EXPECT_EQ(j.discarded(), 0u);
}

TEST(Journal, CorruptMiddleLineCondemnsTheTail) {
  const std::string path = fresh_path("journal_corrupt");
  {
    journal::Journal j;
    j.open(path, "fp", nullptr);
    for (int i = 0; i < 3; ++i) j.append(record(i));
  }
  // Flip one payload byte of the second record (line 2; line 0 is the
  // header). The checksum no longer matches, so that line and everything
  // after it must be discarded — append-only means later offsets are suspect.
  std::string contents = read_file(path);
  size_t line_start = 0;
  for (int line = 0; line < 2; ++line) line_start = contents.find('\n', line_start) + 1;
  contents[contents.find('{', line_start) + 1] = '!';
  write_file_raw(path, contents);

  journal::Journal j;
  EXPECT_EQ(j.open(path, "fp", nullptr), 1u);
  EXPECT_EQ(j.discarded(), 2u);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(_WIN32)
TEST(JournalDeathTest, KillMidAppendLosesOnlyTheTornRecord) {
  const std::string path = fresh_path("journal_kill9");
  {
    journal::Journal j;
    j.open(path, "fp", nullptr);
    j.append(record(1));
    j.flush();
  }
  // The failpoint writes half the record line, fsyncs, then raise(SIGKILL) —
  // a faithful kill -9 mid-write. The child dies; the file survives.
  EXPECT_EXIT(
      {
        journal::Journal j;
        j.open(path, "fp", nullptr);
        testing::arm_failpoint("journal_crash");
        j.append(record(2));
      },
      ::testing::KilledBySignal(SIGKILL), "");

  size_t replayed = 0;
  journal::Journal j;
  j.open(path, "fp", [&replayed](const json::Value&) { ++replayed; });
  EXPECT_EQ(replayed, 1u) << "the fsync'd record must survive the kill";
  EXPECT_EQ(j.discarded(), 1u) << "the torn half-record must be discarded";
}
#endif

// ----------------------------------------------------------- result cache

dse::EvaluatedPoint sample_point(double latency_ms) {
  dse::EvaluatedPoint p;
  p.label = "pt";
  p.feasible = true;
  p.ok = true;
  p.metrics.latency_ms = latency_ms;
  p.metrics.energy_uj = 2.5;
  p.metrics.instructions = 42;
  return p;
}

std::string single_entry_path(const std::string& dir) {
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".json") return e.path().string();
  }
  return "";
}

TEST(DurableCache, EntriesCarryAChecksum) {
  const std::string dir = fresh_path("cache_checksum");
  dse::ResultCache cache(dir);
  cache.store("key-1", sample_point(1.5));

  dse::EvaluatedPoint out;
  ASSERT_TRUE(cache.load("key-1", &out));
  EXPECT_TRUE(out.feasible);
  EXPECT_TRUE(out.ok);
  EXPECT_DOUBLE_EQ(out.metrics.latency_ms, 1.5);
  EXPECT_EQ(out.metrics.instructions, 42u);

  const std::string entry = single_entry_path(dir);
  ASSERT_FALSE(entry.empty());
  EXPECT_NE(read_file(entry).find("\"checksum\""), std::string::npos);
}

TEST(DurableCache, CorruptEntryIsQuarantinedAndRecomputed) {
  const std::string dir = fresh_path("cache_corrupt");
  telemetry::Registry reg;
  dse::ResultCache cache(dir);
  cache.set_metrics(&reg);
  cache.store("key-1", sample_point(1.5));

  // Flip the stored latency: the file still parses, but the payload no
  // longer matches its checksum.
  const std::string entry = single_entry_path(dir);
  ASSERT_FALSE(entry.empty());
  std::string contents = read_file(entry);
  const size_t pos = contents.find("1.5");
  ASSERT_NE(pos, std::string::npos);
  contents.replace(pos, 3, "9.5");
  write_file_raw(entry, contents);

  dse::EvaluatedPoint out;
  EXPECT_FALSE(cache.load("key-1", &out)) << "a corrupt entry must miss, never serve";
  EXPECT_EQ(cache.quarantined(), 1u);
  EXPECT_EQ(reg.counter("dse.cache_quarantined").value(), 1u);
  EXPECT_FALSE(std::filesystem::exists(entry)) << "corrupt entry must be moved aside";
  EXPECT_TRUE(std::filesystem::exists(entry + ".bad")) << "quarantine keeps the evidence";

  // Recompute path: a fresh store of the same key works again.
  cache.store("key-1", sample_point(1.5));
  EXPECT_TRUE(cache.load("key-1", &out));
  EXPECT_EQ(cache.quarantined(), 1u);
}

TEST(DurableCache, TruncatedWriteIsQuarantined) {
  FailpointGuard guard;
  const std::string dir = fresh_path("cache_truncated");
  dse::ResultCache cache(dir);
  testing::arm_failpoint("cache_truncate");
  cache.store("key-1", sample_point(1.5));  // lands torn at the final path
  testing::clear_failpoints();

  dse::EvaluatedPoint out;
  EXPECT_FALSE(cache.load("key-1", &out));
  EXPECT_EQ(cache.quarantined(), 1u);

  cache.store("key-1", sample_point(1.5));
  EXPECT_TRUE(cache.load("key-1", &out));
}

TEST(DurableCache, WriteFailureIsSwallowed) {
  FailpointGuard guard;
  const std::string dir = fresh_path("cache_writefail");
  dse::ResultCache cache(dir);
  testing::arm_failpoint("cache_write");
  EXPECT_NO_THROW(cache.store("key-1", sample_point(1.5)));
  testing::clear_failpoints();

  dse::EvaluatedPoint out;
  EXPECT_FALSE(cache.load("key-1", &out));  // nothing landed — plain miss
  EXPECT_EQ(cache.quarantined(), 0u);
}

TEST(DurableCache, VanishedEntryIsAPlainMissNotCorruption) {
  const std::string dir = fresh_path("cache_vanished");
  dse::ResultCache cache(dir);
  dse::EvaluatedPoint out;
  EXPECT_FALSE(cache.load("never-stored", &out));
  EXPECT_EQ(cache.quarantined(), 0u);
}

// ----------------------------------------------------- wall-clock watchdog

sim::Process ticker(sim::Kernel& k, int n) {
  for (int i = 0; i < n; ++i) co_await k.delay(1);
}

TEST(WallWatchdog, ExpiredDeadlineAbandonsTheRun) {
  sim::Kernel k;
  constexpr int kTicks = 1 << 20;
  k.spawn(ticker(k, kTicks));
  k.arm_wall_watchdog(std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  k.run();
  EXPECT_TRUE(k.wall_expired());
  EXPECT_GT(k.live_process_count(), 0u) << "the run must be abandoned mid-flight";
  EXPECT_LT(k.events_executed(), static_cast<uint64_t>(kTicks));
}

TEST(WallWatchdog, GenerousDeadlineRunsToCompletion) {
  sim::Kernel k;
  k.spawn(ticker(k, 1000));
  k.arm_wall_watchdog(std::chrono::steady_clock::now() + std::chrono::seconds(60));
  k.run();
  EXPECT_FALSE(k.wall_expired());
  EXPECT_EQ(k.live_process_count(), 0u);
}

// --------------------------------------------- BatchRunner fault isolation

runtime::Scenario mlp_scenario() {
  runtime::Scenario s;
  s.workload = workload::WorkloadSpec::mlp(/*input_hw=*/8);
  s.arch = config::ArchConfig::preset("tiny");
  s.functional = false;
  s.name = s.derive_name();
  return s;
}

TEST(BatchFaults, TransientFailureIsRetriedToSuccess) {
  FailpointGuard guard;
  testing::arm_failpoint("scenario_transient");  // first attempt fails
  telemetry::Registry reg;
  runtime::BatchRunner runner(1);
  runner.set_metrics(&reg);
  runner.set_retry(/*max_retries=*/2, /*backoff_ms=*/1);
  const runtime::BatchResult res = runner.run({mlp_scenario()});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_TRUE(res.results[0].ok) << res.results[0].error;
  EXPECT_EQ(res.results[0].retries, 1u);
  EXPECT_EQ(reg.counter("batch.retries").value(), 1u);
  // A successful-after-retry scenario reports its retry count in JSON.
  EXPECT_EQ(res.results[0].to_json().at("retries").as_int(), 1);
}

TEST(BatchFaults, RetriesExhaustedReportAStructuredFailure) {
  FailpointGuard guard;
  testing::arm_failpoint("scenario_transient", 1, 999);  // never recovers
  runtime::BatchRunner runner(1);
  runner.set_retry(/*max_retries=*/1, /*backoff_ms=*/1);
  const runtime::BatchResult res = runner.run({mlp_scenario()});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_FALSE(res.results[0].ok);
  EXPECT_EQ(res.results[0].retries, 1u);
  EXPECT_EQ(res.results[0].fail_kind, runtime::FailKind::Exception);
  const json::Value v = res.results[0].to_json();
  EXPECT_EQ(v.get_or("fail_kind", ""), "exception");
  EXPECT_NE(v.get_or("error", "").find("scenario_transient"), std::string::npos);
}

TEST(BatchFaults, NoRetryWithoutOptIn) {
  FailpointGuard guard;
  testing::arm_failpoint("scenario_transient");
  runtime::BatchRunner runner(1);  // default: max_retries = 0
  const runtime::BatchResult res = runner.run({mlp_scenario()});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_FALSE(res.results[0].ok);
  EXPECT_EQ(res.results[0].retries, 0u);
}

TEST(BatchFaults, TransientGraphResolveIsRetried) {
  FailpointGuard guard;
  testing::arm_failpoint("graph_resolve");  // first resolve attempt fails
  runtime::BatchRunner runner(1);
  runner.set_retry(/*max_retries=*/1, /*backoff_ms=*/1);
  const runtime::BatchResult res = runner.run({mlp_scenario()});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_TRUE(res.results[0].ok) << res.results[0].error;
}

TEST(BatchFaults, AResolveErrorIsRetriedOnceNotAgainPerScenario) {
  // The resolve never recovers: its retries are spent in the prefetch pass,
  // and the scenario fails on that error without replaying it.
  FailpointGuard guard;
  testing::arm_failpoint("graph_resolve", 1, 999);
  testing::arm_failpoint("scenario_transient", 1, 999);  // must never be reached
  telemetry::Registry reg;
  runtime::BatchRunner runner(1);
  runner.set_metrics(&reg);
  runner.set_retry(/*max_retries=*/3, /*backoff_ms=*/1);
  const runtime::BatchResult res = runner.run({mlp_scenario()});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_FALSE(res.results[0].ok);
  EXPECT_EQ(res.results[0].fail_kind, runtime::FailKind::Exception);
  EXPECT_NE(res.results[0].error.find("graph_resolve"), std::string::npos);
  EXPECT_EQ(res.results[0].retries, 3u);
  EXPECT_EQ(reg.counter("batch.retries").value(), 3u);
  EXPECT_EQ(res.results[0].to_json().at("retries").as_int(), 3);
  // The retries' backoff is serial work the batch did before any scenario.
  EXPECT_GT(res.prefetch_ms, 0.0);
  EXPECT_GT(res.serial_ms(), 0.0);
  EXPECT_GT(res.speedup(), 0.0);
}

runtime::Scenario graph_file_scenario(const std::string& path) {
  runtime::Scenario s;
  s.workload = workload::WorkloadSpec::graph_file(path);
  s.arch = config::ArchConfig::preset("tiny");
  s.name = s.derive_name();
  return s;
}

TEST(BatchFaults, AMalformedGraphFileIsNotRetriedAndAVanishedOneIs) {
  const std::string malformed = fresh_path("malformed_graph.json");
  std::ofstream(malformed) << "{\"layers\": [";
  const std::string vanished = fresh_path("vanished_graph.json");
  telemetry::Registry reg;
  runtime::BatchRunner runner(1);
  runner.set_metrics(&reg);
  runner.set_retry(/*max_retries=*/2, /*backoff_ms=*/1);

  const runtime::BatchResult bad = runner.run({graph_file_scenario(malformed)});
  ASSERT_EQ(bad.results.size(), 1u);
  EXPECT_FALSE(bad.results[0].ok);
  EXPECT_EQ(bad.results[0].retries, 0u) << bad.results[0].error;
  EXPECT_EQ(reg.counter("batch.retries").value(), 0u);

  const runtime::BatchResult gone = runner.run({graph_file_scenario(vanished)});
  ASSERT_EQ(gone.results.size(), 1u);
  EXPECT_FALSE(gone.results[0].ok);
  EXPECT_EQ(gone.results[0].retries, 2u) << gone.results[0].error;
  EXPECT_EQ(reg.counter("batch.retries").value(), 2u);
  std::filesystem::remove(malformed);
}

TEST(BatchFaults, CancelledBatchSkipsUnclaimedScenarios) {
  std::atomic<bool> stop{true};  // cancelled before any scenario starts
  runtime::BatchRunner runner(1);
  runner.set_cancel(&stop);
  const runtime::BatchResult res = runner.run({mlp_scenario(), mlp_scenario()});
  EXPECT_TRUE(res.interrupted);
  ASSERT_EQ(res.results.size(), 2u);
  for (const runtime::ScenarioResult& r : res.results) {
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.skipped);
    EXPECT_FALSE(r.name.empty()) << "skipped slots keep their identity";
    EXPECT_TRUE(r.to_json().get_or("skipped", false));
  }
  EXPECT_TRUE(res.to_json().get_or("interrupted", false));
}

TEST(BatchFaults, WallWatchdogKillsARunawayScenario) {
  // A cycle-accurate 32x32 tiny_cnn run takes far longer than 1 ms of host
  // time, so the watchdog must fire; WallTimeout is machine-local, so it must
  // not be retried even with retries enabled.
  runtime::Scenario s;
  s.workload = workload::WorkloadSpec::builtin("tiny_cnn", /*input_hw=*/32);
  s.arch = config::ArchConfig::preset("tiny");
  s.functional = false;
  s.name = s.derive_name();

  telemetry::Registry reg;
  runtime::BatchRunner runner(1);
  runner.set_metrics(&reg);
  runner.set_retry(/*max_retries=*/2, /*backoff_ms=*/1);
  runner.set_scenario_timeout_ms(1);
  const runtime::BatchResult res = runner.run({s});
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_FALSE(res.results[0].ok);
  EXPECT_EQ(res.results[0].fail_kind, runtime::FailKind::WallTimeout);
  EXPECT_EQ(res.results[0].retries, 0u) << "wall timeouts are not transient";
  EXPECT_NE(res.results[0].error.find("watchdog"), std::string::npos);
  EXPECT_GE(reg.counter("batch.watchdog_kills").value(), 1u);
  EXPECT_EQ(res.results[0].to_json().get_or("fail_kind", ""), "wall_timeout");
}

// ------------------------------------------------------ resumable explore

dse::SearchSpace explore_space() {
  return dse::SearchSpace::from_json(json::parse(R"({
    "name": "robustness-space",
    "base": "tiny",
    "model": "mlp",
    "input_hw": 8,
    "knobs": {
      "rob_size": [4, 8],
      "adcs_per_core": [2, 4],
      "batch": [1, 2]
    }
  })"));
}

dse::ExploreOptions explore_opts(size_t budget, const std::string& journal_path) {
  dse::ExploreOptions o;
  o.sampler = "random";
  o.budget = budget;
  o.seed = 3;
  o.jobs = 2;
  o.journal_path = journal_path;
  return o;
}

TEST(ResumableExplore, ReplayedRunIsByteIdentical) {
  const dse::SearchSpace space = explore_space();
  const std::string jpath = fresh_path("explore_journal");

  const dse::ExploreResult first = dse::explore(space, explore_opts(6, jpath));
  EXPECT_FALSE(first.interrupted);
  EXPECT_EQ(first.journal_replayed, 0u);
  ASSERT_EQ(first.points.size(), 6u);

  // Second run with the same journal: everything replays, nothing simulates,
  // and the output is byte-for-byte the same.
  const dse::ExploreResult resumed = dse::explore(space, explore_opts(6, jpath));
  EXPECT_EQ(resumed.journal_replayed, 6u);
  EXPECT_EQ(resumed.to_json().dump(2), first.to_json().dump(2));

  // And both match a journal-less reference run.
  const dse::ExploreResult reference = dse::explore(space, explore_opts(6, ""));
  EXPECT_EQ(reference.to_json().dump(2), first.to_json().dump(2));
  EXPECT_FALSE(first.to_json().contains("interrupted"));
}

TEST(ResumableExplore, PartialJournalSeedsALargerRun) {
  const dse::SearchSpace space = explore_space();
  const std::string jpath = fresh_path("explore_journal_partial");

  // "Crashed" run: only 3 of 6 points made it into the journal. The budget is
  // excluded from the journal fingerprint precisely so this resume works.
  const dse::ExploreResult partial = dse::explore(space, explore_opts(3, jpath));
  ASSERT_EQ(partial.points.size(), 3u);

  const dse::ExploreResult resumed = dse::explore(space, explore_opts(6, jpath));
  EXPECT_EQ(resumed.journal_replayed, 3u);
  ASSERT_EQ(resumed.points.size(), 6u);

  const dse::ExploreResult reference = dse::explore(space, explore_opts(6, ""));
  EXPECT_EQ(resumed.to_json().dump(2), reference.to_json().dump(2))
      << "a resumed run must be byte-identical to an uninterrupted one";
}

TEST(ResumableExplore, ForeignJournalIsRefused) {
  const dse::SearchSpace space = explore_space();
  const std::string jpath = fresh_path("explore_journal_foreign");
  dse::explore(space, explore_opts(3, jpath));

  dse::ExploreOptions other = explore_opts(3, jpath);
  other.seed = 4;  // a different exploration: different point stream
  EXPECT_THROW(dse::explore(space, other), std::runtime_error);
}

TEST(ResumableExplore, PreCancelledRunIsInterrupted) {
  const dse::SearchSpace space = explore_space();
  std::atomic<bool> stop{true};
  dse::ExploreOptions o = explore_opts(6, "");
  o.cancel = &stop;
  const dse::ExploreResult res = dse::explore(space, o);
  EXPECT_TRUE(res.interrupted);
  EXPECT_TRUE(res.points.empty());
  EXPECT_TRUE(res.to_json().get_or("interrupted", false));
}

}  // namespace
}  // namespace pim
