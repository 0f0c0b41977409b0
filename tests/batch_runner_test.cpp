// Tests for the parallel scenario driver (runtime::BatchRunner).
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "config/arch_config.h"
#include "runtime/batch_runner.h"
#include "workload/workload.h"

namespace pim {
namespace {

std::vector<runtime::Scenario> small_sweep(bool functional = true) {
  return runtime::expand_sweep(
      {workload::WorkloadSpec::builtin("tiny_cnn", /*input_hw=*/8),
       workload::WorkloadSpec::mlp(/*input_hw=*/8)},
      {compiler::MappingPolicy::PerformanceFirst, compiler::MappingPolicy::UtilizationFirst},
      {1, 2}, config::ArchConfig::preset("tiny"), functional);
}

TEST(ExpandSweep, CrossProductWithUniqueNames) {
  std::vector<runtime::Scenario> sweep = small_sweep();
  ASSERT_EQ(sweep.size(), 8u);  // 2 models x 2 policies x 2 batch sizes
  std::set<std::string> names;
  for (const runtime::Scenario& s : sweep) names.insert(s.name);
  EXPECT_EQ(names.size(), sweep.size()) << "scenario names must be unique";
  EXPECT_TRUE(names.count("tiny_cnn/perf/b1"));
  EXPECT_TRUE(names.count("mlp/util/b2"));
}

TEST(BatchRunner, RunsAllScenariosInInputOrder) {
  std::vector<runtime::Scenario> sweep = small_sweep();
  runtime::BatchResult res = runtime::BatchRunner(4).run(sweep);
  ASSERT_EQ(res.results.size(), sweep.size());
  EXPECT_TRUE(res.all_ok());
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(res.results[i].name, sweep[i].name) << "results must keep input order";
    EXPECT_TRUE(res.results[i].report.finished);
    EXPECT_GT(res.results[i].report.stats.total_ps, 0u);
  }
}

TEST(BatchRunner, ParallelIsBitIdenticalToSerial) {
  std::vector<runtime::Scenario> sweep = small_sweep();
  runtime::BatchResult parallel = runtime::BatchRunner(4).run(sweep);
  runtime::BatchResult serial = runtime::BatchRunner(1).run(sweep);
  ASSERT_TRUE(parallel.all_ok());
  ASSERT_TRUE(serial.all_ok());
  std::vector<std::string> diffs = runtime::compare_results(parallel, serial);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  for (size_t i = 0; i < sweep.size(); ++i) {
    // Spot-check the strongest claims directly, not only via compare_results.
    EXPECT_EQ(parallel.results[i].report.stats.total_ps,
              serial.results[i].report.stats.total_ps);
    EXPECT_EQ(parallel.results[i].report.stats.total_instructions(),
              serial.results[i].report.stats.total_instructions());
    EXPECT_EQ(parallel.results[i].report.output, serial.results[i].report.output);
  }
}

TEST(BatchRunner, FailedScenarioIsCapturedOthersStillRun) {
  std::vector<runtime::Scenario> sweep = small_sweep();
  sweep[2].workload = workload::WorkloadSpec::builtin("no_such_network", 8);
  runtime::BatchResult res = runtime::BatchRunner(2).run(sweep);
  ASSERT_EQ(res.results.size(), sweep.size());
  EXPECT_FALSE(res.all_ok());
  EXPECT_FALSE(res.results[2].ok);
  EXPECT_FALSE(res.results[2].error.empty());
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (i != 2) {
      EXPECT_TRUE(res.results[i].ok) << res.results[i].error;
    }
  }
}

TEST(BatchRunner, ProgressCallbackFiresOncePerScenario) {
  std::vector<runtime::Scenario> sweep = small_sweep(/*functional=*/false);
  runtime::BatchRunner runner(3);
  std::atomic<size_t> calls{0};
  size_t last_total = 0;
  runner.set_progress([&](const runtime::ScenarioResult&, size_t, size_t total) {
    calls.fetch_add(1);
    last_total = total;
  });
  runner.run(sweep);
  EXPECT_EQ(calls.load(), sweep.size());
  EXPECT_EQ(last_total, sweep.size());
}

TEST(BatchResult, EmittersContainEveryScenario) {
  std::vector<runtime::Scenario> sweep = small_sweep(/*functional=*/false);
  runtime::BatchResult res = runtime::BatchRunner(0).run(sweep);
  const std::string md = res.markdown();
  const json::Value js = res.to_json();
  ASSERT_EQ(js.at("scenarios").size(), sweep.size());
  for (size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_NE(md.find(sweep[i].name), std::string::npos) << sweep[i].name;
    EXPECT_EQ(js.at("scenarios").at(i).at("name").as_string(), sweep[i].name);
  }
  EXPECT_GT(js.at("speedup").as_double(), 0.0);
  EXPECT_EQ(js.at("jobs").as_int(), res.jobs);
}

TEST(BatchRunner, ZeroJobsPicksHardwareConcurrency) {
  runtime::BatchRunner runner(0);
  EXPECT_GE(runner.jobs(), 1u);
}

}  // namespace
}  // namespace pim
