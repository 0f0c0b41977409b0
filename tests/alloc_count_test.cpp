// Allocation count of a timing-only simulation in steady state.
//
// This binary replaces the global operator new with a counting one. After a
// warm-up run on the same thread (which fills the coroutine-frame pool), a
// timing-only Chip::run() of vgg8 on the paper preset must make fewer than
// one heap allocation per 100 retired instructions, and its count must not
// grow with the input size: what it allocates is per run (the map entry of
// each layer's stats and of each channel, the cores' layer-stat caches, the
// returned RunStats), never per instruction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "arch/chip.h"
#include "config/arch_config.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The array and nothrow forms forward to these by default, so
// every allocation but an over-aligned one is counted. Out of line, so the
// compiler never pairs an inlined malloc with a free it cannot see through
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pim {
namespace {

struct RunCount {
  uint64_t allocations = 0;
  uint64_t instructions = 0;
};

/// Allocations made inside Chip::run() of a timing-only vgg8 on paper.
RunCount count_run(int32_t input_hw) {
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  cfg.sim.functional = false;
  const workload::BuiltWorkload b =
      workload::build(workload::parse_workload_token("vgg8", input_hw), false);
  const runtime::CompiledNetwork net = runtime::compile_network(b.graph, cfg);
  arch::Chip chip(cfg, net.program);
  g_allocations = 0;
  g_counting = true;
  const arch::RunStats stats = chip.run();
  g_counting = false;
  EXPECT_TRUE(chip.finished());
  return RunCount{g_allocations.load(), stats.total_instructions()};
}

TEST(AllocationCount, TimingOnlyRunAllocatesNothingPerInstruction) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer builds allocate every coroutine frame";
#endif
  count_run(32);  // warm-up: fills this thread's frame pool
  const RunCount small = count_run(16);
  const RunCount large = count_run(32);
  ASSERT_GT(large.instructions, small.instructions);
  EXPECT_LT(small.allocations * 100, small.instructions)
      << small.allocations << " allocations for " << small.instructions << " instructions";
  EXPECT_LT(large.allocations * 100, large.instructions)
      << large.allocations << " allocations for " << large.instructions << " instructions";
  EXPECT_LE(large.allocations, small.allocations)
      << "input 16: " << small.allocations << ", input 32: " << large.allocations;
}

}  // namespace
}  // namespace pim
