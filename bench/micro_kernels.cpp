// Microbenchmarks (google-benchmark) of the framework's hot substrates:
// the discrete-event kernel (event throughput, resource handoff, process
// spawn), ISA encode/decode, JSON parsing, and the compiler front end.
// These bound the simulation rate: one simulated instruction costs a handful
// of kernel events.
#include <benchmark/benchmark.h>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "isa/isa.h"
#include "json/json.h"
#include "nn/models.h"
#include "sim/kernel.h"

namespace {

using namespace pim;

// ---------------------------------------------------------------- DES kernel

void BM_KernelCallback(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel k;
    uint64_t counter = 0;
    for (int i = 0; i < 1000; ++i) {
      k.call_at(static_cast<sim::Time>(i), [&counter] { ++counter; });
    }
    k.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KernelCallback);

sim::Process delay_chain(sim::Kernel& k, int hops, uint64_t& out) {
  for (int i = 0; i < hops; ++i) {
    co_await k.delay(1);
    ++out;
  }
}

void BM_KernelCoroutineDelays(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel k;
    uint64_t counter = 0;
    k.spawn(delay_chain(k, 1000, counter));
    k.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KernelCoroutineDelays);

sim::Process contender(sim::Kernel& k, sim::Resource& r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await r.acquire();
    co_await k.delay(1);
    r.release();
  }
}

void BM_KernelResourceHandoff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel k;
    sim::Resource r(k, 1);
    for (int p = 0; p < 8; ++p) k.spawn(contender(k, r, 128));
    k.run();
    benchmark::DoNotOptimize(k.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 128);
}
BENCHMARK(BM_KernelResourceHandoff);

// ----------------------------------------------------------------------- ISA

void BM_IsaEncodeDecode(benchmark::State& state) {
  isa::Instruction in;
  in.op = isa::Opcode::MVM;
  in.group = 7;
  in.dst_addr = 0x1234;
  in.src1_addr = 0x4000;
  in.len = 128;
  for (auto _ : state) {
    isa::EncodedInstruction enc = isa::encode(in);
    isa::Instruction dec = isa::decode(enc);
    benchmark::DoNotOptimize(dec);
  }
}
BENCHMARK(BM_IsaEncodeDecode);

// ---------------------------------------------------------------------- JSON

void BM_JsonRoundTrip(benchmark::State& state) {
  const json::Value cfg = config::ArchConfig::preset("paper").to_json();
  const std::string text = cfg.dump(2);
  for (auto _ : state) {
    json::Value v = json::parse(text);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_JsonRoundTrip);

// ------------------------------------------------------------------ compiler

void BM_CompileTinyCnn(benchmark::State& state) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  mopt.init_params = false;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  compiler::CompileOptions copts;
  copts.include_weights = false;
  for (auto _ : state) {
    isa::Program p = compiler::compile(net, cfg, copts);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_CompileTinyCnn);

void BM_MapAlexnet(benchmark::State& state) {
  nn::ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  nn::Graph net = nn::build_alexnet(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  for (auto _ : state) {
    compiler::Mapping m =
        compiler::plan_mapping(net, cfg, compiler::MappingPolicy::PerformanceFirst);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MapAlexnet);

}  // namespace

BENCHMARK_MAIN();
