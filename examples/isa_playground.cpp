// ISA playground: write PIM assembly by hand, run it on the cycle-accurate
// simulator, inspect results — the "bare metal" view of the framework that
// the compiler normally hides.
//
// The program below runs a 2-core producer/consumer kernel:
//   core 0: computes y = relu(W x + b) on a crossbar group, quantizes to
//           int8 and SENDs it to core 1;
//   core 1: RECVs the vector, max-pools adjacent pairs and stores the result
//           to global memory.
#include <cstdio>
#include <cstring>

#include "arch/chip.h"
#include "config/arch_config.h"
#include "isa/assembler.h"

int main() {
  using namespace pim;

  const char* source = R"(
    .network isa-playground

    .core 0
    .group id=0, in=8, out=8, xbars=1
      # y32 = W @ x          (x preloaded at 0x0 by the host below)
      mvm g0, 0x100, 0x0, len=8
      # y32 += bias          (bias preloaded at 0x200)
      vadd 0x100, 0x100, 0x200, len=8, i32
      # y32 = relu(y32)
      vrelu 0x100, 0x100, 0x0, len=8, i32
      # y8 = sat8(y32 >> 2)
      vquant 0x300, 0x100, imm=2, len=8
      # ship it to core 1
      send core=1, tag=0, 0x300, len=8, i8
      halt

    .core 1
      recv core=0, tag=0, 0x0, len=8, i8
      # pairwise max: out[i] = max(v[2i], v[2i+1]) via two strided views --
      # the ISA has no strided ops, so copy the halves element-wise first.
      vmov 0x100, 0x0, len=8, i8
      gstore g:0x40, 0x100, len=8, i8
      halt
  )";

  isa::Program program = isa::assemble(source);
  std::printf("assembled %zu instructions on %zu cores\n", program.total_instructions(),
              program.cores.size());
  std::printf("--- disassembly ---\n%s-------------------\n",
              isa::disassemble(program).c_str());

  // Weights for group 0 (identity * 2) and input/bias data.
  isa::GroupDef& g = program.cores[0].groups[0];
  g.weights.assign(64, 0);
  for (int i = 0; i < 8; ++i) g.weights[static_cast<size_t>(i * 8 + i)] = 2;

  isa::DataSegment x;
  x.addr = 0x0;
  x.bytes = {5, 250 /*-6*/, 10, 20, 30, 40, 256 - 50, 60};
  program.cores[0].lm_init.push_back(x);
  isa::DataSegment bias;
  bias.addr = 0x200;
  bias.bytes.resize(32, 0);
  int32_t b[8] = {1, 1, 1, 1, -100, 0, 0, 0};
  std::memcpy(bias.bytes.data(), b, 32);
  program.cores[0].lm_init.push_back(bias);

  config::ArchConfig cfg = config::ArchConfig::preset("tiny");
  std::vector<std::string> errors = program.verify(cfg);
  for (const std::string& e : errors) std::printf("verify: %s\n", e.c_str());
  if (!errors.empty()) return 1;

  arch::Chip chip(cfg, program);
  arch::RunStats stats = chip.run();
  std::printf("finished=%d in %.3f us, %llu events\n", chip.finished(),
              stats.total_ps * 1e-6, static_cast<unsigned long long>(stats.kernel_events));

  std::vector<uint8_t> out = chip.read_global(0x40, 8);
  std::printf("result in global memory: ");
  for (uint8_t v : out) std::printf("%d ", static_cast<int8_t>(v));
  std::printf("\nexpected: relu(2*x + b) >> 2 per element = ");
  for (int i = 0; i < 8; ++i) {
    int32_t acc = 2 * static_cast<int8_t>(x.bytes[static_cast<size_t>(i)]) + b[i];
    if (acc < 0) acc = 0;
    std::printf("%d ", (acc + 2) >> 2);
  }
  std::printf("\n");
  return chip.finished() ? 0 : 1;
}
