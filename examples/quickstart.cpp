// Quickstart: the whole framework in ~60 lines.
//
// 1. Describe a network (or load one from JSON).
// 2. Pick an architecture configuration.
// 3. Compile it (mapping -> groups -> ISA program).
// 4. Simulate cycle-accurately and functionally.
// 5. Check the simulated inference against the host reference executor.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"

int main() {
  using namespace pim;

  // A small CNN on a 4-core chip (use ArchConfig::preset("paper") for the
  // 64-core configuration the paper evaluates).
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  mopt.input_channels = 3;
  mopt.num_classes = 10;
  nn::Graph net = nn::build_tiny_cnn(mopt);
  config::ArchConfig cfg = config::ArchConfig::preset("tiny");

  std::printf("network: %s  (%lld MACs, %lld weights)\n", net.name().c_str(),
              static_cast<long long>(net.total_macs()),
              static_cast<long long>(net.total_weight_elems()));

  // Compile with the performance-first mapping.
  compiler::CompileOptions copts;
  copts.policy = compiler::MappingPolicy::PerformanceFirst;

  // Simulate with a random (deterministic) input image.
  nn::Tensor input = nn::random_input({mopt.input_channels, mopt.input_hw, mopt.input_hw});
  runtime::Report report = runtime::simulate_network(net, cfg, copts, &input);

  std::printf("%s\n", report.summary().c_str());
  std::printf("mapping: %s\n", report.compile.mapping.summary().c_str());

  // Validate against the host reference executor (bit-exact).
  nn::Tensor golden = nn::execute_reference_output(net, input);
  bool match = golden.data.size() == report.output.size();
  if (match) {
    for (size_t i = 0; i < golden.data.size(); ++i) {
      if (golden.data[i] != report.output[i]) {
        match = false;
        break;
      }
    }
  }
  std::printf("functional check vs reference executor: %s\n", match ? "PASS" : "FAIL");

  std::printf("\nper-layer breakdown:\n%s", report.layer_table(net).c_str());
  return match && report.finished ? 0 : 1;
}
