// Command-line front end: pick a model-zoo network, a mapping policy and
// architecture knobs, then simulate and print the full report — the
// "simulator binary" a downstream user would script against.
//
// Usage:
//   run_network [--model alexnet] [--policy perf|util] [--rob N]
//               [--input-hw N] [--cores N] [--xbars N] [--adc N]
//               [--no-fusion] [--functional] [--json]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"

namespace {
const char* arg_value(int argc, char** argv, const char* key, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  }
  return fallback;
}
bool has_flag(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) return true;
  }
  return false;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace pim;

  const std::string model = arg_value(argc, argv, "--model", "alexnet");
  const std::string policy = arg_value(argc, argv, "--policy", "perf");
  const int rob = std::atoi(arg_value(argc, argv, "--rob", "16"));
  const int input_hw = std::atoi(arg_value(argc, argv, "--input-hw", "32"));
  const int cores = std::atoi(arg_value(argc, argv, "--cores", "64"));
  const int xbars = std::atoi(arg_value(argc, argv, "--xbars", "512"));
  const int adc = std::atoi(arg_value(argc, argv, "--adc", "512"));
  const bool functional = has_flag(argc, argv, "--functional");
  const bool as_json = has_flag(argc, argv, "--json");

  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  cfg.core_count = static_cast<uint32_t>(cores);
  // Squarest mesh for the requested core count.
  uint32_t w = 1;
  for (uint32_t i = 1; i * i <= cfg.core_count; ++i) {
    if (cfg.core_count % i == 0) w = i;
  }
  cfg.mesh_height = w;
  cfg.mesh_width = cfg.core_count / w;
  cfg.core.rob_size = static_cast<uint32_t>(rob);
  cfg.core.matrix.xbar_count = static_cast<uint32_t>(xbars);
  cfg.core.matrix.adc_count = static_cast<uint32_t>(adc);
  cfg.sim.functional = functional;
  cfg.validate();

  nn::ModelOptions mopt;
  mopt.input_hw = input_hw;
  mopt.init_params = functional;
  nn::Graph net = nn::build_model(model, mopt);

  compiler::CompileOptions copts;
  copts.policy = policy == "util" ? compiler::MappingPolicy::UtilizationFirst
                                  : compiler::MappingPolicy::PerformanceFirst;
  copts.fuse_relu = !has_flag(argc, argv, "--no-fusion");
  copts.include_weights = functional;

  nn::Tensor input;
  const nn::Tensor* in_ptr = nullptr;
  if (functional) {
    input = nn::random_input({mopt.input_channels, input_hw, input_hw});
    in_ptr = &input;
  }

  runtime::Report report = runtime::simulate_network(net, cfg, copts, in_ptr);
  if (as_json) {
    std::printf("%s\n", report.to_json().dump(2).c_str());
  } else {
    std::printf("%s\n", report.summary().c_str());
    std::printf("mapping: %s\n", report.compile.mapping.summary().c_str());
    std::printf("compiled: %zu instructions (%zu mvm, %zu transfer, %zu vector), peak LM %llu KiB\n",
                report.compile.total_instructions, report.compile.mvm_instructions,
                report.compile.transfer_instructions, report.compile.vector_instructions,
                static_cast<unsigned long long>(report.compile.lm_bytes_peak / 1024));
    std::printf("\n%s", report.layer_table(net).c_str());
  }
  return report.finished ? 0 : 1;
}
