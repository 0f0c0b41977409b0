// Shared helpers for the figure-reproduction benches.
//
// Every fig*/ablation* binary is a self-contained harness that re-runs the
// experiments behind one table/figure of the paper and prints (a) the raw
// measurements as a markdown table and (b) the figure's normalized series as
// an ASCII bar chart — the same rows/series the paper reports.
//
// Environment knobs (all optional):
//   PIM_BENCH_INPUT_HW   input resolution (default 32; the paper used
//                        ImageNet-scale inputs, and below 128 the zoo swaps
//                        the ImageNet stems for CIFAR-style ones, see
//                        nn/models.h)
//   PIM_BENCH_QUICK      set to 1 to drop the largest network from sweeps
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/models.h"
#include "runtime/simulator.h"
#include "stats/report.h"

namespace pim::bench {

inline int input_hw() {
  const char* env = std::getenv("PIM_BENCH_INPUT_HW");
  return env != nullptr ? std::atoi(env) : 32;
}

inline bool quick() {
  const char* env = std::getenv("PIM_BENCH_QUICK");
  return env != nullptr && std::atoi(env) != 0;
}

/// Build a model-zoo network at the bench input resolution (timing-only:
/// no weights, which keeps compile memory small).
inline nn::Graph bench_model(const std::string& name) {
  nn::ModelOptions mopt;
  mopt.input_hw = input_hw();
  mopt.init_params = false;
  return nn::build_model(name, mopt);
}

/// Run one timing simulation and return the report.
inline runtime::Report run(const nn::Graph& net, const config::ArchConfig& cfg,
                           compiler::MappingPolicy policy, bool fuse = true) {
  compiler::CompileOptions copts;
  copts.policy = policy;
  copts.fuse_relu = fuse;
  copts.include_weights = false;
  config::ArchConfig c = cfg;
  c.sim.functional = false;
  return runtime::simulate_network(net, c, copts);
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("==========================================================================\n");
  std::printf("%s\n(reproduces %s; input %dx%d)\n", what, paper_ref, input_hw(), input_hw());
  std::printf("==========================================================================\n");
}

}  // namespace pim::bench
