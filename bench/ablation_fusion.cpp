// Ablation — operator fusion on/off.
//
// The compiler folds a ReLU that solely consumes a Conv/FC into the
// aggregation step (applied on the int32 accumulator before requantization),
// the kind of software optimization the ISA makes expressible — the paper's
// intro example is exactly that MNSIM2.0's fixed datapath *cannot* "execute
// pooling on its MVMUL outputs directly". Results are bit-identical with
// fusion on or off; only instruction count and latency change.
#include "bench_common.h"

int main() {
  using namespace pim;

  bench::print_header("Ablation — ReLU/MVM operator fusion",
                      "software-optimization study enabled by the ISA (paper §I/§III-A)");

  std::vector<std::string> nets = {"alexnet", "googlenet", "resnet18", "squeezenet"};
  if (bench::quick()) nets = {"alexnet", "squeezenet"};

  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  cfg.core.rob_size = 8;

  std::vector<std::vector<std::string>> rows;
  stats::Series fused{"fusion on", {}}, unfused{"fusion off", {}};
  for (const std::string& name : nets) {
    nn::Graph net = bench::bench_model(name);
    runtime::Report on = bench::run(net, cfg, compiler::MappingPolicy::PerformanceFirst, true);
    runtime::Report off =
        bench::run(net, cfg, compiler::MappingPolicy::PerformanceFirst, false);
    rows.push_back({name, stats::fmt(on.latency_ms()), stats::fmt(off.latency_ms()),
                    std::to_string(on.stats.total_instructions()),
                    std::to_string(off.stats.total_instructions()),
                    stats::fmt(off.latency_ms() / on.latency_ms())});
    unfused.values.push_back(1.0);
    fused.values.push_back(on.latency_ms() / off.latency_ms());
  }

  std::printf("%s\n", stats::markdown_table({"network", "fused (ms)", "unfused (ms)",
                                             "fused instrs", "unfused instrs", "speedup"},
                                            rows)
                          .c_str());
  std::printf("%s\n", stats::bar_chart("latency normalized to fusion-off", nets,
                                       {unfused, fused})
                          .c_str());
  return 0;
}
