// Ablation — weight replication (PIMCOMP-style duplication).
//
// The ISA's group mechanism makes weight duplication a pure software
// decision: the compiler stores R copies of a convolution's matrix on spare
// crossbars and rotates consecutive output pixels over them, so R pixels of
// the same layer execute concurrently. This sweep quantifies the benefit —
// and its saturation, once the producer-side patch gathering and the
// aggregation vector work become the bottleneck instead of the crossbars.
#include "bench_common.h"

int main() {
  using namespace pim;

  bench::print_header("Ablation — weight replication factor",
                      "software-optimization study enabled by the ISA (PIMCOMP duplication)");

  const std::vector<uint32_t> factors = {1, 2, 4, 8};
  std::vector<std::string> nets = {"alexnet", "vgg8", "squeezenet"};
  if (bench::quick()) nets = {"alexnet"};

  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  cfg.core.rob_size = 16;

  std::vector<std::vector<std::string>> rows;
  std::vector<stats::Series> series;
  for (uint32_t f : factors) series.push_back({"R=" + std::to_string(f), {}});

  for (const std::string& name : nets) {
    nn::Graph net = bench::bench_model(name);
    std::vector<std::string> row = {name};
    double base = 0;
    for (size_t i = 0; i < factors.size(); ++i) {
      compiler::CompileOptions copts;
      copts.policy = compiler::MappingPolicy::PerformanceFirst;
      copts.include_weights = false;
      copts.replication = factors[i];
      config::ArchConfig c = cfg;
      c.sim.functional = false;
      runtime::Report rep = runtime::simulate_network(net, c, copts);
      if (i == 0) base = rep.latency_ms();
      row.push_back(stats::fmt(rep.latency_ms()));
      series[i].values.push_back(rep.latency_ms() / base);
    }
    rows.push_back(row);
  }

  std::vector<std::string> header = {"network"};
  for (uint32_t f : factors) header.push_back("R=" + std::to_string(f) + " (ms)");
  std::printf("%s\n", stats::markdown_table(header, rows).c_str());
  std::printf("%s\n", stats::bar_chart("latency normalized to R=1 (no replication)", nets,
                                       series)
                          .c_str());
  std::printf("expected shape: R=2 helps clearly; gains saturate (or regress) once patch\n"
              "gathering on the producer core serializes the pipeline instead.\n");
  return 0;
}
