// Fig. 4 — Latency vs re-order buffer size.
//
// Paper setup (§IV-A): same 64-core chip, performance-first mapping, ROB
// size swept over {1, 4, 8, 12, 16}. Latency is normalized per network to
// its ROB=1 value. Paper result: latency drops as the ROB grows, but the
// 12 -> 16 step gains little — the next MVM hits the *same crossbar group*
// as an in-flight one (structure hazard), capping useful lookahead.
#include "bench_common.h"

int main() {
  using namespace pim;

  bench::print_header("Fig. 4 — latency vs ROB size", "paper Fig. 4, DATE'24");

  std::vector<std::string> nets = {"alexnet", "googlenet", "resnet18", "squeezenet"};
  if (bench::quick()) nets = {"alexnet", "squeezenet"};
  const std::vector<uint32_t> rob_sizes = {1, 4, 8, 12, 16};

  std::vector<stats::Series> series;
  for (uint32_t r : rob_sizes) series.push_back({"rob=" + std::to_string(r), {}});

  std::vector<std::vector<std::string>> rows;
  for (const std::string& name : nets) {
    nn::Graph net = bench::bench_model(name);
    std::vector<std::string> row = {name};
    double base = 0;
    for (size_t i = 0; i < rob_sizes.size(); ++i) {
      config::ArchConfig cfg = config::ArchConfig::preset("paper");
      cfg.core.rob_size = rob_sizes[i];
      runtime::Report rep = bench::run(net, cfg, compiler::MappingPolicy::PerformanceFirst);
      if (i == 0) base = rep.latency_ms();
      series[i].values.push_back(rep.latency_ms() / base);
      row.push_back(stats::fmt(rep.latency_ms()));
    }
    rows.push_back(row);
  }

  std::vector<std::string> header = {"network"};
  for (uint32_t r : rob_sizes) header.push_back("rob=" + std::to_string(r) + " (ms)");
  std::printf("%s\n", stats::markdown_table(header, rows).c_str());
  std::printf("%s\n",
              stats::bar_chart("Fig. 4 normalized latency vs ROB size", nets, series).c_str());

  // The plateau check the paper calls out.
  for (size_t n = 0; n < nets.size(); ++n) {
    const double step_8_12 = series[2].values[n] - series[3].values[n];
    const double step_12_16 = series[3].values[n] - series[4].values[n];
    std::printf("%s: gain 8->12 = %.3f, gain 12->16 = %.3f (structure-hazard plateau: "
                "12->16 should be smaller)\n",
                nets[n].c_str(), step_8_12, step_12_16);
  }
  return 0;
}
