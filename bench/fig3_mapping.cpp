// Fig. 3 — Comparison of mapping algorithms.
//
// Paper setup (§IV-A): 64-core chip, 512 crossbars/core, 128x128 arrays,
// ROB size 1. For alexnet/googlenet/resnet18/squeezenet, simulate the
// utilization-first and performance-first mappings and report latency
// (Fig. 3a) and energy (Fig. 3b), each normalized to utilization-first.
// Paper result: performance-first is ~2x better on average.
#include "bench_common.h"

int main() {
  using namespace pim;
  using compiler::MappingPolicy;

  bench::print_header("Fig. 3 — utilization-first vs performance-first mapping",
                      "paper Fig. 3(a)+(b), DATE'24");

  std::vector<std::string> nets = {"alexnet", "googlenet", "resnet18", "squeezenet"};
  if (bench::quick()) nets = {"alexnet", "squeezenet"};

  config::ArchConfig cfg = config::ArchConfig::preset("paper");
  cfg.core.rob_size = 1;  // paper: "with ROB size set to 1"

  std::vector<std::vector<std::string>> rows;
  stats::Series lat_util{"util-first", {}}, lat_perf{"perf-first", {}};
  stats::Series en_util{"util-first", {}}, en_perf{"perf-first", {}};
  std::vector<double> lat_gain, en_gain;

  for (const std::string& name : nets) {
    nn::Graph net = bench::bench_model(name);
    runtime::Report util = bench::run(net, cfg, MappingPolicy::UtilizationFirst);
    runtime::Report perf = bench::run(net, cfg, MappingPolicy::PerformanceFirst);
    rows.push_back({name, stats::fmt(util.latency_ms()), stats::fmt(perf.latency_ms()),
                    stats::fmt(util.energy_uj() / 1000.0), stats::fmt(perf.energy_uj() / 1000.0),
                    stats::fmt(util.latency_ms() / perf.latency_ms()),
                    stats::fmt(util.energy_uj() / perf.energy_uj())});
    lat_util.values.push_back(1.0);
    lat_perf.values.push_back(perf.latency_ms() / util.latency_ms());
    en_util.values.push_back(1.0);
    en_perf.values.push_back(perf.energy_uj() / util.energy_uj());
    lat_gain.push_back(util.latency_ms() / perf.latency_ms());
    en_gain.push_back(util.energy_uj() / perf.energy_uj());
  }

  std::printf("%s\n", stats::markdown_table({"network", "util lat (ms)", "perf lat (ms)",
                                             "util E (mJ)", "perf E (mJ)", "lat gain",
                                             "E gain"},
                                            rows)
                          .c_str());
  std::printf("%s\n", stats::bar_chart("Fig. 3(a) normalized latency", nets,
                                       {lat_util, lat_perf})
                          .c_str());
  std::printf("%s\n",
              stats::bar_chart("Fig. 3(b) normalized energy", nets, {en_util, en_perf}).c_str());
  std::printf("performance-first average improvement: latency %.2fx, energy %.2fx "
              "(paper: ~2x on average)\n",
              stats::geomean(lat_gain), stats::geomean(en_gain));
  return 0;
}
