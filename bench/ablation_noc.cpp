// Ablation — NoC bandwidth and the communication share of inference latency.
//
// The paper's §IV-B cites Mandal et al. (JETCAS'20): communication takes
// 40-90% of total inference latency on PIM accelerators, and uses that range
// to sanity-check its own 77% figure. This sweep varies link width and hop
// latency on resnet-18 and reports (a) end-to-end latency and (b) the
// network-wide communication-latency ratio, verifying the simulator lands in
// the published range for reasonable NoCs.
#include "bench_common.h"

namespace {
double network_comm_ratio(const pim::runtime::Report& rep) {
  double comm = 0, compute = 0;
  for (const auto& [id, ls] : rep.stats.layers) {
    comm += static_cast<double>(ls.transfer_busy_ps);
    compute += static_cast<double>(ls.matrix_busy_ps + ls.vector_busy_ps);
  }
  return comm + compute > 0 ? comm / (comm + compute) : 0;
}
}  // namespace

int main() {
  using namespace pim;

  bench::print_header("Ablation — NoC bandwidth / hop latency vs communication share",
                      "the paper's §IV-B 40-90% communication-cost check");

  struct Point {
    uint32_t link_bytes;
    uint32_t hop_cycles;
  };
  const std::vector<Point> points = {{8, 4}, {16, 2}, {32, 2}, {64, 1}, {128, 1}};

  nn::Graph net = bench::bench_model(bench::quick() ? "vgg8" : "resnet18");

  std::vector<std::vector<std::string>> rows;
  stats::Series lat{"latency", {}}, ratio{"comm share", {}};
  std::vector<std::string> labels;
  double base = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    config::ArchConfig cfg = config::ArchConfig::preset("paper");
    cfg.noc.link_bytes_per_cycle = points[i].link_bytes;
    cfg.noc.hop_latency_cycles = points[i].hop_cycles;
    cfg.core.rob_size = 8;
    runtime::Report rep = bench::run(net, cfg, compiler::MappingPolicy::PerformanceFirst);
    const double r = network_comm_ratio(rep);
    if (i == 0) base = rep.latency_ms();
    labels.push_back(std::to_string(points[i].link_bytes) + "B/cy");
    lat.values.push_back(rep.latency_ms() / base);
    ratio.values.push_back(r);
    rows.push_back({labels.back(), std::to_string(points[i].hop_cycles),
                    stats::fmt(rep.latency_ms()), stats::fmt(r * 100.0)});
  }

  std::printf("%s\n", stats::markdown_table(
                          {"link width", "hop cycles", "latency (ms)", "comm share (%)"}, rows)
                          .c_str());
  std::printf("%s\n",
              stats::bar_chart("latency (normalized) and communication share", labels,
                               {lat, ratio})
                  .c_str());
  std::printf("reference: Mandal et al. (JETCAS'20) report 40-90%% communication share; the\n"
              "paper measures 77%% on resnet-18 conv2 with synchronized transfers.\n");
  return 0;
}
