// Ablation — ADC sharing factor.
//
// DESIGN.md design-choice study: the paper's §IV-A chip description ("512
// crossbars ... sharing with one ADC") is ambiguous between one ADC per
// crossbar and one per core. This sweep quantifies the difference: ADC
// conversion channels per core in {512, 64, 8, 1} on alexnet and squeezenet.
// Fewer channels serialize MVM conversions and flatten the ROB benefit.
#include "bench_common.h"

int main() {
  using namespace pim;

  bench::print_header("Ablation — ADC conversion channels per core",
                      "design-choice study for the paper's §IV-A chip");

  const std::vector<uint32_t> adcs = {512, 8, 2, 1};
  std::vector<std::string> nets = {"alexnet", "squeezenet"};
  if (bench::quick()) nets = {"squeezenet"};

  std::vector<std::vector<std::string>> rows;
  std::vector<stats::Series> series;
  for (uint32_t a : adcs) series.push_back({"adc=" + std::to_string(a), {}});

  for (const std::string& name : nets) {
    nn::Graph net = bench::bench_model(name);
    std::vector<std::string> row = {name};
    double base = 0;
    for (size_t i = 0; i < adcs.size(); ++i) {
      config::ArchConfig cfg = config::ArchConfig::preset("paper");
      cfg.core.matrix.adc_count = adcs[i];
      cfg.core.rob_size = 16;
      runtime::Report rep = bench::run(net, cfg, compiler::MappingPolicy::PerformanceFirst);
      if (i == 0) base = rep.latency_ms();
      row.push_back(stats::fmt(rep.latency_ms()));
      series[i].values.push_back(rep.latency_ms() / base);
    }
    rows.push_back(row);
  }

  std::vector<std::string> header = {"network"};
  for (uint32_t a : adcs) header.push_back("adc=" + std::to_string(a) + " (ms)");
  std::printf("%s\n", stats::markdown_table(header, rows).c_str());
  std::printf("%s\n",
              stats::bar_chart("latency normalized to adc=512 (per-crossbar ADCs)", nets,
                               series)
                  .c_str());
  return 0;
}
