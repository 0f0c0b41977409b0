// Custom network from a description file — the paper's Fig. 1 workflow
// exactly, driven through the pim::workload layer: a network description
// file (JSON here; ONNX in the original) plus an architecture configuration
// file in, latency/energy/power out. The network exists *only* as data —
// nothing here is compiled in — and the loader/exporter pair gives a hard
// equivalence oracle: load -> export -> reload must be fingerprint-identical.
//
// Usage:
//   custom_network [network.json] [arch.json]
// With no arguments it writes demo files under a scratch directory first, so
// the example is runnable out of the box (and never litters the invoking
// directory), then consumes them like user input. The shipped
// configs/workload_resblock.json is the same network.
#include <cstdio>
#include <filesystem>
#include <string>

#include "config/arch_config.h"
#include "json/json.h"
#include "nn/executor.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace {

const char* kDemoNetwork = R"({
  // A little residual CNN in the PIMSIM-NN network description format.
  "name": "demo-resnet",
  "layers": [
    {"id": 0, "name": "input",  "type": "input", "shape": [3, 16, 16]},
    {"id": 1, "name": "stem",   "type": "conv", "inputs": [0], "out_channels": 16,
     "kernel": 3, "stride": 1, "pad": 1},
    {"id": 2, "name": "stem_relu", "type": "relu", "inputs": [1]},
    {"id": 3, "name": "b1", "type": "conv", "inputs": [2], "out_channels": 16,
     "kernel": 3, "stride": 1, "pad": 1},
    {"id": 4, "name": "b1_relu", "type": "relu", "inputs": [3]},
    {"id": 5, "name": "b2", "type": "conv", "inputs": [4], "out_channels": 16,
     "kernel": 3, "stride": 1, "pad": 1},
    {"id": 6, "name": "res", "type": "add", "inputs": [5, 2]},
    {"id": 7, "name": "res_relu", "type": "relu", "inputs": [6]},
    {"id": 8, "name": "gap", "type": "global_avgpool", "inputs": [7]},
    {"id": 9, "name": "fc", "type": "fc", "inputs": [8], "out_channels": 10},
  ]
})";

}  // namespace

int main(int argc, char** argv) {
  using namespace pim;

  // Default demo inputs (and the round-trip export derived from them) go to
  // a scratch directory, not the cwd — running the example must not strew
  // files over a source checkout. Explicit paths are used as given.
  std::string net_path;
  std::string cfg_path;
  if (argc > 1) {
    net_path = argv[1];
    cfg_path = argc > 2 ? argv[2] : "demo_arch.json";
  } else {
    const std::filesystem::path scratch =
        std::filesystem::temp_directory_path() / "pim_custom_network_demo";
    std::filesystem::create_directories(scratch);
    net_path = (scratch / "demo_network.json").string();
    cfg_path = (scratch / "demo_arch.json").string();
  }
  if (argc <= 1) {
    // Materialize the demo inputs.
    json::write_file(net_path, json::parse(kDemoNetwork));
    config::ArchConfig demo_cfg = config::ArchConfig::preset("tiny");
    demo_cfg.name = "demo-4core";
    demo_cfg.save(cfg_path);
    std::printf("wrote %s and %s\n", net_path.c_str(), cfg_path.c_str());
  }

  // --- the Fig. 1 pipeline, through the workload layer ----------------------
  // The spec is pure data; build() validates the file and (because the demo
  // description ships no parameters) seeds weights deterministically.
  workload::WorkloadSpec spec = workload::WorkloadSpec::graph_file(net_path);
  spec.weight_seed = 42;
  workload::BuiltWorkload wl = workload::build(spec, /*init_params=*/true);
  config::ArchConfig cfg = config::ArchConfig::load(cfg_path);

  std::printf("workload '%s': %zu layers, %lld MACs\narchitecture '%s': %u cores x %u xbars\n",
              wl.graph.name().c_str(), wl.graph.size(),
              static_cast<long long>(wl.graph.total_macs()), cfg.name.c_str(),
              cfg.core_count, cfg.core.matrix.xbar_count);

  // Round-trip oracle: exporting the built graph (parameters included) and
  // reloading it must reproduce the content fingerprint bit-for-bit — the
  // same guarantee that lets every zoo model run from a file.
  const std::string exported = net_path + ".roundtrip.json";
  workload::export_graph(wl.graph, exported, /*include_params=*/true);
  const nn::Graph reloaded = workload::load_graph(exported);
  const bool fp_match =
      workload::graph_fingerprint(wl.graph) == workload::graph_fingerprint(reloaded);
  std::printf("export -> reload fingerprint check: %s (%016llx)\n",
              fp_match ? "PASS" : "FAIL",
              static_cast<unsigned long long>(workload::graph_fingerprint(reloaded)));

  nn::Tensor input = nn::random_input(wl.input_shape, 1234);
  runtime::Report report = runtime::simulate_network(wl.graph, cfg, {}, &input);
  std::printf("%s\n", report.summary().c_str());

  nn::Tensor golden = nn::execute_reference_output(wl.graph, input);
  const bool match = golden.data == report.output;
  std::printf("functional check vs reference executor: %s\n", match ? "PASS" : "FAIL");
  std::printf("\n%s", report.layer_table(wl.graph).c_str());
  return match && fp_match && report.finished ? 0 : 1;
}
