// pimsim — the PIMSIM-NN simulator driver.
//
// Two front ends into the same simulator:
//
//   * --program: run a compiled ISA program (from pimc) — the back half of
//     the paper's Fig. 1 workflow.
//   * --workload: compile-and-run a declarative workload — a model-zoo name,
//     "mlp", or a JSON graph description file — so a network that exists
//     only as a file runs end-to-end without touching pimc.
//
// Reports latency, power and energy; optionally dumps the full report as
// JSON, a Chrome/Perfetto timeline (--trace-out) or a metrics snapshot
// (--metrics-out).
//
//   pimsim --program resnet18.prog.json --arch configs/paper_64core.json
//   pimsim --workload configs/workload_resblock.json --arch tiny
//          --functional [--json] [--trace-out trace.json] [--metrics-out m.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "artifact/artifact.h"
#include "config/arch_config.h"
#include "isa/program.h"
#include "nn/executor.h"
#include "runtime/simulator.h"
#include "workload/workload.h"
#include "cli.h"

int main(int argc, char** argv) {
  using namespace pim;
  tools::ArgParser args("pimsim", "simulate a compiled program or a declarative workload");
  args.option("--program", "FILE", "", "compiled ISA program JSON (from pimc)");
  args.option("--workload", "NAME|FILE", "",
              "zoo name, \"mlp\", or a graph description .json file");
  args.option("--arch", "NAME|FILE", "paper",
              "architecture preset (tiny|paper|mnsim) or configuration JSON");
  args.option("--input-hw", "N", "32", "input resolution (workload mode)");
  args.flag("--functional", "move real data and check outputs (workload mode)");
  args.flag("--json", "print the full report as JSON");
  tools::add_observability_options(args);
  args.parse(argc, argv);

  tools::Observability obs = tools::Observability::from_args(args, "pimsim");

  const std::string prog_path = args.get("--program");
  const std::string workload_arg = args.get("--workload");
  if (prog_path.empty() == workload_arg.empty()) {
    std::fprintf(stderr, "pimsim: exactly one of --program / --workload is required (try --help)\n");
    return 2;
  }

  try {
    config::ArchConfig cfg = tools::arch_by_name_or_file(args.get("--arch"));

    runtime::Report report;
    if (!workload_arg.empty()) {
      const long hw = args.get_int("--input-hw");
      if (hw < 1 || hw > INT32_MAX) {
        std::fprintf(stderr, "pimsim: --input-hw needs a positive integer, got %ld\n", hw);
        return 2;
      }
      const int32_t input_hw = static_cast<int32_t>(hw);
      const bool functional = args.has("--functional");
      const workload::WorkloadSpec spec =
          workload::parse_workload_token(workload_arg, input_hw);
      // Resolve and compile through the artifact store — single runs pay the
      // same path the batch/DSE drivers cache against, and the phase split
      // below reports where the host time actually goes.
      using Clock = std::chrono::steady_clock;
      artifact::Store store;
      const Clock::time_point t0 = Clock::now();
      const artifact::GraphHandle wl = store.graph(spec, /*init_params=*/functional);
      cfg.sim.functional = functional;
      compiler::CompileOptions copts;
      copts.include_weights = functional;
      const auto net = store.program(wl, cfg, copts);
      const Clock::time_point t1 = Clock::now();
      nn::Tensor input;
      const nn::Tensor* in_ptr = nullptr;
      if (functional) {
        input = nn::random_input(wl.built->input_shape, /*seed=*/7);
        in_ptr = &input;
      }
      // graph_fingerprint on the already-built graph — spec.fingerprint()
      // would re-read and re-parse the description file just for this line.
      std::fprintf(stderr, "pimsim: workload %s (graph fingerprint %016llx), %zu layers\n",
                   spec.label().c_str(),
                   static_cast<unsigned long long>(workload::graph_fingerprint(wl.built->graph)),
                   wl.built->graph.size());
      report = runtime::simulate_compiled(*net, cfg, in_ptr, obs.sink());
      const Clock::time_point t2 = Clock::now();
      const auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      std::fprintf(stderr, "pimsim: build+compile %.1f ms, simulate %.1f ms; artifacts: %s\n",
                   ms(t0, t1), ms(t1, t2), store.stats().summary().c_str());
      if (obs.registry() != nullptr) store.stats().publish(*obs.registry());
    } else {
      isa::Program program = isa::Program::load(prog_path);
      report = runtime::simulate_program(program, cfg, nullptr, 0, 0, 0, obs.sink());
    }

    if (args.has("--json")) {
      std::printf("%s\n", report.to_json().dump(2).c_str());
    } else {
      std::printf("%s\n", report.summary().c_str());
      for (size_t c = 0; c < static_cast<size_t>(arch::Component::kCount); ++c) {
        const auto comp = static_cast<arch::Component>(c);
        std::printf("  %-14s %12.3f uJ\n", arch::component_name(comp),
                    report.stats.energy.get(comp) * 1e-6);
      }
    }
    obs.finish("pimsim");
    return report.finished ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimsim: %s\n", e.what());
    return 1;
  }
}
