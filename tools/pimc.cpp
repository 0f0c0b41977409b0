// pimc — the PIMSIM-NN compiler driver.
//
// Lowers a network description file onto an architecture configuration and
// writes the ISA program (JSON container). The front half of the paper's
// Fig. 1 workflow.
//
//   pimc --network networks/resnet18_32.json --arch configs/paper_64core.json
//        --out resnet18.prog.json [--policy util|perf] [--no-fusion]
//        [--replication N] [--weights] [--asm out.s] [--report]
#include <cstdio>
#include <string>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "isa/assembler.h"
#include "json/json.h"
#include "nn/graph.h"
#include "cli.h"

int main(int argc, char** argv) {
  using namespace pim;
  tools::ArgParser args("pimc", "compile a network description onto an architecture");
  args.option("--network", "FILE", "", "network description JSON (required)");
  args.option("--arch", "NAME|FILE", "paper",
              "architecture preset (tiny|paper|mnsim) or configuration JSON");
  args.option("--out", "FILE", "program.json", "output program path");
  args.option("--policy", "NAME", "perf", "mapping policy: perf|util");
  args.flag("--no-fusion", "disable ReLU fusion");
  args.option("--replication", "N", "1", "weight replication cap (perf policy)");
  args.flag("--weights", "embed weight payloads in the program");
  args.option("--asm", "FILE", "", "also write the disassembly");
  args.flag("--report", "print the mapping summary and instruction mix");
  tools::add_observability_options(args);
  args.parse(argc, argv);

  tools::Observability obs = tools::Observability::from_args(args, "pimc");

  if (args.get("--network").empty()) {
    std::fprintf(stderr, "pimc: --network is required (try --help)\n");
    return 2;
  }
  const std::string policy = args.get("--policy");
  if (policy != "perf" && policy != "util") {
    std::fprintf(stderr, "pimc: unknown --policy \"%s\" (expected perf|util)\n",
                 policy.c_str());
    return 2;
  }
  const std::string out_path = args.get("--out");

  try {
    nn::Graph net = nn::Graph::from_json(json::parse_file(args.get("--network")));
    config::ArchConfig cfg = tools::arch_by_name_or_file(args.get("--arch"));

    compiler::CompileOptions copts;
    copts.policy = policy == "util" ? compiler::MappingPolicy::UtilizationFirst
                                    : compiler::MappingPolicy::PerformanceFirst;
    copts.fuse_relu = !args.has("--no-fusion");
    const unsigned repl = args.get_unsigned("--replication");
    if (repl < 1) {
      std::fprintf(stderr, "pimc: --replication must be >= 1\n");
      return 2;
    }
    copts.replication = repl;
    copts.include_weights = args.has("--weights");
    if (copts.include_weights && net.total_weight_elems() > 0 &&
        net.layers()[1].weights.empty()) {
      net.init_parameters();  // description carried no weights; synthesize
    }

    compiler::CompileReport report;
    isa::Program program;
    {
      const uint32_t tid =
          obs.sink() != nullptr ? obs.sink()->tid(obs.sink()->pid("host"), "compile") : 0;
      telemetry::HostSpan span(obs.sink(), tid, "compile " + net.name());
      program = compiler::compile(net, cfg, copts, &report);
    }
    program.save(out_path, copts.include_weights);
    std::printf("wrote %s: %zu instructions, %zu groups\n", out_path.c_str(),
                report.total_instructions, program.total_groups());
    if (telemetry::Registry* reg = obs.registry()) {
      reg->counter("compile.instructions").add(report.total_instructions);
      reg->counter("compile.groups").add(program.total_groups());
      reg->gauge("compile.lm_bytes_peak").set(static_cast<double>(report.lm_bytes_peak));
    }

    if (!args.get("--asm").empty()) {
      tools::write_text("pimc", args.get("--asm"), isa::disassemble(program));
    }
    if (args.has("--report")) {
      std::printf("%s\n", report.mapping.summary().c_str());
      std::printf("mvm=%zu transfer=%zu vector=%zu, peak LM %llu KiB\n",
                  report.mvm_instructions, report.transfer_instructions,
                  report.vector_instructions,
                  static_cast<unsigned long long>(report.lm_bytes_peak / 1024));
    }
    obs.finish("pimc");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimc: %s\n", e.what());
    return 1;
  }
  return 0;
}
