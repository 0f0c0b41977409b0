// pimasm — assembler / disassembler for the PIMSIM-NN ISA.
//
//   pimasm program.s --out program.json          assemble
//   pimasm program.json --disasm [--out prog.s]  disassemble
//   pimasm program.json --verify --arch cfg.json structural verification
#include <cstdio>
#include <fstream>
#include <sstream>

#include "isa/assembler.h"
#include "isa/program.h"
#include "cli.h"

int main(int argc, char** argv) {
  using namespace pim;
  tools::ArgParser args("pimasm", "assemble, disassemble or verify an ISA program");
  args.positional("INPUT", "assembly text to assemble, or a program JSON with --disasm/--verify");
  args.option("--out", "FILE", "",
              "output path [default: program.json when assembling, stdout with --disasm]");
  args.flag("--disasm", "disassemble the INPUT program JSON");
  args.flag("--verify", "verify the INPUT program JSON structurally against --arch");
  args.option("--arch", "NAME|FILE", "",
              "architecture preset (tiny|paper|mnsim) or configuration JSON, for --verify");
  args.option("--log-level", "LEVEL", "warn",
              "log verbosity: trace, debug, info, warn, error, off");
  args.parse(argc, argv);
  tools::apply_log_level(args, "pimasm");

  const std::string& input = args.get("INPUT");
  if (input.empty()) {
    std::fprintf(stderr, "pimasm: an INPUT file is required (try --help)\n");
    return 2;
  }
  if (args.has("--verify") && args.get("--arch").empty()) {
    std::fprintf(stderr, "pimasm: --verify requires --arch (try --help)\n");
    return 2;
  }
  const std::string& out = args.get("--out");
  try {
    if (args.has("--disasm")) {
      const std::string text = isa::disassemble(isa::Program::load(input));
      if (out.empty()) {
        std::fputs(text.c_str(), stdout);
      } else {
        tools::write_text("pimasm", out, text);
      }
      return 0;
    }
    if (args.has("--verify")) {
      isa::Program p = isa::Program::load(input);
      auto errors = p.verify(tools::arch_by_name_or_file(args.get("--arch")));
      for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
      std::printf("%s: %zu instructions, %zu groups, %zu violations\n", input.c_str(),
                  p.total_instructions(), p.total_groups(), errors.size());
      return errors.empty() ? 0 : 1;
    }
    // Assemble.
    std::ifstream in(input);
    if (!in) throw std::runtime_error("cannot open " + input);
    std::ostringstream ss;
    ss << in.rdbuf();
    isa::Program p = isa::assemble(ss.str());
    const std::string path = out.empty() ? "program.json" : out;
    p.save(path);
    std::printf("wrote %s: %zu instructions on %zu cores\n", path.c_str(), p.total_instructions(),
                p.cores.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pimasm: %s\n", e.what());
    return 1;
  }
}
