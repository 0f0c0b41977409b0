#include "isa/assembler.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "common/strings.h"

namespace pim::isa {

namespace {

[[noreturn]] void fail(size_t line, const std::string& msg) {
  throw std::invalid_argument("asm line " + std::to_string(line) + ": " + msg);
}

/// Strip comment and whitespace; returns empty for blank lines.
std::string_view clean(std::string_view line) {
  size_t hash = line.find_first_of("#;");
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return trim(line);
}

/// Parse "key=value" or bare tokens from a comma-separated operand list.
struct Operands {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;
};

Operands parse_operands(std::string_view text, size_t line) {
  Operands ops;
  if (trim(text).empty()) return ops;
  for (std::string& piece : split(text, ',')) {
    std::string tok(trim(piece));
    if (tok.empty()) fail(line, "empty operand");
    size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      ops.named[std::string(trim(tok.substr(0, eq)))] = std::string(trim(tok.substr(eq + 1)));
    } else {
      ops.positional.push_back(tok);
    }
  }
  return ops;
}

int64_t parse_int(const std::string& tok, size_t line) {
  char* end = nullptr;
  long long v = std::strtoll(tok.c_str(), &end, 0);  // handles 0x, decimal
  if (end == tok.c_str() || *end != '\0') fail(line, "expected a number, got '" + tok + "'");
  return v;
}

uint8_t parse_reg(const std::string& tok, size_t line) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) {
    fail(line, "expected a register (rN), got '" + tok + "'");
  }
  return static_cast<uint8_t>(parse_int(tok.substr(1), line));
}

DType parse_dtype(const std::string& tok, size_t line) {
  std::string t = to_lower(tok);
  if (t == "i8") return DType::I8;
  if (t == "i32") return DType::I32;
  fail(line, "expected dtype i8|i32, got '" + tok + "'");
}

}  // namespace

Program assemble(std::string_view text) {
  Program program;
  program.cores.emplace_back();
  size_t current_core = 0;

  struct Fixup {
    size_t core;
    size_t pc;
    std::string label;
    size_t line;
  };
  // Labels are scoped per core.
  std::map<std::pair<size_t, std::string>, int32_t> labels;
  std::vector<Fixup> fixups;

  size_t line_no = 0;
  for (std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string_view line = clean(raw);
    if (line.empty()) continue;

    // Label definitions (possibly followed by an instruction).
    while (true) {
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) break;
      std::string label(trim(line.substr(0, colon)));
      if (label.empty() || label.find(' ') != std::string::npos) break;  // e.g. "g:0x..."
      if (label.find("0x") == 0 || to_lower(label) == "g") break;
      labels[{current_core, label}] =
          static_cast<int32_t>(program.cores[current_core].code.size());
      line = trim(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) continue;

    // Directives.
    if (line[0] == '.') {
      size_t sp = line.find_first_of(" \t");
      std::string directive(line.substr(0, sp));
      std::string rest = sp == std::string_view::npos ? "" : std::string(line.substr(sp + 1));
      if (directive == ".core") {
        size_t core = static_cast<size_t>(parse_int(std::string(trim(rest)), line_no));
        while (program.cores.size() <= core) program.cores.emplace_back();
        current_core = core;
      } else if (directive == ".group") {
        Operands ops = parse_operands(rest, line_no);
        GroupDef g;
        auto need = [&](const char* key) -> std::string {
          auto it = ops.named.find(key);
          if (it == ops.named.end()) fail(line_no, std::string(".group missing ") + key);
          return it->second;
        };
        g.id = static_cast<uint16_t>(parse_int(need("id"), line_no));
        g.in_len = static_cast<uint32_t>(parse_int(need("in"), line_no));
        g.out_len = static_cast<uint32_t>(parse_int(need("out"), line_no));
        g.xbar_count = static_cast<uint32_t>(parse_int(need("xbars"), line_no));
        if (ops.named.count("shift")) {
          g.out_shift = static_cast<int32_t>(parse_int(ops.named["shift"], line_no));
        }
        program.cores[current_core].groups.push_back(g);
      } else if (directive == ".network") {
        program.network_name = std::string(trim(rest));
      } else {
        fail(line_no, "unknown directive '" + directive + "'");
      }
      continue;
    }

    // Instruction: mnemonic + operands.
    size_t sp = line.find_first_of(" \t");
    std::string mnemonic(line.substr(0, sp));
    std::string rest = sp == std::string_view::npos ? "" : std::string(line.substr(sp + 1));
    Opcode op;
    try {
      op = opcode_from_name(mnemonic);
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
    Operands ops = parse_operands(rest, line_no);
    Instruction in;
    in.op = op;

    // Fields in text order: positional ones take the operands in turn,
    // named ones ("len=64") may stand anywhere. A bare i8/i32 operand names
    // the element type, and a two-source vector op may leave out src2.
    const Format& format = *op_info(op).format;
    if (format.dtype) {
      std::erase_if(ops.positional, [&](const std::string& tok) {
        if (tok != "i8" && tok != "i32") return false;
        in.dtype = parse_dtype(tok, line_no);
        return true;
      });
    }
    size_t next = 0;
    for (const Operand& o : format.operands()) {
      if (o.syntax == Syntax::Named) {
        auto it = ops.named.find(field_name(o.field));
        if (it != ops.named.end()) set_field(in, o.field, parse_int(it->second, line_no));
        continue;
      }
      if (next == ops.positional.size()) {
        if (o.field == Field::Src2) continue;
        fail(line_no, strformat("%s: missing %s operand", mnemonic.c_str(), field_name(o.field)));
      }
      const std::string& tok = ops.positional[next++];
      int64_t v = 0;
      switch (o.syntax) {
        case Syntax::Addr:
        case Syntax::Global:
          v = parse_int(starts_with(tok, "g:") ? tok.substr(2) : tok, line_no);
          break;
        case Syntax::Group:
          if (tok.empty() || (tok[0] != 'g' && tok[0] != 'G')) {
            fail(line_no, "expected a group (gN), got '" + tok + "'");
          }
          v = parse_int(tok.substr(1), line_no);
          break;
        case Syntax::Reg: v = parse_reg(tok, line_no); break;
        case Syntax::Target:
          if (tok.empty() || !(std::isdigit(static_cast<unsigned char>(tok[0])) ||
                               tok[0] == '-' || tok[0] == '+')) {
            fixups.push_back({current_core, program.cores[current_core].code.size(), tok,
                              line_no});
            continue;
          }
          v = parse_int(tok, line_no);
          break;
        case Syntax::Int: v = parse_int(tok, line_no); break;
        case Syntax::Named: break;
      }
      set_field(in, o.field, v);
    }
    program.cores[current_core].code.push_back(in);
  }

  for (const Fixup& fx : fixups) {
    auto it = labels.find({fx.core, fx.label});
    if (it == labels.end()) fail(fx.line, "undefined label '" + fx.label + "'");
    program.cores[fx.core].code[fx.pc].imm = it->second;
  }
  return program;
}

std::string disassemble(const Program& program) {
  std::string out;
  if (!program.network_name.empty()) {
    out += ".network " + program.network_name + "\n";
  }
  for (size_t core = 0; core < program.cores.size(); ++core) {
    const CoreProgram& cp = program.cores[core];
    out += strformat(".core %zu\n", core);
    for (const GroupDef& g : cp.groups) {
      out += strformat(".group id=%u, in=%u, out=%u, xbars=%u, shift=%d\n", g.id, g.in_len,
                       g.out_len, g.xbar_count, g.out_shift);
    }
    for (const Instruction& in : cp.code) {
      out += "  " + to_string(in) + "\n";
    }
  }
  return out;
}

}  // namespace pim::isa
