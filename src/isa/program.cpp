#include "isa/program.h"

#include <algorithm>

#include "common/strings.h"
#include "config/arch_config.h"

namespace pim::isa {

std::vector<const GroupDef*> CoreProgram::group_table() const {
  uint16_t max_id = 0;
  for (const GroupDef& g : groups) max_id = std::max(max_id, g.id);
  std::vector<const GroupDef*> table(groups.empty() ? 0 : size_t{max_id} + 1, nullptr);
  for (const GroupDef& g : groups) {
    if (table[g.id] == nullptr) table[g.id] = &g;
  }
  return table;
}

uint32_t CoreProgram::xbars_used() const {
  uint32_t total = 0;
  for (const GroupDef& g : groups) total += g.xbar_count;
  return total;
}

uint64_t CoreProgram::lm_high_water() const {
  uint64_t mark = 0;
  for (const DataSegment& seg : lm_init) {
    mark = std::max(mark, seg.addr + uint64_t{seg.bytes.size()});
  }
  const std::vector<const GroupDef*> table = group_table();
  for (const Instruction& in : code) {
    const GroupDef* g = nullptr;
    if (in.cls() == InstrClass::Matrix) {
      g = in.group < table.size() ? table[in.group] : nullptr;
      if (g == nullptr) continue;  // verify rejects it; nothing to size
    }
    local_ranges(in, g != nullptr ? g->out_len : 0,
                 [&mark](const LocalRange& r) { mark = std::max(mark, r.addr + r.bytes); });
  }
  return mark;
}

bool VerifyProof::covers(const Program& program, const config::ArchConfig& cfg) const {
  return program.cores.data() == cores_ && program.cores.size() == core_count_ &&
         config::arch_key(cfg) == arch_key_;
}

size_t Program::total_instructions() const {
  size_t n = 0;
  for (const CoreProgram& c : cores) n += c.code.size();
  return n;
}

size_t Program::total_groups() const {
  size_t n = 0;
  for (const CoreProgram& c : cores) n += c.groups.size();
  return n;
}

namespace {

/// Bytes one core sends to (or receives from) another under one tag. The
/// key packs (src, dst, tag) so that ordering keys orders the triples.
struct Flow {
  uint64_t key;
  int64_t bytes;
};

uint64_t flow_key(uint16_t src, uint16_t dst, uint16_t tag) {
  return (uint64_t{src} << 32) | (uint64_t{dst} << 16) | tag;
}

void add_flow(std::vector<Flow>& flows, uint64_t key, int64_t bytes) {
  // Transfers of one layer repeat a key back to back; fold them here so the
  // sort sees one entry per run.
  if (!flows.empty() && flows.back().key == key) {
    flows.back().bytes += bytes;
  } else {
    flows.push_back(Flow{key, bytes});
  }
}

/// Sort by key and fold equal keys into one total.
void merge_flows(std::vector<Flow>& flows) {
  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.key < b.key; });
  size_t out = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    if (out > 0 && flows[out - 1].key == flows[i].key) {
      flows[out - 1].bytes += flows[i].bytes;
    } else {
      flows[out++] = flows[i];
    }
  }
  flows.resize(out);
}

/// The merged flow with `key`, or nullptr; `cursor` walks `flows` forward
/// across calls with ascending keys.
const Flow* find_flow(const std::vector<Flow>& flows, size_t& cursor, uint64_t key) {
  while (cursor < flows.size() && flows[cursor].key < key) ++cursor;
  return cursor < flows.size() && flows[cursor].key == key ? &flows[cursor] : nullptr;
}

}  // namespace

std::vector<std::string> Program::verify(const config::ArchConfig& cfg,
                                         std::optional<VerifyProof>* proof) const {
  std::vector<std::string> errs;
  auto err = [&errs](std::string msg) { errs.push_back(std::move(msg)); };

  if (cores.size() > cfg.core_count) {
    err(strformat("program uses %zu cores but architecture has %u", cores.size(),
                  cfg.core_count));
  }
  const uint64_t lm_size = cfg.core.local_memory.size_bytes;
  const uint32_t xbar_rows = cfg.core.matrix.xbar.rows;

  // SEND/RECV byte totals, paired by (src, dst, tag) after the walk.
  std::vector<Flow> send_bytes;
  std::vector<Flow> recv_bytes;

  for (size_t core_id = 0; core_id < cores.size(); ++core_id) {
    const CoreProgram& cp = cores[core_id];
    // Cores not used by this program are legitimately empty.
    if (cp.code.empty() && cp.groups.empty() && cp.lm_init.empty()) continue;
    auto loc = [&](size_t pc) { return strformat("core %zu pc %zu: ", core_id, pc); };

    const uint32_t xbars = cp.xbars_used();
    if (xbars > cfg.core.matrix.xbar_count) {
      err(strformat("core %zu maps %u crossbars but only %u exist", core_id, xbars,
                    cfg.core.matrix.xbar_count));
    }
    const std::vector<const GroupDef*> groups = cp.group_table();
    for (const GroupDef& g : cp.groups) {
      if (groups[g.id] != &g) {
        err(strformat("core %zu: duplicate group id %u", core_id, g.id));
      }
      if (g.in_len == 0 || g.out_len == 0) {
        err(strformat("core %zu group %u: empty matrix slice", core_id, g.id));
      }
      if (g.in_len > xbar_rows) {
        err(strformat("core %zu group %u: in_len %u exceeds crossbar rows %u", core_id, g.id,
                      g.in_len, xbar_rows));
      }
      if (!g.weights.empty() &&
          g.weights.size() != static_cast<size_t>(g.in_len) * g.out_len) {
        err(strformat("core %zu group %u: weight blob size %zu != %u x %u", core_id, g.id,
                      g.weights.size(), g.in_len, g.out_len));
      }
    }

    if (cp.code.empty() || cp.code.back().op != Opcode::HALT) {
      err(strformat("core %zu: program does not end with HALT", core_id));
    }

    for (const DataSegment& seg : cp.lm_init) {
      if (seg.addr + seg.bytes.size() > lm_size) {
        err(strformat("core %zu: data segment [0x%x, +%zu) exceeds local memory", core_id,
                      seg.addr, seg.bytes.size()));
      }
    }

    for (size_t pc = 0; pc < cp.code.size(); ++pc) {
      const Instruction& in = cp.code[pc];
      // Class checks first, then the local-memory ranges, then (global
      // transfers) the global side: the order the messages come out in.
      const GroupDef* g = nullptr;
      const uint32_t len_max = op_info(in.op).format->len_max;
      const bool len_encodable = in.len != 0 && in.len <= len_max;
      switch (in.cls()) {
        case InstrClass::Matrix: {
          g = in.group < groups.size() ? groups[in.group] : nullptr;
          if (g == nullptr) {
            err(loc(pc) + strformat("mvm references undefined group %u", in.group));
            continue;
          }
          if (in.len != g->in_len) {
            err(loc(pc) + strformat("mvm len %u != group %u in_len %u", in.len, in.group,
                                    g->in_len));
          }
          if (!len_encodable) err(loc(pc) + "mvm len out of encodable range");
          break;
        }
        case InstrClass::Vector:
          if (!len_encodable) {
            err(loc(pc) + strformat("vector len %u out of encodable range [1,%u]", in.len, len_max));
          }
          break;
        case InstrClass::Transfer:
          if (in.op == Opcode::SEND || in.op == Opcode::RECV) {
            if (!len_encodable) {
              err(loc(pc) + strformat("transfer len out of encodable range [1,%u]", len_max));
            }
            if (in.core >= cfg.core_count) {
              err(loc(pc) + strformat("transfer peer core %u out of range", in.core));
            }
            if (in.core == core_id) {
              // A core's transfer unit executes one instruction at a time, so
              // a rendezvous with oneself can never complete (the SEND holds
              // the unit the RECV needs). Local moves use VMOV.
              err(loc(pc) + "transfer peer is the issuing core (use vmov for local copies)");
            }
            const auto self = static_cast<uint16_t>(core_id);
            const auto bytes = static_cast<int64_t>(uint64_t{in.len} * dtype_size(in.dtype));
            if (in.op == Opcode::SEND) {
              add_flow(send_bytes, flow_key(self, in.core, in.tag), bytes);
            } else {
              add_flow(recv_bytes, flow_key(in.core, self, in.tag), bytes);
            }
          } else if (!len_encodable) {
            err(loc(pc) + strformat("global transfer len out of encodable range [1,%u]", len_max));
          }
          break;
        case InstrClass::Scalar: {
          if (is_branch(in.op) &&
              (in.imm < 0 || static_cast<size_t>(in.imm) >= cp.code.size())) {
            err(loc(pc) + strformat("branch target %d out of range", in.imm));
          }
          if (in.rd >= cfg.core.register_count || in.rs1 >= cfg.core.register_count ||
              in.rs2 >= cfg.core.register_count) {
            err(loc(pc) + "register index out of range");
          }
          break;
        }
      }
      local_ranges(in, g != nullptr ? g->out_len : 0, [&](const LocalRange& r) {
        if (r.addr + r.bytes > lm_size) {
          err(loc(pc) + strformat("%s range [0x%x, +%llu) exceeds local memory (%llu bytes)",
                                  r.name, r.addr, static_cast<unsigned long long>(r.bytes),
                                  static_cast<unsigned long long>(lm_size)));
        }
      });
      if (in.op == Opcode::GLOAD || in.op == Opcode::GSTORE) {
        const uint64_t gaddr = static_cast<uint32_t>(in.imm);
        if (gaddr + uint64_t{in.len} * dtype_size(in.dtype) > cfg.global_memory.size_bytes) {
          err(loc(pc) + "global transfer exceeds global memory size");
        }
      }
    }
  }

  // Every SEND must have a matching RECV moving the same byte count.
  merge_flows(send_bytes);
  merge_flows(recv_bytes);
  size_t cursor = 0;
  for (const Flow& s : send_bytes) {
    const auto src = static_cast<unsigned>(s.key >> 32);
    const auto dst = static_cast<unsigned>((s.key >> 16) & 0xFFFF);
    const auto tag = static_cast<unsigned>(s.key & 0xFFFF);
    const Flow* r = find_flow(recv_bytes, cursor, s.key);
    if (r == nullptr) {
      err(strformat("send core %u -> core %u tag %u has no matching recv", src, dst, tag));
    } else if (r->bytes != s.bytes) {
      err(strformat("send/recv byte mismatch core %u -> core %u tag %u: %lld vs %lld", src,
                    dst, tag, static_cast<long long>(s.bytes),
                    static_cast<long long>(r->bytes)));
    }
  }
  cursor = 0;
  for (const Flow& r : recv_bytes) {
    if (find_flow(send_bytes, cursor, r.key) == nullptr) {
      err(strformat("recv core %u <- core %u tag %u has no matching send",
                    static_cast<unsigned>((r.key >> 16) & 0xFFFF),
                    static_cast<unsigned>(r.key >> 32), static_cast<unsigned>(r.key & 0xFFFF)));
    }
  }
  if (proof != nullptr) {
    proof->reset();
    if (errs.empty()) *proof = VerifyProof(cores.data(), cores.size(), config::arch_key(cfg));
  }
  return errs;
}

// ------------------------------------------------------------- serialization

namespace {
json::Value instr_to_json(const Instruction& in) {
  json::Value v;
  v["op"] = json::Value(opcode_name(in.op));
  if (in.dtype != DType::I8) v["dtype"] = json::Value("i32");
  for (size_t f = 0; f < kFieldCount; ++f) {
    const int64_t x = get_field(in, static_cast<Field>(f));
    if (x != 0) v[field_name(static_cast<Field>(f))] = json::Value(x);
  }
  if (in.layer_id >= 0) v["layer"] = json::Value(in.layer_id);
  return v;
}

Instruction instr_from_json(const json::Value& v) {
  Instruction in;
  in.op = opcode_from_name(v.at("op").as_string());
  in.dtype = v.get_or("dtype", std::string("i8")) == "i32" ? DType::I32 : DType::I8;
  for (size_t f = 0; f < kFieldCount; ++f) {
    set_field(in, static_cast<Field>(f), v.get_or(field_name(static_cast<Field>(f)), 0));
  }
  in.layer_id = static_cast<int32_t>(v.get_or("layer", -1));
  return in;
}
}  // namespace

json::Value Program::to_json(bool include_weights) const {
  json::Value v;
  v["network"] = json::Value(network_name);
  v["mapping_policy"] = json::Value(mapping_policy);
  json::Array cores_json;
  for (const CoreProgram& cp : cores) {
    json::Value c;
    json::Array groups_json;
    for (const GroupDef& g : cp.groups) {
      json::Value gj;
      gj["id"] = json::Value(g.id);
      gj["in_len"] = json::Value(g.in_len);
      gj["out_len"] = json::Value(g.out_len);
      gj["xbar_count"] = json::Value(g.xbar_count);
      gj["out_shift"] = json::Value(g.out_shift);
      if (include_weights && !g.weights.empty()) {
        json::Array w;
        w.reserve(g.weights.size());
        for (int8_t x : g.weights) w.emplace_back(static_cast<int64_t>(x));
        gj["weights"] = json::Value(std::move(w));
      }
      groups_json.push_back(std::move(gj));
    }
    c["groups"] = json::Value(std::move(groups_json));
    if (!cp.lm_init.empty()) {
      json::Array segs;
      for (const DataSegment& seg : cp.lm_init) {
        json::Value sj;
        sj["addr"] = json::Value(seg.addr);
        json::Array data;
        data.reserve(seg.bytes.size());
        for (uint8_t b : seg.bytes) data.emplace_back(static_cast<int64_t>(b));
        sj["bytes"] = json::Value(std::move(data));
        segs.push_back(std::move(sj));
      }
      c["lm_init"] = json::Value(std::move(segs));
    }
    json::Array code_json;
    code_json.reserve(cp.code.size());
    for (const Instruction& in : cp.code) code_json.push_back(instr_to_json(in));
    c["code"] = json::Value(std::move(code_json));
    cores_json.push_back(std::move(c));
  }
  v["cores"] = json::Value(std::move(cores_json));
  return v;
}

Program Program::from_json(const json::Value& v) {
  Program p;
  p.network_name = v.get_or("network", "");
  p.mapping_policy = v.get_or("mapping_policy", "");
  for (const json::Value& c : v.at("cores").as_array()) {
    CoreProgram cp;
    for (const json::Value& gj : c.at("groups").as_array()) {
      GroupDef g;
      g.id = static_cast<uint16_t>(gj.at("id").as_int());
      g.in_len = static_cast<uint32_t>(gj.at("in_len").as_int());
      g.out_len = static_cast<uint32_t>(gj.at("out_len").as_int());
      g.xbar_count = static_cast<uint32_t>(gj.at("xbar_count").as_int());
      g.out_shift = static_cast<int32_t>(gj.get_or("out_shift", 0));
      if (gj.contains("weights")) {
        for (const json::Value& w : gj.at("weights").as_array()) {
          g.weights.push_back(static_cast<int8_t>(w.as_int()));
        }
      }
      cp.groups.push_back(std::move(g));
    }
    if (c.contains("lm_init")) {
      for (const json::Value& sj : c.at("lm_init").as_array()) {
        DataSegment seg;
        seg.addr = static_cast<uint32_t>(sj.at("addr").as_int());
        for (const json::Value& b : sj.at("bytes").as_array()) {
          seg.bytes.push_back(static_cast<uint8_t>(b.as_int()));
        }
        cp.lm_init.push_back(std::move(seg));
      }
    }
    for (const json::Value& ij : c.at("code").as_array()) {
      cp.code.push_back(instr_from_json(ij));
    }
    p.cores.push_back(std::move(cp));
  }
  return p;
}

void Program::save(const std::string& path, bool include_weights) const {
  json::write_file(path, to_json(include_weights), /*indent=*/-1);
}

Program Program::load(const std::string& path) { return from_json(json::parse_file(path)); }

}  // namespace isa
