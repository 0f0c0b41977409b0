#include "arch/noc.h"

#include <stdexcept>
#include <string>

#include "telemetry/telemetry.h"

namespace pim::arch {

Noc::Noc(sim::Kernel& kernel, const config::ArchConfig& cfg, EnergyMeter& energy)
    : kernel_(kernel), cfg_(cfg), energy_(energy), clock_(kernel, cfg.noc.freq_mhz),
      gmem_link_(kernel) {
  links_.resize(cfg.core_count);
  for (uint16_t id = 0; id < cfg.core_count; ++id) {
    const uint16_t x = node_x(id), y = node_y(id);
    if (x + 1u < cfg.mesh_width) links_[id][0] = std::make_unique<Link>(kernel);
    if (x > 0) links_[id][1] = std::make_unique<Link>(kernel);
    if (y + 1u < cfg.mesh_height) links_[id][2] = std::make_unique<Link>(kernel);
    if (y > 0) links_[id][3] = std::make_unique<Link>(kernel);
  }
}

Link& Noc::link_between(uint16_t a, uint16_t b) {
  const int ax = node_x(a), ay = node_y(a), bx = node_x(b), by = node_y(b);
  int dir;
  if (bx == ax + 1 && by == ay) dir = 0;
  else if (bx == ax - 1 && by == ay) dir = 1;
  else if (bx == ax && by == ay + 1) dir = 2;
  else if (bx == ax && by == ay - 1) dir = 3;
  else throw std::logic_error("link_between: nodes not adjacent");
  Link* l = links_[a][static_cast<size_t>(dir)].get();
  if (l == nullptr) throw std::logic_error("link_between: link does not exist");
  return *l;
}

std::vector<Link*> Noc::route(uint16_t from, uint16_t to) {
  // Global memory hangs off router 0 through its own link.
  std::vector<Link*> path;
  if (from == kGlobalMemNode) path.push_back(&gmem_link_);
  uint16_t cur = from == kGlobalMemNode ? 0 : from;
  const uint16_t end = to == kGlobalMemNode ? 0 : to;
  // X first, then Y (dimension-ordered; deadlock-free for meshes).
  while (node_x(cur) != node_x(end)) {
    const uint16_t next = static_cast<uint16_t>(node_x(cur) < node_x(end) ? cur + 1 : cur - 1);
    path.push_back(&link_between(cur, next));
    cur = next;
  }
  while (node_y(cur) != node_y(end)) {
    const uint16_t next = static_cast<uint16_t>(
        node_y(cur) < node_y(end) ? cur + cfg_.mesh_width : cur - cfg_.mesh_width);
    path.push_back(&link_between(cur, next));
    cur = next;
  }
  if (to == kGlobalMemNode) path.push_back(&gmem_link_);
  return path;
}

uint32_t Noc::hop_count(uint16_t from, uint16_t to) const {
  auto coord = [this](uint16_t id) -> std::pair<int, int> {
    if (id == kGlobalMemNode) return {0, 0};
    return {node_x(id), node_y(id)};
  };
  auto [fx, fy] = coord(from);
  auto [tx, ty] = coord(to);
  uint32_t extra = (from == kGlobalMemNode ? 1u : 0u) + (to == kGlobalMemNode ? 1u : 0u);
  return static_cast<uint32_t>(std::abs(fx - tx) + std::abs(fy - ty)) + extra;
}

void Noc::attach_trace(telemetry::TraceSink& sink, uint32_t pid) {
  static constexpr const char* kDirNames[4] = {"+x", "-x", "+y", "-y"};
  for (size_t id = 0; id < links_.size(); ++id) {
    for (size_t dir = 0; dir < 4; ++dir) {
      Link* l = links_[id][dir].get();
      if (l == nullptr) continue;
      l->trace_tid =
          sink.tid(pid, "noc/r" + std::to_string(id) + "/" + kDirNames[dir]);
      l->busy.attach_trace(l->trace_tid);
    }
  }
  gmem_link_.trace_tid = sink.tid(pid, "noc/gmem");
  gmem_link_.busy.attach_trace(gmem_link_.trace_tid);
}

void Noc::charge(uint64_t bytes, size_t hops) {
  total_byte_hops_ += bytes * hops;
  ++total_messages_;
  energy_.add(Component::Noc,
              cfg_.noc.energy_pj_per_byte_hop * static_cast<double>(bytes * hops));
}

}  // namespace pim::arch
