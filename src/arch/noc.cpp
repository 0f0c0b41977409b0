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

Noc::Route Noc::route_of(uint16_t from, uint16_t to) const {
  // Global memory hangs off router 0 through its own link.
  Route r;
  r.gmem_first = from == kGlobalMemNode;
  r.gmem_last = to == kGlobalMemNode;
  const uint16_t start = r.gmem_first ? 0 : from;
  const uint16_t end = r.gmem_last ? 0 : to;
  r.x = node_x(start);
  r.y = node_y(start);
  r.end_x = node_x(end);
  r.end_y = node_y(end);
  return r;
}

Link* Noc::next_link(Route& r) {
  if (r.gmem_first) {
    r.gmem_first = false;
    return &gmem_link_;
  }
  // X first, then Y (dimension-ordered; deadlock-free for meshes). The mesh
  // is full (validate: width * height == core_count), so every link exists.
  auto& out = links_[size_t{r.y} * cfg_.mesh_width + r.x];
  if (r.x < r.end_x) {
    ++r.x;
    return out[0].get();
  }
  if (r.x > r.end_x) {
    --r.x;
    return out[1].get();
  }
  if (r.y < r.end_y) {
    ++r.y;
    return out[2].get();
  }
  if (r.y > r.end_y) {
    --r.y;
    return out[3].get();
  }
  if (r.gmem_last) {
    r.gmem_last = false;
    return &gmem_link_;
  }
  return nullptr;
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
