// Mesh network-on-chip model with synchronized (rendezvous) transfers.
//
// Topology: mesh_width x mesh_height routers, one per core, plus a global
// memory port attached to router 0. Routing is dimension-ordered XY
// (X first). Each directed link is a Resource(1): a message occupies each
// link on its path for ceil(bytes / link_width) NoC cycles (store-and-
// forward) plus hop_latency cycles of router traversal. Link contention
// between concurrent messages is therefore modeled physically, not
// statistically.
//
// Transfers are *synchronized* (paper §II: "transfer instructions are
// synchronized to simplify the hardware design"): a SEND blocks until the
// matching RECV is posted on the destination core, then the payload moves.
// This is the mechanism behind the paper's Fig. 5 analysis — MNSIM2.0's
// fully asynchronous, infinitely-buffered communication is the contrasting
// idealistic model (see pim::mnsim).
//
// The one walk over a route lives in Core::exec_transfer: it takes the
// route's links one at a time from next_link(), holds each for hop_ps() +
// serialization_ps(bytes) in turn, then calls charge(bytes, hops). A Route
// is a few coordinates, so a message allocates nothing and a Noc keeps no
// per-pair route table.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "arch/stats.h"
#include "config/arch_config.h"
#include "sim/kernel.h"

namespace pim::arch {

/// One directed mesh link with single-message occupancy.
struct Link {
  explicit Link(sim::Kernel& k) : busy(k, 1) {}
  sim::Resource busy;
  uint64_t bytes_carried = 0;
  uint64_t messages = 0;
  /// Trace row for this link's occupancy spans; 0 = untraced (the fast
  /// path: transfer coroutines emit only when nonzero).
  uint32_t trace_tid = 0;
};

/// FIFO of records that live in the frames of the coroutines waiting on
/// them. A record stays put until its peer pops it, so the queue owns no
/// storage.
template <typename T>
struct IntrusiveFifo {
  T* head = nullptr;
  T* tail = nullptr;

  bool empty() const { return head == nullptr; }
  void push(T& x) {
    x.next = nullptr;
    (tail != nullptr ? tail->next : head) = &x;
    tail = &x;
  }
  /// The oldest record, unlinked; nullptr when empty.
  T* pop() {
    T* x = head;
    if (x != nullptr) {
      head = x->next;
      if (head == nullptr) tail = nullptr;
    }
    return x;
  }
};

/// Rendezvous bookkeeping for one (src core, dst core) ordered pair.
/// Matching is FIFO per pair; tags are cross-checked at match time.
struct Channel {
  struct PendingSend {
    uint16_t tag = 0;
    sim::Event* recv_arrived = nullptr;  ///< notified when the RECV posts
    PendingSend* next = nullptr;
  };
  struct PendingRecv {
    uint16_t tag = 0;
    uint32_t dst_addr = 0;
    uint64_t bytes = 0;
    sim::Event* delivered = nullptr;  ///< notified when payload is written
    PendingRecv* next = nullptr;
  };
  IntrusiveFifo<PendingSend> sends;
  IntrusiveFifo<PendingRecv> recvs;
};

/// The chip interconnect: links, routing, rendezvous channels.
class Noc {
 public:
  /// Router id of the global-memory port (attached beside router 0).
  static constexpr uint16_t kGlobalMemNode = 0xFFFF;

  Noc(sim::Kernel& kernel, const config::ArchConfig& cfg, EnergyMeter& energy);

  /// The rest of an XY route (X first, then Y): the router it stands at, the
  /// end router, and the global-memory link still to take at either end.
  struct Route {
    uint16_t x = 0, y = 0;
    uint16_t end_x = 0, end_y = 0;
    bool gmem_first = false;
    bool gmem_last = false;
    /// Links left to traverse.
    uint32_t hops() const {
      return static_cast<uint32_t>((x > end_x ? x - end_x : end_x - x) +
                                   (y > end_y ? y - end_y : end_y - y) + gmem_first +
                                   gmem_last);
    }
  };

  /// Route between two nodes. Node id == core id, or kGlobalMemNode.
  Route route_of(uint16_t from, uint16_t to) const;
  /// The next directed link of `r`, advancing it; nullptr once it is done.
  Link* next_link(Route& r);

  /// Mesh hops between two nodes (for analytic models and tests).
  uint32_t hop_count(uint16_t from, uint16_t to) const { return route_of(from, to).hops(); }

  Channel& channel(uint16_t src, uint16_t dst) { return channels_[key(src, dst)]; }

  /// Serialization time of `bytes` through one link, in ps.
  sim::Time serialization_ps(uint64_t bytes) const {
    return clock_.to_ps((bytes + cfg_.noc.link_bytes_per_cycle - 1) /
                        cfg_.noc.link_bytes_per_cycle);
  }
  /// Router traversal time per hop, in ps.
  sim::Time hop_ps() const { return clock_.to_ps(cfg_.noc.hop_latency_cycles); }

  /// Account energy and byte-hop statistics for a delivered message.
  void charge(uint64_t bytes, size_t hops);

  /// Give every link a trace row under process `pid` ("noc/r{router}/{dir}"
  /// and "noc/gmem") and attach its queue counter. Occupancy spans are then
  /// emitted by the transfer coroutines in core.cpp.
  void attach_trace(telemetry::TraceSink& sink, uint32_t pid);

  uint64_t total_byte_hops() const { return total_byte_hops_; }
  uint64_t total_messages() const { return total_messages_; }

 private:
  static uint32_t key(uint16_t src, uint16_t dst) {
    return (static_cast<uint32_t>(src) << 16) | dst;
  }
  uint16_t node_x(uint16_t id) const { return static_cast<uint16_t>(id % cfg_.mesh_width); }
  uint16_t node_y(uint16_t id) const { return static_cast<uint16_t>(id / cfg_.mesh_width); }

  sim::Kernel& kernel_;
  const config::ArchConfig& cfg_;
  EnergyMeter& energy_;
  sim::Clock clock_;
  /// links_[router][direction]; directions: 0=+x, 1=-x, 2=+y, 3=-y.
  std::vector<std::array<std::unique_ptr<Link>, 4>> links_;
  Link gmem_link_;
  std::map<uint32_t, Channel> channels_;
  uint64_t total_byte_hops_ = 0;
  uint64_t total_messages_ = 0;
};

}  // namespace pim::arch
