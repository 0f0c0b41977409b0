#include "sim/kernel.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <exception>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace pim::sim {

// ------------------------------------------------------------- frame pool

#if defined(__SANITIZE_ADDRESS__)
#define PIM_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PIM_FRAME_POOL 0
#endif
#endif
#ifndef PIM_FRAME_POOL
#define PIM_FRAME_POOL 1
#endif

namespace {

#if PIM_FRAME_POOL
constexpr size_t kFrameClassBytes = 64;
constexpr size_t kFrameClasses = 16;    // pooled frames are at most 1 KiB
constexpr uint32_t kFramePoolCap = 4096;  // free frames kept per class

struct FreeFrame {
  FreeFrame* next;
};

// Trivially destructible, so it stays usable after FramePoolDrain below has
// run at thread exit; `closed` then sends every later free back to the heap.
struct FramePool {
  std::array<FreeFrame*, kFrameClasses> head;
  std::array<uint32_t, kFrameClasses> count;
  bool closed;
};
thread_local FramePool t_frames{};

struct FramePoolDrain {
  ~FramePoolDrain() {
    for (size_t c = 0; c < kFrameClasses; ++c) {
      while (FreeFrame* f = t_frames.head[c]) {
        t_frames.head[c] = f->next;
        ::operator delete(f, (c + 1) * kFrameClassBytes);
      }
      t_frames.count[c] = 0;
    }
    t_frames.closed = true;
  }
};
thread_local FramePoolDrain t_frames_drain;

/// Size class of a frame of `bytes`, or kFrameClasses when it is not pooled.
size_t frame_class(size_t bytes) {
  return bytes == 0 ? 0 : std::min((bytes - 1) / kFrameClassBytes, kFrameClasses);
}
#endif

}  // namespace

void* Process::promise_type::operator new(std::size_t bytes) {
#if PIM_FRAME_POOL
  const size_t c = frame_class(bytes);
  if (c == kFrameClasses) return ::operator new(bytes);
  if (FreeFrame* f = t_frames.head[c]) {
    t_frames.head[c] = f->next;
    --t_frames.count[c];
    return f;
  }
  return ::operator new((c + 1) * kFrameClassBytes);
#else
  return ::operator new(bytes);
#endif
}

void Process::promise_type::operator delete(void* frame, std::size_t bytes) noexcept {
#if PIM_FRAME_POOL
  const size_t c = frame_class(bytes);
  if (c == kFrameClasses) {
    ::operator delete(frame, bytes);
    return;
  }
  if (t_frames.closed || t_frames.count[c] >= kFramePoolCap) {
    ::operator delete(frame, (c + 1) * kFrameClassBytes);
    return;
  }
  (void)&t_frames_drain;  // constructs the thread's drain on first use
  auto* f = static_cast<FreeFrame*>(frame);
  f->next = t_frames.head[c];
  t_frames.head[c] = f;
  ++t_frames.count[c];
#else
  ::operator delete(frame, bytes);
#endif
}

// ------------------------------------------------------------------ Process

void Process::FinalAwaiter::await_suspend(Handle h) noexcept {
  promise_type& promise = h.promise();
  if (promise.kernel != nullptr) {
    promise.kernel->on_process_finished(h);
    // The frame belongs to the kernel once spawned; destroying here while
    // suspended at the final suspend point is the standard fire-and-forget
    // coroutine teardown.
    h.destroy();
  }
  // If never spawned, the owning Process object destroys the frame.
}

void Process::promise_type::unhandled_exception() {
  // A simulation process leaking an exception is a modeling bug; the kernel
  // cannot meaningfully unwind other processes, so fail fast and loudly.
  try {
    std::rethrow_exception(std::current_exception());
  } catch (const std::exception& e) {
    PIM_LOG(Error) << "unhandled exception in simulation process: " << e.what();
  } catch (...) {
    PIM_LOG(Error) << "unhandled non-standard exception in simulation process";
  }
  std::abort();
}

// -------------------------------------------------------------------- Event

void Event::notify() {
  if (kernel_->destroying_) {
    // Frames holding our queue nodes may already be destroyed; drop the
    // waiters without walking their links (nobody will run anyway).
    waiters_ = {};
    return;
  }
  if (trace_tid_ != 0 && kernel_->trace_ != nullptr && waiters_.count > 0) {
    kernel_->trace_->instant(trace_tid_, "notify", kernel_->now_);
  }
  // Detach the waiter chain first: a resumed process may immediately
  // co_await this event again and must land in the *next* notification.
  // Waking is pure scheduling (ring pushes), never recursive resumption.
  Process::promise_type* p = waiters_.take_all();
  while (p != nullptr) {
    Process::promise_type* next = p->wait_next;
    p->wait_next = nullptr;
    kernel_->schedule_now(Process::Handle::from_promise(*p));
    p = next;
  }
}

// ------------------------------------------------------------------- Kernel

// Queue storage of destroyed kernels, kept per thread for the next one.
// `t_spare_closed` is trivially destructible, so ~Kernel can still read it
// after the thread's SpareQueues is gone (a kernel destroyed at thread exit).
namespace {
thread_local bool t_spare_closed = false;
}  // namespace

struct Kernel::SpareQueues {
  std::vector<RingItem> ring;
  std::vector<WheelNode> wheel_pool;
  std::vector<HeapEntry> heap;
  ~SpareQueues() { t_spare_closed = true; }
};

Kernel::SpareQueues* Kernel::spare_queues() {
  if (t_spare_closed) return nullptr;
  thread_local SpareQueues spare;
  return &spare;
}

Kernel::Kernel(const Tuning& tuning) : tuning_(tuning) {
  if (SpareQueues* spare = spare_queues()) {
    // The ring's size is its capacity (a power of two); its contents are
    // dead. The wheel pool and the heap keep their capacity and drop their
    // entries.
    ring_ = std::move(spare->ring);
    wheel_pool_ = std::move(spare->wheel_pool);
    wheel_pool_.clear();
    heap_ = std::move(spare->heap);
    heap_.clear();
  }
}

Kernel::~Kernel() {
  destroying_ = true;
  // Destroy any still-suspended process frames so leak checkers stay quiet.
  // Snapshot the handles first: destroying a frame runs destructors (e.g. a
  // Resource::Lease release that schedules a hand-off) which must not mutate
  // the live list mid-walk (they don't — only final_suspend does — but the
  // snapshot keeps iteration valid regardless).
  std::vector<void*> frames;
  frames.reserve(live_count_);
  for (Process::promise_type* p = live_head_; p != nullptr; p = p->live_next) {
    frames.push_back(Process::Handle::from_promise(*p).address());
  }
  live_head_ = nullptr;
  live_count_ = 0;
  for (void* frame : frames) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
  if (SpareQueues* spare = spare_queues()) {
    if (ring_.size() > spare->ring.size()) spare->ring = std::move(ring_);
    if (wheel_pool_.capacity() > spare->wheel_pool.capacity()) {
      spare->wheel_pool = std::move(wheel_pool_);
    }
    if (heap_.capacity() > spare->heap.capacity()) spare->heap = std::move(heap_);
  }
}

void Kernel::spawn(Process process) {
  Process::Handle h = process.release();
  if (!h) return;
  Process::promise_type& p = h.promise();
  p.kernel = this;
  p.live_prev = nullptr;
  p.live_next = live_head_;
  if (live_head_ != nullptr) live_head_->live_prev = &p;
  live_head_ = &p;
  ++live_count_;
  schedule_now(h);
}

uint32_t Kernel::fn_park(std::function<void()> fn) {
  uint32_t slot;
  if (!fn_free_.empty()) {
    slot = fn_free_.back();
    fn_free_.pop_back();
    fn_slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(fn_slots_.size());
    fn_slots_.push_back(std::move(fn));
  }
  return slot;
}

void Kernel::call_at(Time t, std::function<void()> fn) {
  const uint32_t slot = fn_park(std::move(fn));
  const uint64_t seq = seq_++;
  if (t <= now_) {
    ring_push(RingItem{nullptr, seq, slot + 1});
  } else {
    future_push(t, seq, nullptr, slot + 1);
  }
}

void Kernel::wheel_cascade(uint32_t level, uint32_t slot) {
  // Detach the whole bucket, then re-place each node at its lower-level
  // position. Traversal order is insertion order, and wheel_append is a tail
  // append, so nodes that land in the same destination bucket keep their
  // relative order — which is seq order (see the invariant note in kernel.h).
  WheelBucket& b = wheel_[level][slot];
  uint32_t idx = b.head;
  b.head = b.tail = kWheelNil;
  wheel_occ_[level] &= ~(uint64_t{1} << slot);
  while (idx != kWheelNil) {
    WheelNode& node = wheel_pool_[idx];
    const uint32_t next = node.next;
    node.next = kWheelNil;
    // Bits below this level's group select the destination; all-zero means
    // the node's time is exactly the slot base, i.e. a level-0 slot.
    const uint64_t low = node.t & ((uint64_t{1} << (kWheelLevelBits * level)) - 1);
    const uint32_t nl =
        low == 0 ? 0
                 : (63u - static_cast<uint32_t>(std::countl_zero(low))) / kWheelLevelBits;
    const uint32_t ns =
        static_cast<uint32_t>(node.t >> (kWheelLevelBits * nl)) & (kWheelSlots - 1);
    wheel_append(nl, ns, idx);
    idx = next;
  }
}

Time Kernel::wheel_peek(Time bound) {
  // Earliest pending wheel time, cascading upper-level slots down as needed.
  // Occupied slot indices never trail the current index at their level, so a
  // plain ctz on the occupancy word finds the earliest slot; the lowest
  // nonempty level always wins (its slot widths are finer, and its entries
  // share now_'s window at the level above, so they precede every entry of a
  // coarser level).
  //
  // `bound` short-circuits the cascade: when the earliest upper-level slot's
  // base already reaches `bound` (a lower bound on every time in the slot),
  // nothing in the wheel fires before `bound`, so the slot stays parked and
  // the returned value is only a lower bound — callers compare it against
  // `bound`-or-later decisions, never advance to it.
  //
  // Cascading advances now_ to the slot boundary first. This is what keeps
  // every level's occupied slots inside now_'s current window at the level
  // above (so a direct insert and a cascaded node can never share a level-0
  // bucket with different timestamps): the boundary is ≤ every time in the
  // slot and < bound ≤ every other runnable event's time, so the move skips
  // nothing and time stays monotone. Callers only ever advance now_ further
  // (to an actual event time, or run()'s final until-clamp).
  for (;;) {
    uint32_t level = kWheelLevels;
    for (uint32_t l = 0; l < kWheelLevels; ++l) {
      if (wheel_occ_[l] != 0) {
        level = l;
        break;
      }
    }
    if (level == kWheelLevels) return kTimeMax;
    const uint32_t slot = static_cast<uint32_t>(std::countr_zero(wheel_occ_[level]));
    if (level == 0) {
      // Level-0 slots hold exactly one timestamp: the slot base plus index.
      return ((now_ >> kWheelLevelBits) << kWheelLevelBits) + slot;
    }
    const uint32_t shift = kWheelLevelBits * (level + 1);
    const Time slot_base = ((now_ >> shift) << shift) |
                           (Time{slot} << (kWheelLevelBits * level));
    if (slot_base >= bound) return slot_base;
    // slot_base ≤ now_ is possible after an until-clamp parked now_ inside
    // this slot's window; the cascade below is still correct (placement uses
    // absolute low bits of t) and strictly lowers each node's level.
    if (slot_base > now_) now_ = slot_base;
    wheel_cascade(level, slot);
  }
}

void Kernel::ring_grow() {
  const size_t old_cap = ring_.size();
  const size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;  // stays a power of two
  std::vector<RingItem> grown(new_cap);
  for (size_t i = 0; i < ring_count_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (old_cap - 1)];
  }
  ring_ = std::move(grown);
  ring_head_ = 0;
}

Kernel::HeapEntry Kernel::heap_pop() {
  HeapEntry top = heap_.front();
  HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
      if (!heap_less(heap_[child], last)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
  }
  return top;
}

void Kernel::run_callback(uint32_t fn) {
  // Move the callback out before invoking: the body may call_at and reuse
  // the slot.
  std::function<void()> f = std::move(fn_slots_[fn - 1]);
  fn_free_.push_back(fn - 1);
  f();
}

bool Kernel::step() {
  Time t;
  uint64_t seq;
  void* h;
  uint32_t fn;
  if (!heap_.empty() && heap_.front().t == now_) {
    // Heap entries at the current time were all scheduled before time
    // advanced here, so their seq numbers precede every wheel or ring
    // entry's (they were posted while now_ lay in a different wheel epoch).
    const HeapEntry e = heap_pop();
    t = e.t;
    seq = e.seq;
    h = e.h;
    fn = e.fn;
  } else if (wheel_at_now()) {
    // Wheel entries at the current time were scheduled while now_ was still
    // in the future, so they precede every ring entry (scheduled at now_).
    const WheelNode node = wheel_pop_now();
    t = node.t;
    seq = node.seq;
    h = node.h;
    fn = node.fn;
  } else if (ring_count_ > 0) {
    const RingItem item = ring_pop();
    t = now_;
    seq = item.seq;
    h = item.h;
    fn = item.fn;
  } else if (!heap_.empty() || wheel_count_ != 0) {
    // Advance to the earlier of the two future tiers. On a time tie the heap
    // fires first (smaller seq — see above); guard on !heap_.empty() because
    // an empty heap's kTimeMax sentinel can tie with a real wheel entry.
    // Bounding the peek by heap_top keeps cascades (which advance now_ to
    // slot boundaries) from overtaking a heap event that fires first.
    const Time heap_top = heap_.empty() ? kTimeMax : heap_.front().t;
    const Time wheel_t = wheel_count_ != 0 ? wheel_peek(heap_top) : kTimeMax;
    if (!heap_.empty() && heap_top <= wheel_t) {
      const HeapEntry e = heap_pop();
      now_ = e.t;
      t = e.t;
      seq = e.seq;
      h = e.h;
      fn = e.fn;
    } else {
      now_ = wheel_t;
      const WheelNode node = wheel_pop_now();
      t = node.t;
      seq = node.seq;
      h = node.h;
      fn = node.fn;
    }
  } else {
    return false;
  }
  exec(t, seq, h, fn);
  return true;
}

Time Kernel::run(Time until) {
  // Batch-drain loop. Two invariants let the per-event checks hoist out of
  // the inner loops: (1) ring entries always live at the current time, and
  // (2) firing an event can only push ring entries (at now) or heap entries
  // strictly in the future — so while draining one timestamp, no *new*
  // heap-at-now work can appear, and ring pushes append FIFO behind the
  // current batch.
  for (;;) {
    // Wall-clock watchdog: one predictable branch per outer iteration when
    // unarmed; when armed, the host clock is read every 64th iteration (the
    // bounded ring drain below guarantees outer iterations keep happening
    // even in a same-time notify storm).
    if (wall_armed_ && (++wall_tick_ & 63u) == 0 &&
        std::chrono::steady_clock::now() >= wall_deadline_) {
      wall_expired_ = true;
      break;
    }
    if (!heap_.empty() && heap_.front().t == now_) {
      // Leftover same-time heap entries (possible after a bare step() that
      // advanced time). Their seqs precede every wheel or ring entry's at
      // this time — drain first.
      if (now_ >= until) break;  // `until` is exclusive
      do {
        const HeapEntry e = heap_pop();
        exec(e.t, e.seq, e.h, e.fn);
      } while (!heap_.empty() && heap_.front().t == now_);
      continue;
    }
    if (wheel_at_now()) {
      // Wheel entries at the current time: scheduled while now_ was still in
      // the future, so they precede every ring entry. Firing one can only
      // push ring entries (at now) or future events — a t <= now_ post goes
      // to the ring, never back into this bucket — so the bucket drains
      // without growing. Copy the node out before exec: the pool vector may
      // reallocate if the fired event posts new wheel entries.
      if (now_ >= until) break;
      do {
        const WheelNode node = wheel_pop_now();
        exec(node.t, node.seq, node.h, node.fn);
      } while (wheel_at_now());
      continue;
    }
    if (ring_count_ > 0) {
      if (now_ >= until) break;
      if (!wall_armed_) {
        do {
          const RingItem item = ring_pop();
          exec(now_, item.seq, item.h, item.fn);
        } while (ring_count_ > 0);
      } else {
        // Armed: cap the drain so a ring that perpetually refills (events
        // scheduling more events at the same time) still yields to the
        // watchdog check above. The unarmed loop stays branch-identical.
        size_t budget = 4096;
        do {
          const RingItem item = ring_pop();
          exec(now_, item.seq, item.h, item.fn);
        } while (ring_count_ > 0 && --budget > 0);
      }
      continue;
    }
    // Advance to the earlier of the two future tiers (the loop re-enters the
    // at-now drains above, heap first so ties fire in seq order). wheel_peek
    // is bounded by min(until, heap_top): slots proven to start at-or-after
    // that bound stay parked instead of cascading.
    const Time heap_top = heap_.empty() ? kTimeMax : heap_.front().t;
    Time next_t = heap_top;
    if (wheel_count_ != 0) {
      next_t = std::min(next_t, wheel_peek(until < heap_top ? until : heap_top));
    }
    if (next_t >= until) break;
    now_ = next_t;
  }
  // An abandoned run must not pretend it reached the simulated-time budget.
  if (!wall_expired_ && now_ < until && until != kTimeMax) now_ = until;
  return now_;
}

void Kernel::on_process_finished(Process::Handle h) {
  Process::promise_type& p = h.promise();
  if (Event* done = p.done) done->notify();
  if (p.live_prev != nullptr) {
    p.live_prev->live_next = p.live_next;
  } else {
    live_head_ = p.live_next;
  }
  if (p.live_next != nullptr) p.live_next->live_prev = p.live_prev;
  --live_count_;
}

// ----------------------------------------------------------------- Resource

void Resource::release() {
  if (kernel_->destroying_) {
    // Reachable from ~Lease while ~Kernel tears down suspended frames: the
    // queued waiters' promises may already be freed — do not touch them.
    waiters_ = {};
    return;
  }
  if (Process::promise_type* next = waiters_.pop()) {
    // Hand the unit directly to the next waiter: available_ stays 0.
    kernel_->schedule_now(Process::Handle::from_promise(*next));
    if (trace_tid_ != 0) trace_queue_changed();
    return;
  }
  if (available_ < capacity_) ++available_;
}

void Resource::trace_queue_changed() {
  if (telemetry::TraceSink* sink = kernel_->trace_) {
    sink->counter(trace_tid_, "queue", static_cast<double>(waiters_.count), kernel_->now_);
  }
}

}  // namespace pim::sim
