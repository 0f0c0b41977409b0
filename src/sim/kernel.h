// pim::sim — a discrete-event simulation kernel.
//
// This module replaces the SystemC engine the paper builds on. It provides
// the same core facilities a cycle-accurate architecture model needs:
//
//   * a global simulated clock (`Time`, picosecond resolution),
//   * an ordered pending-event queue with deterministic tie-breaking
//     (same-time events fire in schedule order),
//   * lightweight processes written as C++20 coroutines
//     (`Process model(...) { ...; co_await Delay{...}; ... }`),
//   * `Event` for wait/notify synchronization (all waiters wake in the same
//     delta, scheduled — not recursively resumed — so models cannot starve
//     each other),
//   * `Resource` — a counting semaphore with FIFO admission, used for
//     structural hazards (crossbar groups, shared ADCs, NoC links),
//   * `Clock` helpers to express cycle-quantized waits of a frequency domain.
//
// Scheduler architecture (the hot path of every simulation in this repo):
//
//   * Three tiers, by temporal distance.
//       ring:  events scheduled at the *current* time — the dominant case:
//              `Event::notify`, `Resource::release` hand-off, `spawn` — go
//              into a FIFO ring buffer and never touch a priority structure.
//       wheel: future events within the wheel horizon (now ^ t agreeing on
//              the top-level epoch, i.e. deltas up to ~2^30 ps ≈ 1 ms of
//              simulated time) land in a hierarchical timing wheel (Varghese
//              & Lauck): kWheelLevels levels x 64 slots, slot width 64^level
//              ps, each level carrying a 64-bit occupancy bitmap so the next
//              occupied slot is one ctz away. Slots are intrusive FIFO
//              buckets of pooled POD nodes; posting and firing are O(1), a
//              cascade moves a node at most kWheelLevels-1 times total.
//       heap:  beyond-horizon events fall back to a binary min-heap of
//              32-byte POD entries `{time, seq, handle}` ordered by
//              (time, seq).
//   * Determinism across tiers. Simulated time is monotone and `seq` is a
//     global schedule counter, so for any single timestamp t the firing
//     order heap-at-t, then wheel-bucket-at-t, then ring reproduces exactly
//     the global (time, seq) order of a single ordered queue: heap entries
//     at t were posted while t lay beyond the wheel horizon (earliest),
//     wheel entries while t was in the future (middle; bucket FIFOs and
//     cascades both preserve relative order, and a level-0 slot holds
//     exactly one timestamp), and ring entries at t itself (latest).
//     `Tuning{.timer_wheel = false}` forces every future event through the
//     heap — the reference scheduler the differential fuzz tests compare
//     against; both produce identical `order_fingerprint()` streams.
//   * Callbacks out of line. `call_at` parks its `std::function` in a slot
//     table and schedules only the slot index, so no `std::function` is ever
//     moved during heap sifts or wheel cascades.
//   * Intrusive bookkeeping. `Event`/`Resource` waiter FIFOs and the kernel's
//     live-process set are singly/doubly-linked lists threaded through the
//     coroutine promise (`Process::promise_type`); wheel nodes come from a
//     free-listed pool.
//   * Pooled frames. `promise_type` has its own operator new/delete: a
//     finished process's frame goes onto a per-thread free list of its
//     64-byte size class (capped; frames above 1 KiB bypass the pool) and
//     the next spawn of that size takes it back. Together with the pooled
//     wheel nodes and the ring, heap and callback-slot vectors, which only
//     grow to their high-water mark, steady-state simulation performs zero
//     allocations per event, a spawn included, once a first run on the
//     thread has filled the free lists. Builds with AddressSanitizer bypass
//     the pool, so every frame is a malloc ASan can check. The ring, the
//     wheel-node pool and the heap are recycled the same way: a destroyed
//     kernel leaves their storage to the next kernel built on its thread, so
//     a run starts at the high-water mark of earlier runs instead of
//     regrowing it. tests/alloc_count_test.cpp counts the allocations of a
//     warm timing-only chip run: a few dozen per run, none per instruction.
//
// The kernel is single-threaded and deterministic: given the same inputs,
// every simulation produces bit-identical results. `order_fingerprint()`
// exposes a hash of the (time, seq) firing stream so tests can assert the
// event order itself, not just the end state.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/math_util.h"

namespace pim::telemetry {
class TraceSink;
}

namespace pim::sim {

/// Simulated time in picoseconds.
using Time = uint64_t;
inline constexpr Time kTimeMax = std::numeric_limits<Time>::max();

class Kernel;

// ---------------------------------------------------------------------------
// Process: coroutine handle wrapper
// ---------------------------------------------------------------------------

/// Return type of simulation-process coroutines. A `Process` is inert until
/// handed to `Kernel::spawn`; the kernel then resumes it at the current time
/// and the frame self-destroys when the coroutine finishes.
class Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(Handle h) noexcept;
    void await_resume() const noexcept {}
  };

  struct promise_type {
    Kernel* kernel = nullptr;        // set by Kernel::spawn
    class Event* done = nullptr;     // completion event, if anyone joined
    // Intrusive links, owned by the kernel machinery (never by user code):
    // one wait-queue link (a suspended process waits on at most one Event or
    // Resource at a time) and a doubly-linked membership in the kernel's
    // live-process list. Keeping them in the promise makes every wait-queue
    // and spawn/finish operation allocation-free.
    promise_type* wait_next = nullptr;
    promise_type* live_prev = nullptr;
    promise_type* live_next = nullptr;

    // Frames come from a per-thread pool (kernel.cpp), so the spawn of
    // every issued instruction reuses a frame instead of calling malloc.
    static void* operator new(std::size_t bytes);
    static void operator delete(void* frame, std::size_t bytes) noexcept;

    Process get_return_object() { return Process(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception();
  };

  Process() = default;
  explicit Process(Handle h) : handle_(h) {}
  Process(Process&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = {};
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  /// The frame of a process that is never spawned, for a model that
  /// resumes it itself through Kernel::resume_at. It stays owned (and is
  /// destroyed) by this Process, so it must outlive every scheduled resume.
  std::coroutine_handle<> handle() const { return handle_; }

 private:
  friend class Kernel;
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle release() {
    Handle h = handle_;
    handle_ = {};
    return h;
  }
  Handle handle_{};
};

namespace detail {

/// Intrusive FIFO of suspended processes, linked through
/// `promise_type::wait_next`. Shared by Event and Resource.
struct WaitQueue {
  Process::promise_type* head = nullptr;
  Process::promise_type* tail = nullptr;
  size_t count = 0;

  void push(Process::promise_type& p) {
    p.wait_next = nullptr;
    if (tail != nullptr) {
      tail->wait_next = &p;
    } else {
      head = &p;
    }
    tail = &p;
    ++count;
  }

  Process::promise_type* pop() {
    Process::promise_type* p = head;
    if (p != nullptr) {
      head = p->wait_next;
      if (head == nullptr) tail = nullptr;
      p->wait_next = nullptr;
      --count;
    }
    return p;
  }

  /// Detach the whole chain (head returned, queue left empty).
  Process::promise_type* take_all() {
    Process::promise_type* p = head;
    head = tail = nullptr;
    count = 0;
    return p;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

/// A wait/notify synchronization point. `co_await event` suspends the current
/// process until some other process calls `notify()`. All waiters present at
/// notify time are scheduled to resume at the current simulation time, in
/// their wait order. Waiters that arrive after the notify wait for the next
/// one (auto-reset semantics, like a SystemC sc_event).
class Event {
 public:
  explicit Event(Kernel& kernel) : kernel_(&kernel) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Wake every currently-waiting process at the current time.
  void notify();

  /// Number of processes currently blocked on this event.
  size_t waiter_count() const { return waiters_.count; }

  /// Record an instant trace event on `tid` (in the kernel's attached
  /// TraceSink) at every notify() that wakes at least one waiter. Purely
  /// observational; tid 0 detaches.
  void attach_trace(uint32_t tid) { trace_tid_ = tid; }

  struct Awaiter {
    Event* event;
    bool await_ready() const noexcept { return false; }
    void await_suspend(Process::Handle h) { event->waiters_.push(h.promise()); }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() { return Awaiter{this}; }

 private:
  Kernel* kernel_;
  detail::WaitQueue waiters_;
  uint32_t trace_tid_ = 0;
};

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// The simulation scheduler. Owns the pending-event queue (same-delta ring +
/// future-time heap) and the intrusive list of live process frames.
class Kernel {
 public:
  /// Scheduler knobs. The defaults are what every simulation should run;
  /// `timer_wheel = false` degrades every future-time event to the binary
  /// heap — the bit-identical reference scheduler the differential tests
  /// compare the wheel against.
  struct Tuning {
    bool timer_wheel = true;
  };

  Kernel() : Kernel(Tuning{}) {}
  explicit Kernel(const Tuning& tuning);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulated time (ps).
  Time now() const { return now_; }

  /// Register a coroutine as a simulation process; it first runs at the
  /// current time (after already-pending same-time events).
  void spawn(Process process);

  /// Schedule a plain callback at absolute time `t` (must be >= now();
  /// earlier times are clamped to the current time).
  void call_at(Time t, std::function<void()> fn);

  /// Schedule a coroutine resumption at absolute time `t` (clamped to now()).
  void resume_at(Time t, std::coroutine_handle<> h) {
    const uint64_t seq = seq_++;
    if (t <= now_) {
      ring_push(RingItem{h.address(), seq, 0});
    } else {
      future_push(t, seq, h.address(), 0);
    }
  }

  /// Run until the event queue drains or `until` is reached (exclusive upper
  /// bound on event times). Returns the final simulation time.
  Time run(Time until = kTimeMax);

  /// Arm a wall-clock watchdog: run() abandons the simulation (leaving the
  /// event queue intact and wall_expired() set) once the host clock passes
  /// `deadline`. The check is strided — every few thousand events — so the
  /// unarmed hot path pays one predictable branch and the armed path almost
  /// never touches the host clock; expiry is therefore detected within a few
  /// milliseconds, not exactly at the deadline. This is the only way to
  /// bound a scenario whose *simulated* time budget never triggers (e.g. a
  /// same-time notify storm that stops advancing the clock).
  void arm_wall_watchdog(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    wall_armed_ = true;
    wall_expired_ = false;
  }
  void disarm_wall_watchdog() {
    wall_armed_ = false;
    wall_expired_ = false;
  }
  /// True when the last run() was abandoned by the wall-clock watchdog.
  bool wall_expired() const { return wall_expired_; }

  /// Execute exactly one pending event. Returns false if the queue is empty.
  bool step();

  bool empty() const { return ring_count_ == 0 && heap_.empty() && wheel_count_ == 0; }
  uint64_t events_executed() const { return events_executed_; }
  size_t live_process_count() const { return live_count_; }

  /// FNV-1a hash of the (time, seq) stream of every event fired so far — a
  /// fingerprint of the exact scheduling order. Two kernels that executed
  /// the same workload must report identical fingerprints; any reordering of
  /// same-time events changes the value.
  uint64_t order_fingerprint() const { return fingerprint_; }

  /// Attach a trace sink (nullptr detaches). Instrumented primitives
  /// (Event/Resource with a trace tid, arch models) emit through it; with no
  /// sink, or with no tid attached, instrumented paths cost one predictable
  /// branch. Attaching never alters scheduling — order_fingerprint() is
  /// identical with tracing on or off.
  void set_trace(telemetry::TraceSink* sink) { trace_ = sink; }
  telemetry::TraceSink* trace() const { return trace_; }

  /// Awaitable: suspend the calling process for `delta` picoseconds.
  struct DelayAwaiter {
    Kernel* kernel;
    Time delta;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { kernel->resume_at(kernel->now_ + delta, h); }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(Time delta) { return DelayAwaiter{this, delta}; }

 private:
  friend struct Process::FinalAwaiter;
  friend struct Process::promise_type;
  friend class Event;
  friend class Resource;
  void on_process_finished(Process::Handle h);

  /// Same-delta fast path: FIFO-schedule a resumption at the current time.
  void schedule_now(Process::Handle h) { ring_push(RingItem{h.address(), seq_++, 0}); }

  // One pending event. `h` is a coroutine frame address to resume; when
  // null, `fn` is 1 + the index of a parked callback in `fn_slots_`. POD on
  // purpose: heap sifts move 32 bytes, never a std::function.
  struct RingItem {
    void* h;
    uint64_t seq;
    uint32_t fn;
  };
  struct HeapEntry {
    Time t;
    uint64_t seq;
    void* h;
    uint32_t fn;
  };
  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  void ring_push(RingItem item) {
    if (ring_count_ == ring_.size()) ring_grow();
    ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = item;
    ++ring_count_;
  }
  RingItem ring_pop() {
    RingItem item = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_count_;
    return item;
  }
  void ring_grow();

  void heap_push(HeapEntry e) {
    size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!heap_less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  HeapEntry heap_pop();

  // ---- hierarchical timing wheel (the middle tier) ----
  //
  // Slot invariant: a node sits at level l, slot s iff s == (t >> 6l) & 63
  // and t agrees with now_ on every bit group above l — so level-0 slots hold
  // exactly one timestamp each, occupied slot indices never trail the current
  // index at their level, and the earliest pending wheel time is the lowest
  // occupied level's ctz. now_ never passes a pending wheel entry (run()
  // clamps to min(next event, until)), which is what keeps the invariant
  // stable across bounded runs.
  static constexpr uint32_t kWheelLevelBits = 6;
  static constexpr uint32_t kWheelSlots = 1u << kWheelLevelBits;
  static constexpr uint32_t kWheelLevels = 5;  // horizon: 2^30 ps ~ 1.07 ms
  static constexpr uint32_t kWheelNil = 0xffffffffu;

  struct WheelNode {
    Time t;
    uint64_t seq;
    void* h;
    uint32_t fn;
    uint32_t next;  // pool index of the next bucket node (or free-list link)
  };
  struct WheelBucket {
    uint32_t head = kWheelNil;
    uint32_t tail = kWheelNil;
  };

  /// Route a future event (t > now_) to the wheel when in-horizon, else to
  /// the heap. The horizon test is epoch equality, not delta: an event just
  /// across the top-level boundary heap-falls-back even for a small delta
  /// (rare — 64^(L-1) out of 64^L times — and handled by the run loop taking
  /// min(wheel, heap) with heap draining first on time ties).
  void future_push(Time t, uint64_t seq, void* h, uint32_t fn) {
    if (!tuning_.timer_wheel ||
        ((t ^ now_) >> (kWheelLevelBits * kWheelLevels)) != 0) {
      heap_push(HeapEntry{t, seq, h, fn});
      return;
    }
    const uint64_t x = t ^ now_;  // != 0: t > now_
    const uint32_t level =
        (63u - static_cast<uint32_t>(std::countl_zero(x))) / kWheelLevelBits;
    const uint32_t slot =
        static_cast<uint32_t>(t >> (kWheelLevelBits * level)) & (kWheelSlots - 1);
    uint32_t idx;
    if (wheel_free_ != kWheelNil) {
      idx = wheel_free_;
      wheel_free_ = wheel_pool_[idx].next;
    } else {
      idx = static_cast<uint32_t>(wheel_pool_.size());
      wheel_pool_.emplace_back();
    }
    wheel_pool_[idx] = WheelNode{t, seq, h, fn, kWheelNil};
    wheel_append(level, slot, idx);
    ++wheel_count_;
  }

  /// Append pool node `idx` to bucket (level, slot), maintaining occupancy.
  void wheel_append(uint32_t level, uint32_t slot, uint32_t idx) {
    WheelBucket& b = wheel_[level][slot];
    if (b.tail != kWheelNil) {
      wheel_pool_[b.tail].next = idx;
    } else {
      b.head = idx;
      wheel_occ_[level] |= uint64_t{1} << slot;
    }
    b.tail = idx;
  }

  /// True when the level-0 slot for the current time holds entries — by the
  /// slot invariant their timestamps all equal now_ exactly.
  bool wheel_at_now() const {
    return wheel_count_ != 0 &&
           ((wheel_occ_[0] >> (static_cast<uint32_t>(now_) & (kWheelSlots - 1))) & 1u) != 0;
  }

  /// Pop the front node of the level-0 at-now bucket (caller checked
  /// wheel_at_now()); the node is freed and its payload returned by value.
  WheelNode wheel_pop_now() {
    const uint32_t slot = static_cast<uint32_t>(now_) & (kWheelSlots - 1);
    WheelBucket& b = wheel_[0][slot];
    const uint32_t idx = b.head;
    const WheelNode node = wheel_pool_[idx];
    b.head = node.next;
    if (b.head == kWheelNil) {
      b.tail = kWheelNil;
      wheel_occ_[0] &= ~(uint64_t{1} << slot);
    }
    wheel_pool_[idx].next = wheel_free_;
    wheel_free_ = idx;
    --wheel_count_;
    return node;
  }

  void wheel_cascade(uint32_t level, uint32_t slot);
  Time wheel_peek(Time bound);

  struct SpareQueues;
  /// This thread's storage left by destroyed kernels; nullptr once the
  /// thread is exiting.
  static SpareQueues* spare_queues();

  uint32_t fn_park(std::function<void()> fn);
  void run_callback(uint32_t fn);

  /// Account for and dispatch one event (hot: inlined into run()'s loops).
  void exec(Time t, uint64_t seq, void* h, uint32_t fn) {
    ++events_executed_;
    fingerprint_ = (fingerprint_ ^ t) * 0x100000001b3ull;
    fingerprint_ = (fingerprint_ ^ seq) * 0x100000001b3ull;
    if (h != nullptr) {
      std::coroutine_handle<>::from_address(h).resume();
    } else {
      run_callback(fn);
    }
  }

  std::vector<RingItem> ring_;  // power-of-two circular buffer; [head, head+count)
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;
  std::vector<HeapEntry> heap_;                  // binary min-heap on (t, seq)
  Tuning tuning_{};
  std::array<uint64_t, kWheelLevels> wheel_occ_{};          // per-level occupancy
  std::array<std::array<WheelBucket, kWheelSlots>, kWheelLevels> wheel_{};
  std::vector<WheelNode> wheel_pool_;  // bucket nodes; free list through `next`
  uint32_t wheel_free_ = kWheelNil;
  size_t wheel_count_ = 0;
  std::vector<std::function<void()>> fn_slots_;  // parked call_at callbacks
  std::vector<uint32_t> fn_free_;                // free slot indices
  Process::promise_type* live_head_ = nullptr;   // unfinished spawned processes
  size_t live_count_ = 0;
  // True while ~Kernel destroys suspended frames. Wait-queue nodes live in
  // coroutine promises, so once teardown starts, Event/Resource wake paths
  // (reachable from frame destructors, e.g. a Resource::Lease) must not
  // dereference queue links — the frames they point into may already be gone.
  bool destroying_ = false;
  telemetry::TraceSink* trace_ = nullptr;
  bool wall_armed_ = false;
  bool wall_expired_ = false;
  uint32_t wall_tick_ = 0;  // strides host-clock reads while armed
  std::chrono::steady_clock::time_point wall_deadline_{};
  Time now_ = 0;
  uint64_t seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

/// Counting semaphore with FIFO admission. Models structural hazards: shared
/// ADCs, busy crossbar groups, NoC link occupancy.
///
///   co_await adc.acquire();
///   co_await kernel.delay(conversion_time);
///   adc.release();
///
/// Or scoped: { auto lease = co_await adc.scoped(); ... } — note the lease
/// releases on destruction at scope exit.
class Resource {
 public:
  Resource(Kernel& kernel, uint32_t count) : kernel_(&kernel), available_(count), capacity_(count) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  struct AcquireAwaiter {
    Resource* res;
    bool await_ready() {
      // Uncontended fast path: untouched by tracing (no extra branch here —
      // only the wait path below is instrumented).
      if (res->available_ > 0) {
        --res->available_;
        return true;
      }
      return false;
    }
    void await_suspend(Process::Handle h) {
      res->waiters_.push(h.promise());
      if (res->trace_tid_ != 0) res->trace_queue_changed();
    }
    void await_resume() const noexcept {}
  };
  AcquireAwaiter acquire() { return AcquireAwaiter{this}; }

  /// Release one unit; if processes are queued, hands the unit directly to
  /// the front waiter (scheduled at current time, FIFO order preserved).
  void release();

  uint32_t available() const { return available_; }
  uint32_t capacity() const { return capacity_; }
  size_t queue_length() const { return waiters_.count; }
  bool busy() const { return available_ == 0; }

  /// Emit a queue-length counter event on `tid` (in the kernel's attached
  /// TraceSink) whenever a process joins or leaves the wait queue. Purely
  /// observational; tid 0 detaches.
  void attach_trace(uint32_t tid) { trace_tid_ = tid; }

  /// RAII lease helper.
  class Lease {
   public:
    explicit Lease(Resource* r) : res_(r) {}
    Lease(Lease&& o) noexcept : res_(o.res_) { o.res_ = nullptr; }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        reset();
        res_ = o.res_;
        o.res_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { reset(); }
    void reset() {
      if (res_) {
        res_->release();
        res_ = nullptr;
      }
    }

   private:
    Resource* res_;
  };

  struct ScopedAwaiter {
    Resource* res;
    AcquireAwaiter inner{res};
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(Process::Handle h) { inner.await_suspend(h); }
    Lease await_resume() { return Lease(res); }
  };
  ScopedAwaiter scoped() { return ScopedAwaiter{this}; }

 private:
  void trace_queue_changed();  // out of line: needs telemetry::TraceSink

  Kernel* kernel_;
  uint32_t available_;
  uint32_t capacity_;
  detail::WaitQueue waiters_;
  uint32_t trace_tid_ = 0;
};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// A frequency domain. Converts cycles to picoseconds and provides
/// cycle-granular waits. Models in this codebase express latencies in cycles
/// of their domain clock and convert at the boundary.
class Clock {
 public:
  /// `freq_mhz` must be > 0 (enforced: throws std::invalid_argument
  /// otherwise — a non-positive frequency would make `now_cycles` divide by
  /// zero). Frequencies above 1 THz quantize to the 1 ps resolution floor.
  Clock(Kernel& kernel, double freq_mhz) : kernel_(&kernel) {
    if (!(freq_mhz > 0.0)) {
      throw std::invalid_argument("sim::Clock: freq_mhz must be > 0");
    }
    period_ps_ = static_cast<Time>(1e6 / freq_mhz + 0.5);
    if (period_ps_ == 0) period_ps_ = 1;
  }

  Time period_ps() const { return period_ps_; }
  /// Saturates at kTimeMax: a cycle count large enough to overflow the
  /// picosecond clock means "beyond the end of simulated time", and a
  /// wrapped small value would silently reorder the event queue.
  Time to_ps(uint64_t cycles) const { return saturating_mul_u64(cycles, period_ps_); }
  /// Cycles elapsed at current kernel time (floor).
  uint64_t now_cycles() const { return kernel_->now() / period_ps_; }

  /// Awaitable: wait an integral number of cycles.
  Kernel::DelayAwaiter cycles(uint64_t n) const { return kernel_->delay(to_ps(n)); }

  /// Awaitable: wait until the next rising edge (align to the cycle grid).
  Kernel::DelayAwaiter next_edge() const {
    Time now = kernel_->now();
    Time next = ((now / period_ps_) + 1) * period_ps_;
    return kernel_->delay(next - now);
  }

 private:
  Kernel* kernel_;
  Time period_ps_;
};

}  // namespace pim::sim
