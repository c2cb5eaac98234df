// simulator.hpp — deterministic discrete-event simulation kernel.
//
// All live-protocol experiments (FORTRESS request flow, primary-backup
// failover, SMR ordering, de-randomization attacks) run on this kernel.
// Virtual time is a double in abstract "time units"; the paper's unit
// time-step (the re-randomization period) maps to a configurable number of
// these units. Determinism: events at equal times fire in insertion order
// (FIFO tie-break by sequence number), and all randomness is injected via
// fortress::Rng.
//
// Hot-path design (scenario campaigns schedule hundreds of millions of
// events): the simulator is allocation-free in steady state.
//  * Handlers are stored in EventFn, a move-only callable with a large
//    small-buffer optimization — every callback in the live stack (network
//    deliveries capturing a full Envelope included) fits inline, so no
//    per-event heap allocation happens at all. schedule_at/schedule_after
//    are templates that construct the callable directly in its slab slot
//    (no intermediate 120-byte relocation).
//  * Event nodes live in a chunked slab recycled through a free list;
//    EventId encodes (slot, generation), making cancel() an O(1) indexed
//    check with no hashing and immune to slot-reuse ABA. Chunks give every
//    node a stable address for the slot's lifetime, so handlers are invoked
//    IN PLACE in the slab — zero bytes of callable are moved per executed
//    event (the id is released before invocation, so cancel-own-id and
//    slot-reuse semantics match the classic move-out-then-run contract).
//  * The default scheduler is a hierarchical timer wheel (8 levels x 64
//    slots over 2^-10-unit ticks). Wheel-resident events are doubly linked
//    through the slab itself (no side allocations), so schedule is O(1)
//    pointer splicing and cancel is O(1) true removal. Far timers cascade
//    down through coarser levels; a tiny (time, seq) "due" heap totally
//    orders the entries of the current tick, keeping execution order
//    bit-identical to a global binary heap.
//  * The original binary heap survives as a reference scheduler, selected
//    per-instance or process-wide via FORTRESS_SIM_SCHEDULER=heap; a ctest
//    lane re-runs the sim/scenario suites under it so both implementations
//    stay continuously differentially tested.
//  * Cancelled events in the binary heaps (reference scheduler, due/
//    overflow staging) leave generation-mismatch tombstones that are
//    skipped (and accounted) when touched.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fields.hpp"
#include "sim/event_fn.hpp"
#include "sim/timer_wheel.hpp"

namespace fortress::sim {

/// Virtual simulation time, in abstract units.
using Time = double;

/// Handle used to cancel a scheduled event. Encodes (slab slot, generation);
/// never 0, so 0 can serve as a "no event" sentinel.
using EventId = std::uint64_t;

/// Event-queue implementation. Wheel is the production scheduler; Heap is
/// the straightforward binary-heap reference both are tested against.
enum class SchedulerKind : std::uint8_t { Wheel, Heap };

/// Process-wide default, resolved once: FORTRESS_SIM_SCHEDULER=heap|wheel
/// overrides; otherwise Wheel.
SchedulerKind default_scheduler_kind();

inline constexpr fields::EnumNames<SchedulerKind, 2> kSchedulerKindNames{
    "scheduler", {"wheel", "heap"}};

const char* to_string(SchedulerKind kind);

/// The event-driven simulator. Single-threaded by construction: handlers run
/// to completion and may schedule further events.
class Simulator {
 public:
  explicit Simulator(SchedulerKind kind = default_scheduler_kind())
      : kind_(kind) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SchedulerKind scheduler_kind() const { return kind_; }

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()).
  /// Returns an id usable with cancel(). The callable is constructed
  /// directly in its slab slot.
  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventFn> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventId schedule_at(Time at, F&& f) {
    FORTRESS_EXPECTS(at >= now_);
    const std::uint32_t slot = alloc_node();
    Node& n = node(slot);
    fn_of(slot).emplace(std::forward<F>(f));
    n.at = at;
    n.seq = next_seq_++;
    enqueue(slot);
    return make_id(slot, n.gen);
  }

  /// Overload for a pre-built EventFn (relocated into the slab).
  EventId schedule_at(Time at, EventFn fn);

  /// Schedule `fn` after `delay` (>= 0) from now.
  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventFn> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventId schedule_after(Time delay, F&& f) {
    FORTRESS_EXPECTS(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  EventId schedule_after(Time delay, EventFn fn);

  /// Cancel a pending event; returns false if it already ran or was
  /// cancelled. Wheel-resident events are unlinked immediately; events
  /// staged in a binary heap leave an accounted tombstone.
  bool cancel(EventId id) {
    const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
    const std::uint32_t gen = static_cast<std::uint32_t>(id);
    if (slot >= node_count_) return false;
    Node& n = node(slot);
    if (n.gen != gen) return false;  // already ran or cancelled
    if (n.loc < kNumBuckets) {
      // Wheel-resident: unlink from its bucket — O(1) true removal, no
      // tombstone ever reaches an execution path.
      unlink_from_bucket(slot);
      --wheel_entries_;
      free_node(slot);
      return true;
    }
    free_node(slot);
    ++cancelled_count_;  // its binary-heap entry is now a tombstone
    return true;
  }

  /// Run until the event queue is empty or `until` is reached (events at
  /// exactly `until` are executed). Returns the number of events executed.
  std::uint64_t run_until(Time until);

  /// Run until the queue drains. Returns events executed.
  std::uint64_t run();

  /// Execute at most one event. Returns false if the queue is empty.
  bool step();

  /// True when nothing is pending.
  bool idle() const { return pending() == 0; }

  /// Number of scheduled-but-not-yet-executed events (excluding cancelled
  /// tombstones awaiting pop).
  std::size_t pending() const {
    const std::size_t total =
        kind_ == SchedulerKind::Heap ? heap_.size() : wheel_entries_;
    return total - cancelled_count_;
  }

  /// Request that run()/run_until() return after the current handler.
  void request_stop() { stop_requested_ = true; }

  /// Return to the freshly-constructed state (time 0, empty queue, wheel
  /// cursor at tick 0) while KEEPING the node slab's capacity — the point
  /// of pooling a Simulator across campaign trials is that the slab, grown
  /// once to the workload's high-water mark, is never reallocated again.
  /// Pending handlers are destroyed; every outstanding EventId becomes
  /// stale (cancel() on one returns false, exactly as for an event that
  /// already ran).
  void reset();

  /// reset(), then switch the scheduler implementation. Pooled arenas use
  /// this to run wheel and heap trials back-to-back on one slab.
  void reset(SchedulerKind kind);

 private:
  // Geometry, node layout and heap-entry pieces live in sim/timer_wheel.hpp
  // (shared vocabulary of the wheel and the heap reference).
  static constexpr std::uint32_t kNil = detail::kNil;
  static constexpr int kChunkBits = detail::kChunkBits;
  static constexpr std::uint32_t kChunkSize = detail::kChunkSize;
  static constexpr int kLevelBits = detail::kLevelBits;
  static constexpr int kLevels = detail::kLevels;
  static constexpr std::uint32_t kSlotsPerLevel = detail::kSlotsPerLevel;
  static constexpr std::uint32_t kNumBuckets = detail::kNumBuckets;
  static constexpr std::uint64_t kFarTick = detail::kFarTick;
  static constexpr std::uint64_t kNoLimit = detail::kNoLimit;
  static constexpr std::uint32_t kLocQueue = detail::kLocQueue;
  static constexpr std::uint32_t kLocFree = detail::kLocFree;
  using Node = detail::Node;
  using HeapEntry = detail::HeapEntry;
  using FiresLater = detail::FiresLater;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  Node& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  const Node& node(std::uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  EventFn& fn_of(std::uint32_t slot) {
    return fn_chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  bool entry_stale(const HeapEntry& e) const {
    return node(e.slot).gen != e.gen;
  }

  static std::uint64_t tick_of(Time at) { return detail::tick_of(at); }
  static int level_of(std::uint64_t bits) {  // bits != 0
    return detail::level_of(bits);
  }

  std::uint32_t alloc_node() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = node(slot).next;
      return slot;
    }
    FORTRESS_CHECK(node_count_ < kNil);
    if ((node_count_ & (kChunkSize - 1)) == 0) {
      chunks_.emplace_back(std::make_unique<Node[]>(kChunkSize));
      fn_chunks_.emplace_back(std::make_unique<EventFn[]>(kChunkSize));
    }
    return node_count_++;
  }

  /// Release a slot back to the free list. Bumping the generation first
  /// invalidates every outstanding EventId (and queue tombstone) naming it.
  void free_node(std::uint32_t slot) {
    Node& n = node(slot);
    fn_of(slot).reset();
    if (++n.gen == 0) n.gen = 1;  // keep ids nonzero (0 is the null EventId)
    n.loc = kLocFree;
    n.next = free_head_;
    free_head_ = slot;
  }

  void due_push(const HeapEntry& e) {
    due_.push_back(e);
    std::push_heap(due_.begin(), due_.end(), FiresLater{});
  }

  /// File a node under the wheel: due heap (tick at/behind cursor), a level
  /// bucket, or the overflow heap (past the wheel horizon). Inline so the
  /// schedule templates compile the whole insert at the call site.
  void wheel_place(std::uint32_t slot, std::uint64_t tick) {
    Node& n = node(slot);
    if (tick <= cursor_) {
      // At or behind the cursor: the due heap's exact (time, seq) order
      // takes over, so late entries still execute in global order.
      n.loc = kLocQueue;
      due_push(HeapEntry{n.at, n.seq, slot, n.gen});
      return;
    }
    const int lvl = level_of(tick ^ cursor_);
    if (lvl >= kLevels) {
      n.loc = kLocQueue;
      overflow_.push_back(HeapEntry{n.at, n.seq, slot, n.gen});
      std::push_heap(overflow_.begin(), overflow_.end(), FiresLater{});
      return;
    }
    const std::uint32_t sl =
        static_cast<std::uint32_t>(tick >> (lvl * kLevelBits)) &
        (kSlotsPerLevel - 1);
    const std::uint32_t bucket =
        static_cast<std::uint32_t>(lvl) * kSlotsPerLevel + sl;
    n.loc = bucket;
    n.prev = kNil;
    n.next = bucket_head_[bucket];
    if (n.next != kNil) node(n.next).prev = slot;
    bucket_head_[bucket] = slot;
    occupied_[static_cast<std::size_t>(lvl)] |= std::uint64_t{1} << sl;
  }

  /// Hand the freshly-filled slot to the active scheduler.
  void enqueue(std::uint32_t slot) {
    Node& n = node(slot);
    if (kind_ == SchedulerKind::Heap) {
      n.loc = kLocQueue;
      heap_.push_back(HeapEntry{n.at, n.seq, slot, n.gen});
      std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
      return;
    }
    ++wheel_entries_;
    wheel_place(slot, tick_of(n.at));
  }

  // Heap-scheduler path.
  void drop_top();
  bool heap_pop_and_run();
  std::uint64_t heap_run_until(Time until);

  // Wheel-scheduler path. wheel_advance tells the run loop whether the next
  // event is staged in due_ or (fast path) is the lone entry of the tick
  // bucket just extracted, left in direct_slot_ without touching due_.
  enum class Advance : std::uint8_t { Empty, Due, Direct };
  Advance wheel_advance(std::uint64_t limit_tick);
  void unlink_from_bucket(std::uint32_t slot);
  void invoke_slot(std::uint32_t slot);
  void run_slot(std::uint32_t slot);
  void run_due_front();
  bool wheel_pop_and_run();
  std::uint64_t wheel_run_until(Time until);

  bool pop_and_run();

  SchedulerKind kind_ = SchedulerKind::Wheel;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::unique_ptr<EventFn[]>> fn_chunks_;  // parallel to chunks_
  std::uint32_t node_count_ = 0;  // slots ever allocated (slab high-water)
  std::uint32_t free_head_ = kNil;
  std::size_t cancelled_count_ = 0;

  // Heap scheduler state.
  std::vector<HeapEntry> heap_;

  // Wheel scheduler state. cursor_ is the wheel's notion of "processed up
  // to this tick": entries at ticks <= cursor_ stage into due_ (a small
  // (time, seq) min-heap that restores the exact global execution order),
  // entries within 2^48 ticks of cursor_ link into the level buckets, and
  // everything farther (or saturated at kFarTick) waits in overflow_.
  std::uint64_t cursor_ = 0;
  std::size_t wheel_entries_ = 0;  // total across due_/buckets/overflow_
  std::uint32_t direct_slot_ = kNil;  // Advance::Direct result
  std::vector<HeapEntry> due_;
  std::vector<HeapEntry> overflow_;
  std::array<std::uint64_t, kLevels> occupied_{};
  std::array<std::uint32_t, kNumBuckets> bucket_head_ = [] {
    std::array<std::uint32_t, kNumBuckets> heads{};
    heads.fill(kLocFree);  // == kNil
    return heads;
  }();
};

/// Periodic timer helper: reschedules itself every `period` until stopped.
/// Lifetime: the timer object must outlive the simulation or be stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {
    FORTRESS_EXPECTS(period > 0);
  }
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Start ticking; first fire at now + period (or `first_delay` if given).
  void start();
  void start_after(Time first_delay);

  /// Stop ticking; safe to call repeatedly.
  void stop();

  /// Change the period. Precondition: not running (stop() first).
  void set_period(Time period) {
    FORTRESS_EXPECTS(!running_);
    FORTRESS_EXPECTS(period > 0);
    period_ = period;
  }

  bool running() const { return running_; }
  Time period() const { return period_; }

 private:
  void arm(Time delay);

  Simulator& sim_;
  Time period_;
  std::function<void()> fn_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace fortress::sim
