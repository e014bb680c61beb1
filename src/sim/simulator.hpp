// Discrete-event simulation kernel.
//
// Substitutes for the NS2 scheduler the paper ran on: a single-threaded,
// deterministic event loop.  Events at equal timestamps execute in the order
// their sequence numbers were taken -- at scheduling, or earlier through
// reserve_seq() -- so a run is a pure function of (parameters, seed).
//
// Cancellation is lazy: cancel() frees the slot and the queue skips the
// corpse on pop, which keeps schedule/cancel O(log n) without heap surgery.
// The protocols cancel timers constantly (every HELLO reset), so this
// matters.
//
// Storage is an index-based slot arena: actions live in a flat vector of
// reusable slots (free-list recycling) instead of a node-allocating hash
// map, and the action type is an InlineFunction, so the steady-state
// schedule/dispatch path performs no heap allocations once the arena and
// heap vectors have reached their high-water capacity (asserted by the
// micro_kernel zero-allocation bench).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <queue>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "sim/time.hpp"

namespace hp2p::sim {

/// Handle to a scheduled event; valid until the event fires or is cancelled.
class TimerId {
 public:
  constexpr TimerId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(TimerId, TimerId) = default;

 private:
  friend class Simulator;
  constexpr explicit TimerId(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_{0};   // 0 = null handle; unique per event
  std::uint32_t slot_{0};  // arena slot the event occupies (O(1) cancel)
};

/// Coarse component tags for CPU and allocation attribution.  Every
/// scheduled event carries the tag that was current when it was scheduled,
/// so work a subsystem sets in motion (timers, message deliveries) is
/// attributed to that subsystem without per-call-site bookkeeping.
/// ComponentScope switches the current tag; the installed DispatchProbe
/// (stats::Profiler) observes the enter/leave transitions.
enum class Component : std::uint8_t {
  kKernel = 0,   // dispatch loop itself / untagged work
  kTransport,    // overlay message physics (delivery closures)
  kMembership,   // joins, leaves, crashes, HELLO failure detection
  kRing,         // t-network ring routing + finger maintenance
  kFlood,        // s-network flooding / random walks
  kBypass,       // bypass-link cache maintenance
  kData,         // store / lookup request handling
  kReplication,  // replica placement, re-replication, anti-entropy
  kChaos,        // fault-schedule engine
  kAudit,        // invariant auditor
  kWorkload,     // experiment driver (phase orchestration)
  kSampler,      // time-series gauge sampling (RSS reads are not free)
  kOther,        // explicitly untyped
  kCount_,       // sentinel
};

inline constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(Component::kCount_);

/// Stable snake_case name for metric keys and collapsed-stack frames.
[[nodiscard]] const char* component_name(Component c);

/// Observer of dispatch transitions.  The kernel stays free of timing and
/// accumulation logic -- it only reports "a frame tagged `c` began / the
/// innermost frame ended" -- so the stats layer can implement profiling
/// without a sim -> stats dependency.
class DispatchProbe {
 public:
  virtual ~DispatchProbe() = default;
  virtual void enter(Component c) = 0;
  virtual void leave() = 0;
  /// The host is about to (re)enter a dispatch run after doing unrelated
  /// work (called on probe installation and at run()/run_until() entry).
  /// Lets a timing probe re-mark its clock baseline so host work between
  /// dispatch runs is never charged to the next event.
  virtual void resync() {}
};

/// Per-event footprint: which peers the event's handler may touch.  Stamped
/// at schedule time (like the Component tag) and consumed by the verify/
/// explorer's independence relation: two events with non-wildcard, disjoint
/// peer sets commute.  The default is wildcard ("may touch anything"), so
/// unannotated call sites are conservatively ordered against everything --
/// annotations can only *add* commutativity, never unsoundness.
struct Footprint {
  static constexpr std::size_t kMaxPeers = 4;
  std::uint32_t peers[kMaxPeers] = {0, 0, 0, 0};
  std::uint8_t count = 0;
  bool wildcard = true;

  [[nodiscard]] static constexpr Footprint wild() { return Footprint{}; }
  [[nodiscard]] static Footprint on(std::initializer_list<std::uint32_t> ids) {
    Footprint f;
    if (ids.size() > kMaxPeers) return f;  // too wide: stay wildcard
    f.wildcard = false;
    for (std::uint32_t id : ids) f.peers[f.count++] = id;
    return f;
  }
  /// True when the two events are guaranteed to commute: neither is a
  /// wildcard and their peer sets are disjoint.
  [[nodiscard]] friend bool independent(const Footprint& a,
                                        const Footprint& b) {
    if (a.wildcard || b.wildcard) return false;
    for (std::uint8_t i = 0; i < a.count; ++i) {
      for (std::uint8_t j = 0; j < b.count; ++j) {
        if (a.peers[i] == b.peers[j]) return false;
      }
    }
    return true;
  }
};

/// One member of the co-enabled set handed to a TieBreakPolicy: a live event
/// whose fire time falls within the commutation window of the earliest live
/// event.  `seq` is stable across deterministic re-executions with the same
/// choice prefix, so explorers identify branches by it.
struct CoEnabledEvent {
  std::uint64_t seq = 0;
  SimTime when{};
  Component comp = Component::kKernel;
  Footprint fp{};
};

/// Pluggable tie-break: when installed, the kernel consults it on *every*
/// dispatch with the full co-enabled set (even singletons, so stateful
/// policies -- sleep sets -- can observe the whole schedule).  Must return
/// an index < n; out-of-range picks fall back to 0 (FIFO order).
class TieBreakPolicy {
 public:
  virtual ~TieBreakPolicy() = default;
  virtual std::size_t choose(const CoEnabledEvent* events, std::size_t n) = 0;
};

/// Counters the kernel maintains; exposed for tests and microbenchmarks.
struct SimulatorStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  /// Cancelled heap entries discarded while looking for the next live event
  /// (lazy cancellation leaves corpses behind; this counts their cleanup).
  std::uint64_t corpses_skipped = 0;
};

/// One kernel-level trace record, delivered to the optional trace callback.
struct TraceEvent {
  enum class Kind { kSchedule, kFire, kCancel };
  Kind kind;
  std::uint64_t seq;  // event sequence number (matches TimerId)
  SimTime when;       // scheduled fire time
};

/// The event loop.  Not thread-safe by design: replicas parallelize at the
/// whole-simulator granularity (one Simulator per thread).
class Simulator {
 public:
  /// Inline capacity sized for the transport's delivery-wrapping closure
  /// (the hottest event at scale): transport scalars + trace context + a
  /// nested Delivery (itself max_align-padded) land at 144 bytes; larger
  /// closures still work, they just heap-allocate like std::function
  /// always did.  micro_kernel's zero-alloc benches pin this.
  static constexpr std::size_t kActionCapacity = 160;
  using Action = InlineFunction<void(), kActionCapacity>;
  using TraceFn = std::function<void(const TraceEvent&)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when`; clamps to now() if earlier.
  TimerId schedule_at(SimTime when, Action action) {
    return schedule_reserved(when, reserve_seq(), std::move(action));
  }

  /// Takes the next sequence number without scheduling anything.  A caller
  /// that may or may not need an event later (a retry armed only when a
  /// message is lost) reserves its tie-break position now and hands the
  /// number to schedule_reserved() if and when it schedules; an unused
  /// reservation is simply never scheduled.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `action` at `when` (clamped to now() if earlier) under a
  /// sequence number taken earlier from reserve_seq(), so it breaks ties
  /// exactly as an event scheduled at reservation time would have.  Each
  /// reservation may be scheduled at most once.
  TimerId schedule_reserved(SimTime when, std::uint64_t seq, Action action);

  /// Schedules `action` `delay` after now.
  TimerId schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancels a pending event.  Returns false when the handle is null,
  /// already fired, or already cancelled.
  bool cancel(TimerId id);

  /// True when no live events remain.
  [[nodiscard]] bool idle() const { return live_events_ == 0; }

  /// Number of live (not yet fired, not cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }

  /// Periodic housekeeping devices (gauge samplers, invariant auditors)
  /// count their armed tick as a *daemon* event: daemons re-arm only while
  /// pending_work() > 0, so two of them cannot keep each other -- and the
  /// run() loop -- alive after real work drains.  A device calls
  /// note_daemon_armed() when scheduling its tick and note_daemon_disarmed()
  /// when the tick fires (or is cancelled).
  void note_daemon_armed() { ++daemon_events_; }
  void note_daemon_disarmed() { --daemon_events_; }

  /// Live events that are not armed daemon ticks: the work that justifies
  /// keeping periodic housekeeping running.
  [[nodiscard]] std::size_t pending_work() const {
    return live_events_ - daemon_events_;
  }

  /// Runs a single event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains.
  void run();

  /// Runs events with time <= deadline, then sets now() = deadline.
  void run_until(SimTime deadline);

  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Installs (or, with an empty function, removes) a trace callback invoked
  /// on every schedule/fire/cancel.  When unset the hook costs one predicted
  /// branch per operation; see BM_EventQueueScheduleRun in micro_kernel.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// Installs (or, with nullptr, removes) the dispatch probe.  Not owned.
  /// When unset the dispatch path costs one predicted branch per event
  /// (asserted by micro_kernel's zero-alloc benches staying flat).
  void set_dispatch_probe(DispatchProbe* probe) {
    probe_ = probe;
    if (probe_ != nullptr) probe_->resync();
  }
  [[nodiscard]] DispatchProbe* dispatch_probe() const { return probe_; }

  /// Tag stamped on events scheduled right now: the dispatching event's tag
  /// during dispatch, or the innermost ComponentScope's.
  [[nodiscard]] Component current_component() const {
    return current_component_;
  }

  /// Switches the current tag and opens a probe frame; returns the previous
  /// tag for end_component().  Use ComponentScope instead of calling these
  /// directly.
  Component begin_component(Component c) {
    const Component prev = current_component_;
    current_component_ = c;
    if (probe_ != nullptr) probe_->enter(c);
    return prev;
  }
  void end_component(Component prev) {
    current_component_ = prev;
    if (probe_ != nullptr) probe_->leave();
  }

  /// Footprint stamped on events scheduled right now (mirrors the component
  /// tag).  Defaults to wildcard; FootprintScope narrows it.
  [[nodiscard]] const Footprint& current_footprint() const {
    return current_footprint_;
  }
  Footprint begin_footprint(const Footprint& f) {
    const Footprint prev = current_footprint_;
    current_footprint_ = f;
    return prev;
  }
  void end_footprint(const Footprint& prev) { current_footprint_ = prev; }

  /// Installs (or, with nullptr, removes) the tie-break policy and sets the
  /// commutation window: live events whose fire times fall within `window`
  /// of the earliest live event form the co-enabled set the policy chooses
  /// from.  window == 0 (the default) means exact timestamp ties only.
  /// With a nonzero window an event can fire "early"; now() stays monotone
  /// (it never moves backward), so a reordered event observes the latest
  /// time of any event fired before it.  When unset the dispatch path is
  /// unchanged (one predicted branch per event).
  void set_tie_break_policy(TieBreakPolicy* policy, Duration window = {}) {
    policy_ = policy;
    window_ = window;
  }
  [[nodiscard]] TieBreakPolicy* tie_break_policy() const { return policy_; }

  /// Fire time of the next live event (prunes lazy-cancel corpses), or
  /// never() when the queue is empty.  Lets explorer drivers run a bounded
  /// horizon with an abort check between events.
  [[nodiscard]] SimTime next_event_time();
  [[nodiscard]] bool has_live_events() { return peek_live() != nullptr; }

  /// Arena occupancy, for the profiler's gauges: total slots ever grown to
  /// (the high-water mark of concurrently live events), currently live
  /// slots, and raw heap entries (live events + lazy-cancel corpses).
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t arena_live_slots() const {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t queue_depth() const { return heap_.size(); }

 private:
  struct HeapItem {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// One arena slot.  seq == 0 marks a free slot; a heap corpse is an item
  /// whose (slot, seq) no longer matches the slot's current occupant.
  struct Slot {
    SimTime when{};  // kept so cancel() can report the fire time in traces
    std::uint64_t seq = 0;
    Component comp = Component::kKernel;  // tag current at schedule time
    Footprint fp{};                       // footprint current at schedule time
    Action action;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool slot_live(const HeapItem& item) const {
    return slots_[item.slot].seq == item.seq;
  }
  void free_slot(std::uint32_t slot);

  /// Discards cancelled corpses from the heap top (counting them in
  /// stats_.corpses_skipped) and returns the next live item, or nullptr when
  /// nothing live remains.  The returned pointer is invalidated by any heap
  /// mutation.
  const HeapItem* peek_live();

  /// Pops heap items until one whose slot is still live surfaces.
  /// Returns false when nothing live remains.
  bool pop_live(HeapItem& out, Action& action, Component& comp);

  /// Policy-mode dispatch: gathers the co-enabled set, lets the installed
  /// TieBreakPolicy pick, fires the pick, and pushes the rest back.
  bool step_choice();

  /// Fires one popped event: advances now() monotonically, runs the action
  /// under its component tag, and brackets it with the dispatch probe.
  void fire(const HeapItem& item, Action& action, Component comp);

  SimTime now_{};
  std::uint64_t next_seq_ = 1;
  std::size_t daemon_events_ = 0;
  std::size_t live_events_ = 0;
  std::priority_queue<HeapItem, std::vector<HeapItem>, Later> heap_;
  std::vector<Slot> slots_;               // arena of live events
  std::vector<std::uint32_t> free_slots_; // recycled slot indices
  SimulatorStats stats_;
  TraceFn trace_;
  Component current_component_ = Component::kKernel;
  Footprint current_footprint_{};  // wildcard by default
  DispatchProbe* probe_ = nullptr;
  TieBreakPolicy* policy_ = nullptr;  // not owned; nullptr = FIFO dispatch
  Duration window_{};                 // co-enabled commutation window
  std::vector<HeapItem> staged_;      // step_choice scratch (reused)
  std::vector<CoEnabledEvent> cands_;
};

/// RAII component-tag switch: statements inside the scope -- and every event
/// they schedule -- are attributed to `c`.  Nesting restores the previous
/// tag on exit; the probe sees a matching enter/leave pair.
class ComponentScope {
 public:
  ComponentScope(Simulator& sim, Component c)
      : sim_(sim), prev_(sim.begin_component(c)) {}
  ~ComponentScope() { sim_.end_component(prev_); }
  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

 private:
  Simulator& sim_;
  Component prev_;
};

/// RAII footprint switch: events scheduled inside the scope are stamped as
/// touching exactly `f`'s peers.  Nesting restores the previous footprint.
class FootprintScope {
 public:
  FootprintScope(Simulator& sim, const Footprint& f)
      : sim_(sim), prev_(sim.begin_footprint(f)) {}
  ~FootprintScope() { sim_.end_footprint(prev_); }
  FootprintScope(const FootprintScope&) = delete;
  FootprintScope& operator=(const FootprintScope&) = delete;

 private:
  Simulator& sim_;
  Footprint prev_;
};

}  // namespace hp2p::sim
