// Overlay message transport.
//
// All three overlays (Chord baseline, Gnutella baseline, hybrid system) move
// messages through this class.  It is deliberately type-erased: a "message"
// is a closure that runs at the receiver when delivery completes, so each
// protocol keeps fully typed handlers while the transport provides the
// shared physics -- propagation delay from the underlay shortest path,
// optional access-link transmission delay (Section 5.1 heterogeneity),
// silent drops to crashed peers, and the accounting every experiment needs
// (message counts, bytes, link stress).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "net/underlay.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace hp2p::stats {
class Profiler;
}  // namespace hp2p::stats

namespace hp2p::proto {

/// Traffic classes, for per-category accounting in the benches.
enum class TrafficClass : std::uint8_t {
  kControl,    // join/leave/stabilization handshakes
  kQuery,      // lookup requests (flooding / ring forwarding)
  kData,       // data-item transfers (stores, lookup replies)
  kHeartbeat,  // HELLO and acknowledgment messages
  kCount_,     // sentinel
};

inline constexpr std::size_t kNumTrafficClasses =
    static_cast<std::size_t>(TrafficClass::kCount_);

/// Stable snake_case name for metric keys and profile attribution.
[[nodiscard]] const char* traffic_class_name(TrafficClass cls);

/// Nominal wire sizes (bytes) per message family.  Only ratios matter: they
/// feed the transmission-delay term and the bandwidth accounting.
inline constexpr std::uint32_t kControlBytes = 64;
inline constexpr std::uint32_t kQueryBytes = 128;
inline constexpr std::uint32_t kDataBytes = 8192;
inline constexpr std::uint32_t kHeartbeatBytes = 32;

/// Why a message (or a whole routing attempt) was abandoned.  The first
/// three are observed by the transport itself; the last two are reported by
/// the protocols via note_drop() because only they know a TTL ran out or a
/// route dead-ended.
enum class DropReason : std::uint8_t {
  kDeadSender,    // sender crashed before send
  kDeadReceiver,  // receiver crashed before delivery
  kLoss,          // random in-transit loss
  kTtlExhausted,  // flood/walk TTL reached zero
  kNoRoute,       // routing dead end (no live successor / orphaned peer)
  kCount_,        // sentinel
};

inline constexpr std::size_t kNumDropReasons =
    static_cast<std::size_t>(DropReason::kCount_);

/// Stable snake_case name for metric keys and trace annotations.
[[nodiscard]] const char* drop_reason_name(DropReason reason);

/// Aggregate transport counters.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // receiver dead at delivery time
  std::uint64_t messages_lost = 0;     // random in-transit loss
  /// Sent but fate undecided (still propagating).  At any instant
  /// sent == delivered + dead-receiver drops + in_flight -- the conservation
  /// law the OverlayAuditor asserts.
  std::uint64_t messages_in_flight = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t per_class_messages[kNumTrafficClasses] = {};
  std::uint64_t per_class_bytes[kNumTrafficClasses] = {};
  std::uint64_t drops_by_reason[kNumDropReasons] = {};

  [[nodiscard]] std::uint64_t class_messages(TrafficClass c) const {
    return per_class_messages[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t class_bytes(TrafficClass c) const {
    return per_class_bytes[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t reason_drops(DropReason r) const {
    return drops_by_reason[static_cast<std::size_t>(r)];
  }
};

/// One transport-level trace record, delivered to the optional trace
/// callback.  kSend fires at send time; the other kinds fire when the
/// message's fate is decided (delivery, receiver-dead drop, in-transit
/// loss, sender-dead drop at send time).
struct NetTraceEvent {
  /// kDropTtl / kDropNoRoute come from note_drop() (protocol-level); the
  /// rest from the transport itself.
  enum class Kind {
    kSend,
    kDeliver,
    kDropDeadSender,
    kDropDeadReceiver,
    kLoss,
    kDropTtl,
    kDropNoRoute,
  };
  Kind kind;
  PeerIndex from;
  PeerIndex to;
  TrafficClass cls;
  std::uint32_t bytes;
};

/// Verdict of the optional fault hook for one message: drop it outright
/// (accounted exactly like random in-transit loss) and/or stretch its
/// transit by `extra_delay`.  The chaos engine composes loss bursts,
/// latency storms and partitions out of these two primitives.
struct FaultAction {
  bool drop = false;
  sim::Duration extra_delay{};
};

/// Transport options.
struct OverlayNetworkOptions {
  /// Adds bytes/access-link-capacity to every hop (Section 5.1 model).
  bool model_transmission_delay = false;
  /// Tracks per-physical-edge message copies (link stress, costs one path
  /// walk per message).
  bool track_link_stress = false;
  /// Probability that any message is silently lost in transit
  /// (failure-injection knob; 0 = reliable, the paper's assumption).
  double loss_rate = 0.0;
  /// Seed of the loss process (independent of protocol randomness).
  std::uint64_t loss_seed = 0x10552eed;
  /// Link-stress counter storage: kAuto switches to a sparse hash map past
  /// LinkStress::kSparseThreshold edges (identical reported values).
  net::LinkStress::Mode link_stress_mode = net::LinkStress::Mode::kAuto;
};

/// The transport.  One instance per simulation replica.
class OverlayNetwork {
 public:
  /// Receiver-side continuation of one message.  Inline capacity covers
  /// every protocol handler closure on the hot path; oversized closures
  /// still work, they just heap-allocate (see InlineFunction).
  static constexpr std::size_t kDeliveryCapacity = 80;
  using Delivery = InlineFunction<void(), kDeliveryCapacity>;
  /// Continuation told the message's fate: true when delivered, false when
  /// the receiver was dead at delivery time.
  using FateDelivery = InlineFunction<void(bool delivered), kDeliveryCapacity>;

  OverlayNetwork(sim::Simulator& simulator, const net::Underlay& underlay,
                 OverlayNetworkOptions options = {});

  /// Registers a peer living on `host`; returns its dense index.
  PeerIndex add_peer(HostIndex host);

  [[nodiscard]] std::uint32_t num_peers() const {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  [[nodiscard]] HostIndex host_of(PeerIndex peer) const {
    return hosts_[peer.value()];
  }
  [[nodiscard]] bool alive(PeerIndex peer) const {
    return alive_[peer.value()];
  }

  /// Marks a peer dead (crash) or resurrected.  In-flight messages to a dead
  /// peer are dropped at delivery time -- exactly the paper's crash model.
  void set_alive(PeerIndex peer, bool is_alive) {
    alive_[peer.value()] = is_alive;
    ++liveness_epoch_;
  }

  /// Bumped on every set_alive(); lets higher layers cache liveness-derived
  /// snapshots (e.g. HybridSystem::live_peers) without hooking every crash
  /// and leave path.
  [[nodiscard]] std::uint64_t liveness_epoch() const {
    return liveness_epoch_;
  }

  /// Sends one overlay message: schedules `deliver` at
  /// now + propagation(+transmission).  No-op (counted as dropped) when the
  /// sender is dead; delivery is suppressed when the receiver is dead then.
  void send(PeerIndex from, PeerIndex to, TrafficClass cls,
            std::uint32_t bytes, Delivery deliver) {
    send(from, to, cls, bytes, stats::TraceContext{}, std::move(deliver));
  }

  /// Traced send: `ctx` is the causal header the protocols propagate.  When
  /// a span recorder is installed and `ctx` is valid, the message's transit
  /// becomes a "net" child span (annotated with destination and bytes, and
  /// with its fate on drop/loss).
  void send(PeerIndex from, PeerIndex to, TrafficClass cls,
            std::uint32_t bytes, stats::TraceContext ctx, Delivery deliver);

  /// Traced send whose continuation runs whatever the message's fate at
  /// delivery time: `deliver(true)` on delivery, `deliver(false)` when the
  /// receiver was dead by then.  Returns the scheduled delivery time, or
  /// never() when the message was dropped at send (dead sender, random loss
  /// or a fault-hook drop) and `deliver` will not run at all.  Lets a
  /// protocol react to a lost message without a timer per message.
  sim::SimTime send_with_fate(PeerIndex from, PeerIndex to, TrafficClass cls,
                              std::uint32_t bytes, stats::TraceContext ctx,
                              FateDelivery deliver);

  /// Protocol-level drop report (TTL exhausted, no route): bumps the
  /// per-reason counter, emits a NetTraceEvent, and -- when traced --
  /// records an instant under `ctx`.  Transport-level reasons are counted
  /// by send() itself.
  void note_drop(PeerIndex at, DropReason reason, TrafficClass cls,
                 stats::TraceContext ctx = {});

  /// Latency of a single overlay hop, as send() would charge it.
  [[nodiscard]] sim::SimTime hop_latency(PeerIndex from, PeerIndex to,
                                         std::uint32_t bytes) const;

  /// Messages this peer has sent / had delivered to it -- the raw material
  /// of the paper's t-peer vs s-peer load-imbalance argument (Section 5.1).
  [[nodiscard]] std::uint64_t messages_sent_by(PeerIndex peer) const {
    return sent_by_[peer.value()];
  }
  [[nodiscard]] std::uint64_t messages_received_by(PeerIndex peer) const {
    return received_by_[peer.value()];
  }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const net::Underlay& underlay() const { return underlay_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const net::LinkStress* link_stress() const {
    return link_stress_ ? &*link_stress_ : nullptr;
  }

  using TraceFn = std::function<void(const NetTraceEvent&)>;
  /// Installs (or, with an empty function, removes) a trace callback invoked
  /// on every send/deliver/drop/loss.  One predicted branch per message when
  /// unset.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// Installs (or, with nullptr, removes) the span recorder that traced
  /// sends and note_drop() report into.  Not owned.
  void set_span_recorder(stats::SpanRecorder* recorder) { spans_ = recorder; }
  [[nodiscard]] stats::SpanRecorder* span_recorder() const { return spans_; }

  /// Installs (or, with nullptr, removes) the dispatch profiler that
  /// per-message-type delivery time and bytes are attributed to.  Not
  /// owned.  One predicted branch per delivery when unset.
  void set_profiler(stats::Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] stats::Profiler* profiler() const { return profiler_; }

  using FaultFn = std::function<FaultAction(PeerIndex from, PeerIndex to,
                                            TrafficClass cls,
                                            std::uint32_t bytes)>;
  /// Installs (or, with an empty function, removes) the fault hook consulted
  /// on every live-sender send, before the random-loss roll; a `drop`
  /// verdict skips that roll, so it draws nothing from the loss stream.  A
  /// drop is indistinguishable from random loss in every counter and trace
  /// record, so the conservation law the auditor checks still holds;
  /// `extra_delay` is added to the hop latency of that one message.
  void set_fault(FaultFn fn) { fault_ = std::move(fn); }

 private:
  /// The one body behind send() and send_with_fate(); `Deliver` is Delivery
  /// or FateDelivery, taken by reference so it is moved only into the
  /// delivery event.
  template <typename Deliver>
  sim::SimTime send_impl(PeerIndex from, PeerIndex to, TrafficClass cls,
                         std::uint32_t bytes, stats::TraceContext ctx,
                         Deliver& deliver);

  sim::Simulator& simulator_;
  const net::Underlay& underlay_;
  OverlayNetworkOptions options_;
  std::vector<HostIndex> hosts_;
  std::vector<bool> alive_;
  std::uint64_t liveness_epoch_ = 0;
  std::vector<std::uint64_t> sent_by_;
  std::vector<std::uint64_t> received_by_;
  NetworkStats stats_;
  std::optional<net::LinkStress> link_stress_;
  Rng loss_rng_;
  TraceFn trace_;
  FaultFn fault_;
  stats::SpanRecorder* spans_ = nullptr;
  stats::Profiler* profiler_ = nullptr;
};

}  // namespace hp2p::proto
