#include "proto/overlay_network.hpp"

#include <type_traits>
#include <utility>

#include "stats/profiler.hpp"

namespace hp2p::proto {

const char* traffic_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kControl: return "control";
    case TrafficClass::kQuery: return "query";
    case TrafficClass::kData: return "data";
    case TrafficClass::kHeartbeat: return "heartbeat";
    case TrafficClass::kCount_: break;
  }
  return "unknown";
}

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kDeadSender: return "dead_sender";
    case DropReason::kDeadReceiver: return "dead_receiver";
    case DropReason::kLoss: return "loss";
    case DropReason::kTtlExhausted: return "ttl_exhausted";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kCount_: break;
  }
  return "unknown";
}

OverlayNetwork::OverlayNetwork(sim::Simulator& simulator,
                               const net::Underlay& underlay,
                               OverlayNetworkOptions options)
    : simulator_(simulator), underlay_(underlay), options_(options),
      loss_rng_(options.loss_seed) {
  if (options_.track_link_stress) {
    link_stress_.emplace(underlay_.topology().graph.num_edges(),
                         options_.link_stress_mode);
  }
}

PeerIndex OverlayNetwork::add_peer(HostIndex host) {
  hosts_.push_back(host);
  alive_.push_back(true);
  sent_by_.push_back(0);
  received_by_.push_back(0);
  return PeerIndex{static_cast<std::uint32_t>(hosts_.size() - 1)};
}

sim::SimTime OverlayNetwork::hop_latency(PeerIndex from, PeerIndex to,
                                         std::uint32_t bytes) const {
  const HostIndex src = host_of(from);
  const HostIndex dst = host_of(to);
  sim::SimTime delay = underlay_.latency(src, dst);
  if (options_.model_transmission_delay) {
    delay += underlay_.transmission_delay(src, dst, bytes);
  }
  return delay;
}

void OverlayNetwork::send(PeerIndex from, PeerIndex to, TrafficClass cls,
                          std::uint32_t bytes, stats::TraceContext ctx,
                          Delivery deliver) {
  send_impl(from, to, cls, bytes, ctx, deliver);
}

sim::SimTime OverlayNetwork::send_with_fate(PeerIndex from, PeerIndex to,
                                            TrafficClass cls,
                                            std::uint32_t bytes,
                                            stats::TraceContext ctx,
                                            FateDelivery deliver) {
  return send_impl(from, to, cls, bytes, ctx, deliver);
}

template <typename Deliver>
sim::SimTime OverlayNetwork::send_impl(PeerIndex from, PeerIndex to,
                                       TrafficClass cls, std::uint32_t bytes,
                                       stats::TraceContext ctx,
                                       Deliver& deliver) {
  constexpr bool kFated = std::is_same_v<Deliver, FateDelivery>;
  using Kind = NetTraceEvent::Kind;
  if (!alive(from)) {
    ++stats_.messages_dropped;
    ++stats_.drops_by_reason[static_cast<std::size_t>(DropReason::kDeadSender)];
    if (trace_) trace_({Kind::kDropDeadSender, from, to, cls, bytes});
    if (spans_ != nullptr && ctx.valid()) {
      spans_->instant(ctx, "drop:dead_sender", from.value(), simulator_.now());
    }
    return sim::SimTime::never();
  }
  sim::Duration fault_delay{};
  bool fault_drop = false;
  if (fault_) {
    const FaultAction action = fault_(from, to, cls, bytes);
    fault_drop = action.drop;
    fault_delay = action.extra_delay;
  }
  if (fault_drop ||
      (options_.loss_rate > 0.0 && loss_rng_.chance(options_.loss_rate))) {
    ++stats_.messages_lost;  // lost in transit; sender pays nothing extra
    ++stats_.drops_by_reason[static_cast<std::size_t>(DropReason::kLoss)];
    if (trace_) trace_({Kind::kLoss, from, to, cls, bytes});
    if (spans_ != nullptr && ctx.valid()) {
      spans_->instant(ctx, "drop:loss", from.value(), simulator_.now(), "to",
                      to.value());
    }
    return sim::SimTime::never();
  }
  ++stats_.messages_sent;
  ++stats_.messages_in_flight;
  ++sent_by_[from.value()];
  stats_.bytes_sent += bytes;
  ++stats_.per_class_messages[static_cast<std::size_t>(cls)];
  stats_.per_class_bytes[static_cast<std::size_t>(cls)] += bytes;
  if (trace_) trace_({Kind::kSend, from, to, cls, bytes});

  if (link_stress_) {
    underlay_.for_each_path_edge(host_of(from), host_of(to),
                                 [&](net::EdgeIndex e) { link_stress_->bump(e); });
  }

  stats::TraceContext msg_span;
  if (spans_ != nullptr && ctx.valid()) {
    msg_span = spans_->begin_span(ctx, "msg", "net", from.value(),
                                  simulator_.now());
    spans_->add_arg(msg_span, "to", to.value());
    spans_->add_arg(msg_span, "bytes", bytes);
  }

  const sim::SimTime delay = hop_latency(from, to, bytes) + fault_delay;
  // Footprint for the verify/ explorer's independence relation: a heartbeat,
  // query or data delivery only touches the records of the two endpoints
  // (note_heard mutates *both* the receiver's last_heard and the sender's
  // tree pointers), so deliveries on disjoint peer pairs commute.  Control
  // messages restructure the overlay (joins, ring repair, server
  // competition) and stay wildcard-ordered against everything.
  const sim::FootprintScope fps{
      simulator_, cls == TrafficClass::kControl
                      ? sim::Footprint::wild()
                      : sim::Footprint::on({from.value(), to.value()})};
  const sim::SimTime arrival = simulator_.now() + delay;
  simulator_.schedule_at(
      arrival, [this, from, to, cls, bytes, msg_span,
              deliver = std::move(deliver)]() mutable {
        --stats_.messages_in_flight;
        if (!alive(to)) {
          ++stats_.messages_dropped;
          ++stats_.drops_by_reason[static_cast<std::size_t>(
              DropReason::kDeadReceiver)];
          if (trace_) trace_({Kind::kDropDeadReceiver, from, to, cls, bytes});
          if (spans_ != nullptr && msg_span.valid()) {
            spans_->add_arg(msg_span, "dropped_dead_receiver", 1);
            spans_->end_span(msg_span, simulator_.now());
          }
          if constexpr (kFated) deliver(false);
          return;
        }
        ++stats_.messages_delivered;
        ++received_by_[to.value()];
        if (profiler_ != nullptr) {
          profiler_->message_delivered(static_cast<std::size_t>(cls),
                                       traffic_class_name(cls), bytes);
        }
        if (trace_) trace_({Kind::kDeliver, from, to, cls, bytes});
        if (spans_ != nullptr && msg_span.valid()) {
          spans_->end_span(msg_span, simulator_.now());
        }
        if constexpr (kFated) {
          deliver(true);
        } else {
          deliver();
        }
      });
  return arrival;
}

void OverlayNetwork::note_drop(PeerIndex at, DropReason reason,
                               TrafficClass cls, stats::TraceContext ctx) {
  ++stats_.drops_by_reason[static_cast<std::size_t>(reason)];
  if (trace_) {
    const auto kind = reason == DropReason::kTtlExhausted
                          ? NetTraceEvent::Kind::kDropTtl
                          : NetTraceEvent::Kind::kDropNoRoute;
    trace_({kind, at, at, cls, 0});
  }
  if (spans_ != nullptr && ctx.valid()) {
    spans_->instant(ctx,
                    reason == DropReason::kTtlExhausted ? "drop:ttl_exhausted"
                                                        : "drop:no_route",
                    at.value(), simulator_.now());
  }
}

}  // namespace hp2p::proto
