// Unit tests for the overlay transport.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"

namespace hp2p::proto {
namespace {

class OverlayNetworkTest : public ::testing::Test {
 protected:
  OverlayNetworkTest() : rng_(101) {
    auto p = net::TransitStubParams::for_total_nodes(100);
    underlay_.emplace(net::generate_transit_stub(p, rng_), rng_);
  }

  OverlayNetwork make_network(OverlayNetworkOptions opts = {}) {
    return OverlayNetwork{sim_, *underlay_, opts};
  }

  Rng rng_;
  sim::Simulator sim_;
  std::optional<net::Underlay> underlay_;
};

TEST_F(OverlayNetworkTest, AddPeerAssignsDenseIndices) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{1});
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(net.num_peers(), 2u);
  EXPECT_EQ(net.host_of(b), HostIndex{1});
  EXPECT_TRUE(net.alive(a));
}

TEST_F(OverlayNetworkTest, DeliveryAfterPropagationDelay) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{50});
  sim::SimTime delivered_at = sim::SimTime::never();
  net.send(a, b, TrafficClass::kControl, kControlBytes,
           [&] { delivered_at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(delivered_at, underlay_->latency(HostIndex{0}, HostIndex{50}));
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(OverlayNetworkTest, TransmissionDelayAddsWhenEnabled) {
  auto plain = make_network();
  auto hetero = make_network({.model_transmission_delay = true});
  const PeerIndex a1 = plain.add_peer(HostIndex{0});
  const PeerIndex b1 = plain.add_peer(HostIndex{50});
  const PeerIndex a2 = hetero.add_peer(HostIndex{0});
  const PeerIndex b2 = hetero.add_peer(HostIndex{50});
  EXPECT_GT(hetero.hop_latency(a2, b2, kDataBytes),
            plain.hop_latency(a1, b1, kDataBytes));
  EXPECT_EQ(plain.hop_latency(a1, b1, kDataBytes),
            underlay_->latency(HostIndex{0}, HostIndex{50}));
}

TEST_F(OverlayNetworkTest, DeadReceiverDropsAtDeliveryTime) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  bool delivered = false;
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { delivered = true; });
  net.set_alive(b, false);  // crash while in flight
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().messages_sent, 1u);
}

TEST_F(OverlayNetworkTest, DeadSenderCannotSend) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.set_alive(a, false);
  bool delivered = false;
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { delivered = true; });
  sim_.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().messages_sent, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(OverlayNetworkTest, SendWithFateReportsEveryFate) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  const sim::SimTime lat = net.hop_latency(a, b, kQueryBytes);
  std::vector<std::pair<bool, sim::SimTime>> fates;
  const auto record = [&](bool delivered) {
    fates.emplace_back(delivered, sim_.now());
  };
  // Delivered: the send returns the delivery time; the continuation hears
  // true then.
  EXPECT_EQ(net.send_with_fate(a, b, TrafficClass::kQuery, kQueryBytes, {},
                               record),
            lat);
  sim_.run();
  // Receiver dead at delivery: same return, the continuation hears false.
  EXPECT_EQ(net.send_with_fate(a, b, TrafficClass::kQuery, kQueryBytes, {},
                               record),
            sim_.now() + lat);
  net.set_alive(b, false);
  sim_.run();
  net.set_alive(b, true);
  // Dropped at send (a fault-hook drop, then a dead sender): never(), and
  // the continuation never runs.
  net.set_fault([](PeerIndex, PeerIndex, TrafficClass, std::uint32_t) {
    return FaultAction{.drop = true};
  });
  EXPECT_EQ(net.send_with_fate(a, b, TrafficClass::kQuery, kQueryBytes, {},
                               record),
            sim::SimTime::never());
  net.set_fault({});
  net.set_alive(a, false);
  EXPECT_EQ(net.send_with_fate(a, b, TrafficClass::kQuery, kQueryBytes, {},
                               record),
            sim::SimTime::never());
  sim_.run();
  EXPECT_EQ(fates, (std::vector<std::pair<bool, sim::SimTime>>{
                       {true, lat}, {false, lat + lat}}));
}

TEST_F(OverlayNetworkTest, PerClassAccounting) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(a, b, TrafficClass::kData, kDataBytes, [] {});
  sim_.run();
  EXPECT_EQ(net.stats().class_messages(TrafficClass::kQuery), 2u);
  EXPECT_EQ(net.stats().class_messages(TrafficClass::kData), 1u);
  EXPECT_EQ(net.stats().class_bytes(TrafficClass::kData), kDataBytes);
  EXPECT_EQ(net.stats().bytes_sent, 2u * kQueryBytes + kDataBytes);
}

TEST_F(OverlayNetworkTest, LinkStressTracksPathEdges) {
  auto net = make_network({.track_link_stress = true});
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{77});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  sim_.run();
  ASSERT_NE(net.link_stress(), nullptr);
  EXPECT_EQ(net.link_stress()->total_copies(),
            underlay_->path_hops(HostIndex{0}, HostIndex{77}));
}

TEST_F(OverlayNetworkTest, LinkStressDisabledByDefault) {
  auto net = make_network();
  EXPECT_EQ(net.link_stress(), nullptr);
}

TEST_F(OverlayNetworkTest, SelfSendDeliversAtOnce) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{3});
  sim::SimTime at = sim::SimTime::never();
  net.send(a, a, TrafficClass::kControl, kControlBytes, [&] { at = sim_.now(); });
  sim_.run();
  EXPECT_EQ(at, sim::SimTime{});
}

TEST_F(OverlayNetworkTest, PerPeerCountersTrackSendAndReceive) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  net.send(b, a, TrafficClass::kControl, kControlBytes, [] {});
  sim_.run();
  EXPECT_EQ(net.messages_sent_by(a), 2u);
  EXPECT_EQ(net.messages_received_by(b), 2u);
  EXPECT_EQ(net.messages_sent_by(b), 1u);
  EXPECT_EQ(net.messages_received_by(a), 1u);
}

TEST_F(OverlayNetworkTest, LossRateDropsSomeMessages) {
  OverlayNetworkOptions opts;
  opts.loss_rate = 0.5;
  auto net = make_network(opts);
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { ++delivered; });
  }
  sim_.run();
  EXPECT_GT(net.stats().messages_lost, 50u);
  EXPECT_GT(delivered, 50);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + net.stats().messages_lost,
            200u);
}

TEST_F(OverlayNetworkTest, ZeroLossRateLosesNothing) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  for (int i = 0; i < 50; ++i) {
    net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  }
  sim_.run();
  EXPECT_EQ(net.stats().messages_lost, 0u);
  EXPECT_EQ(net.stats().messages_delivered, 50u);
}

TEST_F(OverlayNetworkTest, ResurrectionAllowsDeliveryAgain) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  net.set_alive(b, false);
  net.set_alive(b, true);
  bool delivered = false;
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [&] { delivered = true; });
  sim_.run();
  EXPECT_TRUE(delivered);
}

TEST_F(OverlayNetworkTest, TraceHookSeesSendDeliverAndDrops) {
  auto net = make_network();
  const PeerIndex a = net.add_peer(HostIndex{0});
  const PeerIndex b = net.add_peer(HostIndex{10});
  std::vector<NetTraceEvent> events;
  net.set_trace([&](const NetTraceEvent& ev) { events.push_back(ev); });

  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  sim_.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, NetTraceEvent::Kind::kSend);
  EXPECT_EQ(events[0].from, a);
  EXPECT_EQ(events[0].to, b);
  EXPECT_EQ(events[0].cls, TrafficClass::kQuery);
  EXPECT_EQ(events[0].bytes, kQueryBytes);
  EXPECT_EQ(events[1].kind, NetTraceEvent::Kind::kDeliver);

  events.clear();
  net.set_alive(b, false);
  net.send(a, b, TrafficClass::kQuery, kQueryBytes, [] {});
  sim_.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, NetTraceEvent::Kind::kSend);
  EXPECT_EQ(events[1].kind, NetTraceEvent::Kind::kDropDeadReceiver);

  events.clear();
  net.send(b, a, TrafficClass::kControl, kControlBytes, [] {});
  sim_.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NetTraceEvent::Kind::kDropDeadSender);
}

}  // namespace
}  // namespace hp2p::proto
