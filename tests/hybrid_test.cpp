// Tests for the hybrid system: construction invariants, join/leave/crash
// protocols, data placement, lookup behaviour, and the Section 5
// enhancements.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/hashing.hpp"
#include "common/ring_math.hpp"
#include "hybrid/hybrid_system.hpp"
#include "tests/test_util.hpp"

namespace hp2p::hybrid {
namespace {

using testing::SimWorld;

/// Builds a hybrid system of `n` peers with an exact t/s split derived from
/// params.ps.  Joins are staggered; the simulation drains between batches so
/// the build is deterministic but still exercises some concurrency.
struct HybridFixture {
  explicit HybridFixture(std::uint64_t seed, HybridParams params,
                         std::uint32_t hosts = 200,
                         proto::OverlayNetworkOptions net_opts = {})
      : world(seed, hosts, net_opts),
        system(*world.network, params, HostIndex{0}, world.rng) {}

  void build(std::size_t n, bool tpeers_first = false) {
    const double ps = system.params().ps;
    auto n_t = static_cast<std::size_t>(
        std::max(1.0, (1.0 - ps) * static_cast<double>(n) + 0.5));
    n_t = std::min(n_t, n);
    std::vector<Role> roles(n, Role::kSPeer);
    for (std::size_t i = 0; i < n_t; ++i) roles[i] = Role::kTPeer;
    if (!tpeers_first) {
      // First peer must seed the ring; shuffle the rest.
      std::vector<Role> tail(roles.begin() + 1, roles.end());
      world.rng.shuffle(tail);
      std::copy(tail.begin(), tail.end(), roles.begin() + 1);
    }

    std::size_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Role role = roles[i];
      world.sim.schedule_after(
          sim::SimTime::millis(static_cast<std::int64_t>(i) * 40), [&, role] {
            peers.push_back(system.add_peer_with_role(
                world.next_host(), role,
                [&](proto::JoinResult r) {
                  ++completed;
                  join_results.push_back(r);
                }));
          });
    }
    world.sim.run();
    ASSERT_EQ(completed, n) << "not every join completed";
  }

  /// Stores `count` uniform-keyed items from round-robin origins; returns
  /// the keys.
  std::vector<std::string> populate(std::size_t count) {
    std::vector<std::string> keys;
    std::size_t done_count = 0;
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back("key-" + std::to_string(i));
      const PeerIndex origin = peers[i % peers.size()];
      system.store(origin, keys.back(), i, [&] { ++done_count; });
    }
    world.sim.run();
    EXPECT_EQ(done_count, count);
    return keys;
  }

  SimWorld world;
  HybridSystem system;
  std::vector<PeerIndex> peers;
  std::vector<proto::JoinResult> join_results;
};

HybridParams defaults() {
  HybridParams p;
  p.ps = 0.5;
  p.delta = 3;
  p.ttl = 8;
  return p;
}

// --- Construction invariants ---------------------------------------------------

TEST(Hybrid, BuildProducesValidRingAndTrees) {
  HybridFixture f{41, defaults()};
  f.build(60);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_TRUE(f.system.verify_trees());
  EXPECT_EQ(f.system.num_tpeers() + f.system.num_speers(), 60u);
}

TEST(Hybrid, RoleSplitMatchesPs) {
  HybridFixture f{42, defaults()};
  f.build(60);
  EXPECT_NEAR(static_cast<double>(f.system.num_tpeers()), 30.0, 1.0);
  EXPECT_NEAR(static_cast<double>(f.system.num_speers()), 30.0, 1.0);
}

TEST(Hybrid, PsZeroDegeneratesToPureRing) {
  auto p = defaults();
  p.ps = 0.0;
  HybridFixture f{43, p};
  f.build(30);
  EXPECT_EQ(f.system.num_tpeers(), 30u);
  EXPECT_EQ(f.system.num_speers(), 0u);
  EXPECT_TRUE(f.system.verify_ring());
}

TEST(Hybrid, HighPsYieldsLargeSNetworks) {
  auto p = defaults();
  p.ps = 0.9;
  HybridFixture f{44, p};
  f.build(50);
  EXPECT_NEAR(static_cast<double>(f.system.num_tpeers()), 5.0, 1.0);
  EXPECT_TRUE(f.system.verify_trees());
}

TEST(Hybrid, SPeersInheritTPeerPid) {
  HybridFixture f{45, defaults()};
  f.build(40);
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      EXPECT_EQ(f.system.pid_of(p),
                f.system.pid_of(f.system.tpeer_of(p)));
    }
  }
}

TEST(Hybrid, TreeDegreeRespectsDelta) {
  auto params = defaults();
  params.ps = 0.85;
  params.delta = 3;
  HybridFixture f{46, params};
  f.build(60);
  for (const auto p : f.peers) {
    unsigned degree = static_cast<unsigned>(f.system.children_of(p).size());
    if (f.system.role_of(p) == Role::kSPeer) ++degree;  // cp link
    EXPECT_LE(degree, params.delta) << "peer " << p.value();
  }
}

TEST(Hybrid, SegmentsPartitionTheRing) {
  HybridFixture f{47, defaults()};
  f.build(40);
  // Each t-peer's segment is (pred, self]; walking successors the segments
  // must tile the whole id space.
  std::uint64_t covered = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer) continue;
    const auto [lo, hi] = f.system.segment_of(p);
    covered += ring::distance_cw(lo.value(), hi.value());
  }
  EXPECT_EQ(covered, kRingSize);
}

TEST(Hybrid, JoinLatencyMeasured) {
  HybridFixture f{48, defaults()};
  f.build(30);
  ASSERT_EQ(f.join_results.size(), 30u);
  // All but the seed require at least a server round trip.
  for (std::size_t i = 1; i < f.join_results.size(); ++i) {
    EXPECT_GT(f.join_results[i].latency.as_micros(), 0);
  }
}

TEST(Hybrid, SmallestSNetworkAssignmentBalances) {
  // With the ring in place first, smallest-first assignment must keep the
  // s-network sizes within a couple of peers of each other.  (Interleaved
  // t-joins necessarily skew sizes: peers assigned before a t-peer exists
  // cannot retroactively move.)
  auto params = defaults();
  params.ps = 0.8;
  HybridFixture f{49, params};
  f.build(50, /*tpeers_first=*/true);
  std::vector<std::size_t> sizes;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer) {
      sizes.push_back(f.system.snetwork_members(p).size());
    }
  }
  ASSERT_FALSE(sizes.empty());
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*mx - *mn, 3u) << "s-network sizes spread too far";
}

// --- Data placement ----------------------------------------------------------------

TEST(Hybrid, StoreKeepsLocalSegmentDataAtOrigin) {
  HybridFixture f{50, defaults()};
  f.build(30);
  // Find a peer and a data id inside its own segment.
  const PeerIndex origin = f.peers[3];
  const auto [lo, hi] = f.system.segment_of(f.system.tpeer_of(origin));
  const DataId id{ring::midpoint_cw(lo.value(), hi.value())};
  bool done = false;
  f.system.store_id(origin, id, "local", 1, [&] { done = true; });
  f.world.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NE(f.system.store_of(origin).find(id), nullptr);
}

TEST(Hybrid, StoreRoutesCrossSegmentDataToOwnerSNetwork) {
  HybridFixture f{51, defaults()};
  f.build(30);
  std::size_t placed = 0;
  for (int i = 0; i < 50; ++i) {
    f.system.store(f.peers[static_cast<std::size_t>(i) % f.peers.size()],
                   "x" + std::to_string(i), 1, [&] { ++placed; });
  }
  f.world.sim.run();
  EXPECT_EQ(placed, 50u);
  EXPECT_EQ(f.system.total_items(), 50u);
  // Every item must live inside the s-network that owns its id.
  for (const auto p : f.peers) {
    const PeerIndex my_root = f.system.tpeer_of(p);
    f.system.store_of(p).for_each([&](const proto::DataItem& item) {
      EXPECT_EQ(f.system.owner_tpeer(item.id), my_root)
          << "item misplaced at peer " << p.value();
    });
  }
}

TEST(Hybrid, Scheme1ConcentratesDataAtTPeers) {
  auto params = defaults();
  params.ps = 0.8;
  params.placement = PlacementScheme::kTPeerStores;
  HybridFixture f{52, params};
  f.build(40);
  f.populate(120);
  std::size_t at_tpeers = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer) {
      at_tpeers += f.system.store_of(p).size();
    }
  }
  // Under scheme 1 only locally generated items can sit at s-peers.
  EXPECT_GT(static_cast<double>(at_tpeers), 0.7 * 120);
}

TEST(Hybrid, Scheme2SpreadsDataAcrossSNetworks) {
  auto params = defaults();
  params.ps = 0.8;
  params.placement = PlacementScheme::kRandomSpread;
  HybridFixture f{53, params};
  f.build(40);
  f.populate(200);
  std::size_t at_speers = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      at_speers += f.system.store_of(p).size();
    }
  }
  EXPECT_GT(at_speers, 40u) << "scheme 2 left everything at t-peers";
}

TEST(Hybrid, Scheme2LeavesFewerEmptyPeersThanScheme1) {
  // The headline contrast of Fig. 4.
  auto run = [](PlacementScheme scheme) {
    auto params = defaults();
    params.ps = 0.8;
    params.placement = scheme;
    HybridFixture f{54, params};
    f.build(40);
    f.populate(200);
    const auto counts = f.system.items_per_peer();
    return static_cast<double>(
               std::count(counts.begin(), counts.end(), 0u)) /
           static_cast<double>(counts.size());
  };
  const double empty1 = run(PlacementScheme::kTPeerStores);
  const double empty2 = run(PlacementScheme::kRandomSpread);
  EXPECT_LT(empty2, empty1);
}

// --- Lookup ---------------------------------------------------------------------------

TEST(Hybrid, LookupFindsAllStoredKeys) {
  HybridFixture f{55, defaults()};
  f.build(40);
  const auto keys = f.populate(80);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, 80);
}

TEST(Hybrid, LookupMissingKeyTimesOut) {
  HybridFixture f{56, defaults()};
  f.build(20);
  bool called = false;
  const auto t0 = f.world.sim.now();
  f.system.lookup(f.peers[0], "missing", [&](proto::LookupResult r) {
    called = true;
    EXPECT_FALSE(r.success);
  });
  f.world.sim.run();
  EXPECT_TRUE(called);
  EXPECT_GE((f.world.sim.now() - t0).as_micros(),
            defaults().lookup_timeout.as_micros());
}

TEST(Hybrid, LookupReportsHopsAndContacts) {
  HybridFixture f{57, defaults()};
  f.build(40);
  const auto keys = f.populate(40);
  f.world.sim.run();
  std::uint64_t total_contacted = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i + 11) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) {
                      if (r.success) total_contacted += r.peers_contacted;
                    });
  }
  f.world.sim.run();
  EXPECT_GT(total_contacted, 0u);
}

TEST(Hybrid, TinyTtlRaisesFailures) {
  auto run = [](unsigned ttl) {
    auto params = defaults();
    params.ps = 0.9;
    params.ttl = ttl;
    params.lookup_timeout = sim::SimTime::seconds(3);
    HybridFixture f{58, params};
    f.build(60);
    const auto keys = f.populate(80);
    int failures = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      f.system.lookup(f.peers[(i * 13) % f.peers.size()], keys[i],
                      [&](proto::LookupResult r) { failures += !r.success; });
    }
    f.world.sim.run();
    return failures;
  };
  const int fail_ttl1 = run(1);
  const int fail_ttl8 = run(8);
  EXPECT_GE(fail_ttl1, fail_ttl8);
  EXPECT_GT(fail_ttl1, 0);
}

TEST(Hybrid, RefloodRecoversDeepLocalItems) {
  auto params = defaults();
  params.ps = 0.9;
  params.ttl = 1;
  params.reflood_on_timeout = true;
  params.lookup_timeout = sim::SimTime::seconds(6);
  HybridFixture f{59, params};
  f.build(40);
  const auto keys = f.populate(60);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 3) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  // Re-flooding with doubled TTL must beat the plain TTL=1 run.
  auto params2 = params;
  params2.reflood_on_timeout = false;
  HybridFixture g{59, params2};
  g.build(40);
  const auto keys2 = g.populate(60);
  int successes2 = 0;
  for (std::size_t i = 0; i < keys2.size(); ++i) {
    g.system.lookup(g.peers[(i * 3) % g.peers.size()], keys2[i],
                    [&](proto::LookupResult r) { successes2 += r.success; });
  }
  g.world.sim.run();
  EXPECT_GE(successes, successes2);
}

// Shared setup for the two reflood-regression tests: a system whose biggest
// s-network root owns a known item held below the root, plus a fault window
// that eats query traffic long enough to kill the first flood but not the
// armed re-flood (which fires at lookup_timeout / 2).
namespace reflood_regression {

constexpr auto kDropWindow = sim::SimTime::seconds(2);

PeerIndex biggest_root(HybridFixture& f) {
  PeerIndex root = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer || !f.system.is_joined(p)) {
      continue;
    }
    if (root == kNoPeer || f.system.snetwork_members(p).size() >
                               f.system.snetwork_members(root).size()) {
      root = p;
    }
  }
  return root;
}

bool holds(const HybridFixture& f, PeerIndex p, DataId id) {
  return f.system.store_of(p).find(id) != nullptr;
}

HybridParams reflood_params(bool reflood) {
  auto params = defaults();
  params.ps = 0.9;
  params.reflood_on_timeout = reflood;
  params.lookup_timeout = sim::SimTime::seconds(6);
  // These scenarios drop query floods, not carriers: keep the ring-retry
  // hardening (and its end-to-end reroute, which would re-run the whole
  // lookup after the drop window closes) out of the picture so that
  // reflood_on_timeout stays the only discriminating variable.
  params.ring_retry_limit = 0;
  return params;
}

}  // namespace reflood_regression

TEST(Hybrid, RefloodRecoversLocalLookupFromQueryLossWindow) {
  using namespace reflood_regression;
  auto run = [](bool reflood) {
    HybridFixture f{61, reflood_params(reflood)};
    f.build(40, /*tpeers_first=*/true);
    const PeerIndex root = biggest_root(f);
    if (root == kNoPeer) {
      ADD_FAILURE() << "no t-peer with an s-network";
      return false;
    }
    // The root's own pid is always inside its segment (pred, pid].
    const DataId id{f.system.pid_of(root).value()};
    f.system.store_id(f.peers[0], id, "reflood-local", 1);
    f.world.sim.run();
    // Local-segment origin: a member of the root's s-network that does not
    // hold the item itself.
    PeerIndex origin = kNoPeer;
    for (const PeerIndex m : f.system.snetwork_members(root)) {
      if (m != root && !holds(f, m, id)) {
        origin = m;
        break;
      }
    }
    if (origin == kNoPeer) {
      ADD_FAILURE() << "no non-holding s-network member to look up from";
      return false;
    }
    const sim::SimTime window_end = f.world.sim.now() + kDropWindow;
    f.world.network->set_fault([&f, window_end](PeerIndex, PeerIndex,
                                                proto::TrafficClass cls,
                                                std::uint32_t) {
      proto::FaultAction a;
      a.drop = cls == proto::TrafficClass::kQuery &&
               f.world.sim.now() < window_end;
      return a;
    });
    bool success = false;
    f.system.lookup_id(origin, id,
                       [&success](proto::LookupResult r) {
                         success = r.success;
                       });
    f.world.sim.run();
    return success;
  };
  EXPECT_TRUE(run(true)) << "re-flood should recover the dropped flood";
  EXPECT_FALSE(run(false)) << "without re-flood the lookup must time out";
}

TEST(Hybrid, RefloodRecoversRemoteLookupFromOwnerFloodLoss) {
  using namespace reflood_regression;
  auto run = [](bool reflood) {
    HybridFixture f{62, reflood_params(reflood)};
    f.build(40, /*tpeers_first=*/true);
    const PeerIndex owner_root = biggest_root(f);
    if (owner_root == kNoPeer) {
      ADD_FAILURE() << "no t-peer with an s-network";
      return false;
    }
    // Store from outside the owner's s-network (a storer inside the
    // owner's segment would just keep the item locally) so items route to
    // the owner and spread down its tree.
    PeerIndex storer = kNoPeer;
    for (const auto p : f.peers) {
      if (f.system.is_joined(p) && f.system.role_of(p) == Role::kSPeer &&
          f.system.tpeer_of(p) != owner_root) {
        storer = p;
        break;
      }
    }
    if (storer == kNoPeer) {
      ADD_FAILURE() << "no storer outside the owner's s-network";
      return false;
    }
    // Store candidates in the owner's segment until one is spread below
    // the owner (the owner keeping a copy would answer without flooding).
    const auto [seg_lo, seg_hi] = f.system.segment_of(owner_root);
    DataId id{};
    bool found = false;
    int stored = 0;
    int held_by_owner = 0;
    for (std::uint64_t k = 0; k < 24 && !found; ++k) {
      const DataId candidate{ring::reduce(seg_hi.value() - k)};
      if (!ring::in_arc_open_closed(candidate.value(), seg_lo.value(),
                                    seg_hi.value())) {
        continue;
      }
      ++stored;
      f.system.store_id(storer, candidate,
                        "reflood-remote-" + std::to_string(k), k);
      f.world.sim.run();
      if (holds(f, owner_root, candidate)) {
        ++held_by_owner;
      } else {
        id = candidate;
        found = true;
      }
    }
    if (!found) {
      ADD_FAILURE() << "every candidate stuck at the owner t-peer; stored="
                    << stored << " held_by_owner=" << held_by_owner
                    << " children=" << f.system.children_of(owner_root).size()
                    << " members="
                    << f.system.snetwork_members(owner_root).size();
      return false;
    }
    // Remote origin: an s-peer from a different s-network.
    PeerIndex origin = kNoPeer;
    for (const auto p : f.peers) {
      if (f.system.is_joined(p) && f.system.role_of(p) == Role::kSPeer &&
          f.system.tpeer_of(p) != owner_root && !holds(f, p, id)) {
        origin = p;
        break;
      }
    }
    if (origin == kNoPeer) {
      ADD_FAILURE() << "no remote s-peer origin";
      return false;
    }
    // Eat only the owner's outgoing query traffic: the ring forward still
    // reaches the owner, whose s-network flood is what the window kills.
    const sim::SimTime window_end = f.world.sim.now() + kDropWindow;
    f.world.network->set_fault(
        [&f, owner_root, window_end](PeerIndex from, PeerIndex,
                                     proto::TrafficClass cls, std::uint32_t) {
          proto::FaultAction a;
          a.drop = from == owner_root &&
                   cls == proto::TrafficClass::kQuery &&
                   f.world.sim.now() < window_end;
          return a;
        });
    bool success = false;
    f.system.lookup_id(origin, id,
                       [&success](proto::LookupResult r) {
                         success = r.success;
                       });
    f.world.sim.run();
    return success;
  };
  EXPECT_TRUE(run(true))
      << "the remote path must arm a re-flood at the owner";
  EXPECT_FALSE(run(false)) << "without re-flood the lookup must time out";
}

// --- Graceful leave -----------------------------------------------------------------

TEST(Hybrid, TPeerLeavePromotesSPeerAndKeepsRingSize) {
  auto params = defaults();
  params.ps = 0.7;
  HybridFixture f{60, params};
  f.build(40);
  const std::size_t tpeers_before = f.system.num_tpeers();
  // Pick a t-peer with a non-empty s-network.
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.snetwork_members(p).size() > 1) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const PeerId victim_pid = f.system.pid_of(victim);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), tpeers_before);
  EXPECT_TRUE(f.system.verify_ring());
  // The promoted peer inherits the exact ring position.
  bool pid_alive = false;
  for (const auto p : f.peers) {
    if (p != victim && f.system.is_joined(p) &&
        f.system.role_of(p) == Role::kTPeer &&
        f.system.pid_of(p) == victim_pid) {
      pid_alive = true;
    }
  }
  EXPECT_TRUE(pid_alive);
}

TEST(Hybrid, TPeerLeaveTransfersData) {
  auto params = defaults();
  params.ps = 0.7;
  HybridFixture f{61, params};
  f.build(40);
  f.populate(100);
  const std::size_t before = f.system.total_items();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.snetwork_members(p).size() > 1) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.total_items(), before);
}

TEST(Hybrid, LonerTPeerLeaveShrinksRing) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{62, params};
  f.build(20);
  f.populate(50);
  const std::size_t before_items = f.system.total_items();
  f.system.leave(f.peers[7]);
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), 19u);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.total_items(), before_items);  // loaddump to successor
}

TEST(Hybrid, SPeerLeaveRejoinsOrphans) {
  auto params = defaults();
  params.ps = 0.85;
  params.delta = 2;  // deep trees -> leaves have parents with children
  HybridFixture f{63, params};
  f.build(50);
  // Find an s-peer with children.
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        !f.system.children_of(p).empty()) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const auto orphans = f.system.children_of(victim);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_FALSE(f.system.is_joined(victim));
  for (const auto o : orphans) {
    EXPECT_TRUE(f.system.is_joined(o)) << "orphan " << o.value();
  }
  EXPECT_TRUE(f.system.verify_trees());
}

TEST(Hybrid, SPeerLeaveTransfersLoad) {
  auto params = defaults();
  params.ps = 0.8;
  HybridFixture f{64, params};
  f.build(40);
  f.populate(150);
  const std::size_t before = f.system.total_items();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        f.system.store_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.total_items(), before);
}

TEST(Hybrid, SPeerLeaveSurvivesDeadHeirMidHandover) {
  // Regression: the graceful-leave handover used to be fire-and-forget; if
  // the chosen heir (the leaver's cp) crashed before the kData transfer
  // landed, the leaver's items vanished silently.  The sender now waits for
  // an ack and re-hands the load to the next live candidate.
  auto params = defaults();
  params.ps = 0.9;  // single t-peer, deep tree
  params.delta = 2;
  HybridFixture f{68, params};
  f.build(10);
  ASSERT_EQ(f.system.num_tpeers(), 1u);
  // An s-peer whose cp is itself an s-peer: that parent is the handover's
  // first-choice heir.
  PeerIndex leaver = kNoPeer;
  for (const auto p : f.peers) {
    const PeerIndex cp = f.system.parent_of(p);
    if (f.system.role_of(p) == Role::kSPeer && cp != kNoPeer &&
        f.system.role_of(cp) == Role::kSPeer) {
      leaver = p;
      break;
    }
  }
  ASSERT_NE(leaver, kNoPeer);
  const PeerIndex heir = f.system.parent_of(leaver);
  // One item, held by the leaver (single segment -> stores stay local).
  f.system.store_id(leaver, DataId{12345}, "survivor", 7);
  f.world.sim.run();
  ASSERT_NE(f.system.store_of(leaver).find(DataId{12345}), nullptr);
  // The heir crashes; the leave starts before anyone could have noticed.
  f.system.crash(heir);
  f.system.leave(leaver);
  f.world.sim.run();
  EXPECT_FALSE(f.system.is_joined(leaver));
  bool held = false;
  for (const auto p : f.peers) {
    if (!f.system.is_alive(p) || !f.system.is_joined(p)) continue;
    held |= f.system.store_of(p).find(DataId{12345}) != nullptr;
  }
  EXPECT_TRUE(held) << "handover to a dead heir lost the item";
  EXPECT_EQ(f.system.total_items(), 1u);
}

// --- Crash handling ------------------------------------------------------------------

TEST(Hybrid, CrashLosesOnlyTheVictimsData) {
  HybridFixture f{65, defaults()};
  f.build(30);
  f.populate(100);
  const std::size_t before = f.system.total_items();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.store_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const std::size_t lost = f.system.store_of(victim).size();
  f.system.crash(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.total_items(), before - lost);
}

TEST(Hybrid, CrashedTPeerReplacedByOrphanCompetition) {
  auto params = defaults();
  params.ps = 0.7;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{66, params};
  f.build(40);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(3));

  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.children_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const std::size_t tpeers_before = f.system.num_tpeers();
  const PeerId victim_pid = f.system.pid_of(victim);
  f.system.crash(victim);
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));

  EXPECT_EQ(f.system.num_tpeers(), tpeers_before)
      << "no replacement was promoted";
  bool pid_taken = false;
  for (const auto p : f.peers) {
    if (p != victim && f.system.is_joined(p) &&
        f.system.role_of(p) == Role::kTPeer &&
        f.system.pid_of(p) == victim_pid) {
      pid_taken = true;
    }
  }
  EXPECT_TRUE(pid_taken);
  EXPECT_TRUE(f.system.verify_ring());
}

TEST(Hybrid, CrashedSPeerChildrenRejoin) {
  auto params = defaults();
  params.ps = 0.85;
  params.delta = 2;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{67, params};
  f.build(50);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(2));

  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        !f.system.children_of(p).empty()) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const auto orphans = f.system.children_of(victim);
  f.system.crash(victim);
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));
  for (const auto o : orphans) {
    EXPECT_TRUE(f.system.is_joined(o));
    EXPECT_NE(f.system.parent_of(o), victim) << "stale connect point";
  }
}

TEST(Hybrid, LookupAfterCrashRecoveryFailsOnlyForLostData) {
  // With failure detection running, a crashed s-peer's subtree rejoins; the
  // only items that stay unreachable are the ones the victim itself held.
  auto params = defaults();
  params.lookup_timeout = sim::SimTime::seconds(5);
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{68, params};
  f.build(30);
  const auto keys = f.populate(60);  // before heartbeats so run() drains
  f.system.start_failure_detection();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        f.system.store_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  std::set<std::string> lost_keys;
  f.system.store_of(victim).for_each(
      [&](const proto::DataItem& item) { lost_keys.insert(item.key); });
  f.system.crash(victim);
  // Let the HELLO timeouts fire and the orphans re-attach.
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));

  int wrong = 0;
  for (const auto& key : keys) {
    const bool expect_success = lost_keys.count(key) == 0;
    PeerIndex origin = f.peers[0];
    std::size_t i = 0;
    while (origin == victim) origin = f.peers[++i];
    f.system.lookup(origin, key, [&, expect_success](proto::LookupResult r) {
      wrong += (r.success != expect_success);
    });
  }
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(30));
  EXPECT_EQ(wrong, 0);
}

// --- Concurrency (Section 3.3) ---------------------------------------------------------

TEST(Hybrid, ConcurrentTJoinsKeepRingConsistent) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{69, params};
  f.build(5);
  // Fire 20 joins at the same instant; the join queueing must serialize
  // them into a valid ring.
  std::size_t completed = 0;
  for (int i = 0; i < 20; ++i) {
    f.world.sim.schedule_after(sim::SimTime::millis(1), [&] {
      f.peers.push_back(f.system.add_peer_with_role(
          f.world.next_host(), Role::kTPeer,
          [&](proto::JoinResult) { ++completed; }));
    });
  }
  f.world.sim.run();
  EXPECT_EQ(completed, 20u);
  EXPECT_EQ(f.system.num_tpeers(), 25u);
  EXPECT_TRUE(f.system.verify_ring());
}

TEST(Hybrid, ConcurrentSJoinsKeepTreesConsistent) {
  auto params = defaults();
  params.ps = 0.9;
  HybridFixture f{70, params};
  f.build(10);
  std::size_t completed = 0;
  for (int i = 0; i < 30; ++i) {
    f.world.sim.schedule_after(sim::SimTime::millis(1), [&] {
      f.peers.push_back(f.system.add_peer_with_role(
          f.world.next_host(), Role::kSPeer,
          [&](proto::JoinResult) { ++completed; }));
    });
  }
  f.world.sim.run();
  EXPECT_EQ(completed, 30u);
  EXPECT_TRUE(f.system.verify_trees());
}

TEST(Hybrid, JoinDuringLeaveSettlesConsistently) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{71, params};
  f.build(10);
  std::size_t completed = 0;
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(f.peers[4]); });
  f.world.sim.schedule_after(sim::SimTime::millis(1), [&] {
    f.peers.push_back(f.system.add_peer_with_role(
        f.world.next_host(), Role::kTPeer,
        [&](proto::JoinResult) { ++completed; }));
  });
  f.world.sim.run();
  EXPECT_EQ(completed, 1u);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.num_tpeers(), 10u);  // 10 - 1 + 1
}

TEST(Hybrid, ConcurrentRingLeavesSettleConsistently) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{218, params};
  f.build(16);
  f.populate(50);
  const std::size_t items_before = f.system.total_items();
  // Two non-adjacent loner t-peers leave at the same instant: their leave
  // triangles must interleave without corrupting the ring or losing data.
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(f.peers[3]); });
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(f.peers[9]); });
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), 14u);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.total_items(), items_before);
}

TEST(Hybrid, AdjacentRingLeavesSettleConsistently) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{219, params};
  f.build(16);
  // Find two ring-adjacent peers: peer and its successor.
  // (Walk the build list and use pids.)
  PeerIndex a = f.peers[2];
  // Leave a, then its ring neighbour shortly after (overlapping triangles).
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(a); });
  f.world.sim.schedule_after(sim::SimTime::millis(5),
                             [&] { f.system.leave(f.peers[5]); });
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), 14u);
  EXPECT_TRUE(f.system.verify_ring());
}

// --- Enhancements (Section 5) -----------------------------------------------------------

TEST(Hybrid, InterestBasedAssignmentGroupsByInterest) {
  auto params = defaults();
  params.ps = 0.8;
  params.interest_based = true;
  params.num_interests = 4;
  HybridFixture f{72, params};
  f.build(50);
  // Peers sharing an interest must share an s-network (same t-peer).
  std::map<std::uint32_t, std::set<std::uint32_t>> roots_by_interest;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      roots_by_interest[f.system.interest_of(p)].insert(
          f.system.tpeer_of(p).value());
    }
  }
  for (const auto& [interest, roots] : roots_by_interest) {
    EXPECT_EQ(roots.size(), 1u) << "interest " << interest << " split";
  }
}

TEST(Hybrid, TopologyAwareGroupsNearbyPeers) {
  auto params = defaults();
  params.ps = 0.8;
  params.topology_aware = true;
  params.num_landmarks = 8;
  HybridFixture base{73, defaults()};
  HybridFixture aware{73, params};
  auto mean_intra_latency = [](HybridFixture& f) {
    f.build(60);
    double total = 0;
    int count = 0;
    for (const auto p : f.peers) {
      if (f.system.role_of(p) != Role::kTPeer) continue;
      const auto members = f.system.snetwork_members(p);
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          total += static_cast<double>(
              f.world.underlay
                  ->latency(f.world.network->host_of(members[i]),
                            f.world.network->host_of(members[j]))
                  .as_micros());
          ++count;
        }
      }
    }
    return count > 0 ? total / count : 0.0;
  };
  auto params_base = defaults();
  params_base.ps = 0.8;
  HybridFixture base2{73, params_base};
  const double base_latency = mean_intra_latency(base2);
  const double aware_latency = mean_intra_latency(aware);
  EXPECT_LT(aware_latency, base_latency)
      << "landmark binning did not reduce intra-s-network distance";
}

TEST(Hybrid, BypassLinksFormAndShortcut) {
  auto params = defaults();
  params.ps = 0.8;
  params.bypass_links = true;
  HybridFixture f{74, params};
  f.build(40);
  const auto keys = f.populate(60);
  // Stores already create bypass links (rule 2 of Section 5.4).
  const std::size_t links_after_stores = f.system.num_bypass_links();
  // A leaf s-peer (tree degree 1) can always accept bypass links.
  PeerIndex origin = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        f.system.children_of(p).empty()) {
      origin = p;
      break;
    }
  }
  ASSERT_NE(origin, kNoPeer);
  int round1_contacts = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(origin, keys[i], [&](proto::LookupResult r) {
      if (r.success) round1_contacts += static_cast<int>(r.peers_contacted);
    });
  }
  f.world.sim.run();
  EXPECT_GE(f.system.num_bypass_links(), links_after_stores);
  EXPECT_GT(f.system.num_bypass_links(), 0u);
  // Second round from the same origin: bypass links shortcut the ring.
  int round2_contacts = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(origin, keys[i], [&](proto::LookupResult r) {
      if (r.success) round2_contacts += static_cast<int>(r.peers_contacted);
    });
  }
  f.world.sim.run();
  EXPECT_LT(round2_contacts, round1_contacts);
}

TEST(Hybrid, BypassLinksExpire) {
  auto params = defaults();
  params.ps = 0.8;
  params.bypass_links = true;
  params.bypass_lifetime = sim::SimTime::seconds(1);
  HybridFixture f{75, params};
  f.build(30);
  const auto keys = f.populate(40);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[0], keys[i], [](proto::LookupResult) {});
  }
  f.world.sim.run();
  const std::size_t links = f.system.num_bypass_links();
  EXPECT_GT(links, 0u);
  // After the lifetime passes, find_bypass treats them as dead; a new
  // lookup must go around the ring again (no assertion on count -- expired
  // links are pruned lazily, so we check behaviourally).
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(5));
  bool success = false;
  f.system.lookup(f.peers[0], keys[0],
                  [&](proto::LookupResult r) { success = r.success; });
  f.world.sim.run();
  EXPECT_TRUE(success);
}

TEST(Hybrid, StarTopologyKeepsDiameterTwo) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kStar;
  HybridFixture f{76, params};
  f.build(40);
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      EXPECT_EQ(f.system.parent_of(p), f.system.tpeer_of(p));
    }
  }
}

TEST(Hybrid, BitTorrentStyleLookupAvoidsFlooding) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kBitTorrent;
  HybridFixture f{77, params};
  f.build(40);
  const auto keys = f.populate(60);
  int successes = 0;
  std::uint64_t contacted = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) {
                      successes += r.success;
                      contacted += r.peers_contacted;
                    });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, 60);
  // Tracker mode contacts: cp chain + ring + tracker + holder; far fewer
  // than flooding a whole s-network per lookup.
  EXPECT_LT(static_cast<double>(contacted) / 60.0, 10.0);
}

TEST(Hybrid, MeshStyleFloodsWithDuplicateSuppression) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kMesh;
  params.mesh_links = 3;
  HybridFixture f{78, params};
  f.build(40);
  const auto keys = f.populate(40);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 3) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_GT(successes, 30);
}

// --- Additional recovery / enhancement paths ---------------------------------------

TEST(Hybrid, LonerTPeerCrashRepairsRingViaServer) {
  // A crashed t-peer with an empty s-network has no orphans to compete for
  // its slot: its ring neighbours must report it and the server reconnects
  // them (server_handle_ring_repair).
  auto params = defaults();
  params.ps = 0.0;  // every t-peer is a loner
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{210, params};
  f.build(20);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(2));
  const PeerIndex victim = f.peers[7];
  f.system.crash(victim);
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));
  EXPECT_EQ(f.system.num_tpeers(), 19u);
  EXPECT_TRUE(f.system.verify_ring()) << "ring not repaired around loner";
}

TEST(Hybrid, LinkUsageConnectLetsFastPeersTakeMoreChildren) {
  auto params = defaults();
  params.ps = 0.9;
  params.delta = 2;
  params.link_usage_connect = true;
  HybridFixture f{211, params, 300};
  f.build(80);
  // Some peer must exceed the base cap thanks to its fast access link.
  unsigned max_degree = 0;
  for (const auto p : f.peers) {
    unsigned degree = static_cast<unsigned>(f.system.children_of(p).size());
    if (f.system.role_of(p) == Role::kSPeer) ++degree;
    max_degree = std::max(max_degree, degree);
    // And nobody exceeds the scaled cap.
    const auto host = f.world.network->host_of(p);
    unsigned limit = params.delta;
    switch (f.world.underlay->capacity(host)) {
      case net::CapacityClass::kLow:
        break;
      case net::CapacityClass::kMedium:
        limit *= 2;
        break;
      case net::CapacityClass::kHigh:
        limit *= 3;
        break;
    }
    EXPECT_LE(degree, limit);
  }
  EXPECT_GT(max_degree, params.delta);
}

TEST(Hybrid, BitTorrentTrackerSurvivesTPeerLeave) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kBitTorrent;
  HybridFixture f{212, params};
  f.build(40);
  const auto keys = f.populate(60);
  // Gracefully retire a t-peer with members; its tracker index must move to
  // the promoted heir.
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.snetwork_members(p).size() > 2) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.system.leave(victim);
  f.world.sim.run();
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    PeerIndex origin = f.peers[(i * 7) % f.peers.size()];
    if (origin == victim) origin = f.peers[(i * 7 + 1) % f.peers.size()];
    f.system.lookup(origin, keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, static_cast<int>(keys.size()))
      << "tracker index lost in the promotion";
}

TEST(Hybrid, LossyTransportDegradesButDoesNotWedge) {
  auto params = defaults();
  params.ttl = 8;
  params.lookup_timeout = sim::SimTime::seconds(5);
  proto::OverlayNetworkOptions lossy;
  lossy.loss_rate = 0.02;
  HybridFixture f{213, params, 200, lossy};
  // Builds can stall if a triangle message is lost; accept partial builds
  // and just require the system to remain usable and consistent.
  const double ps = params.ps;
  auto n_t = static_cast<std::size_t>(std::max(1.0, (1.0 - ps) * 40.0));
  std::vector<Role> roles(40, Role::kSPeer);
  for (std::size_t i = 0; i < n_t; ++i) roles[i] = Role::kTPeer;
  for (std::size_t i = 0; i < 40; ++i) {
    const Role role = roles[i];
    f.world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 60),
        [&, role] {
          f.peers.push_back(
              f.system.add_peer_with_role(f.world.next_host(), role, {}));
        });
  }
  f.world.sim.run();
  const auto live = f.system.live_peers();
  ASSERT_GT(live.size(), 10u);
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    f.system.store(live[static_cast<std::size_t>(i) % live.size()],
                   "lk" + std::to_string(i), 1);
  }
  f.world.sim.run();
  for (int i = 0; i < 40; ++i) {
    f.system.lookup(live[static_cast<std::size_t>(i * 3) % live.size()],
                    "lk" + std::to_string(i),
                    [&](proto::LookupResult) { ++done; });
  }
  f.world.sim.run();
  EXPECT_EQ(done, 40) << "every lookup must resolve (success or timeout)";
  EXPECT_GT(f.world.network->stats().messages_lost, 0u);
}

TEST(Hybrid, QueryTrafficSubstitutesForHellos) {
  // Section 3.2.2: acknowledgments to data queries reset the HELLO timers,
  // so steady query traffic suppresses scheduled HELLO messages.
  auto run = [](bool with_queries) {
    auto params = defaults();
    params.ps = 0.8;
    params.hello_interval = sim::SimTime::millis(500);
    params.hello_timeout = sim::SimTime::millis(2000);
    HybridFixture f{214, params};
    f.build(30);
    const auto keys = f.populate(30);
    f.system.start_failure_detection();
    if (with_queries) {
      // Sustained lookups for 10 seconds.
      for (int i = 0; i < 100; ++i) {
        f.world.sim.schedule_after(
            sim::SimTime::millis(static_cast<std::int64_t>(i) * 100), [&, i] {
              f.system.lookup(
                  f.peers[static_cast<std::size_t>(i) % f.peers.size()],
                  keys[static_cast<std::size_t>(i) % keys.size()],
                  [](proto::LookupResult) {});
            });
      }
    }
    f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(10));
    return f.world.network->stats().class_messages(
        proto::TrafficClass::kHeartbeat);
  };
  const auto idle_hellos = run(false);
  const auto busy_hellos = run(true);
  // Acks replace some HELLOs but each ack is itself a heartbeat-class
  // message; the invariant is that the busy system does not flood more
  // heartbeat traffic than idle + the ack budget.
  EXPECT_GT(idle_hellos, 0u);
  EXPECT_LE(busy_hellos, idle_hellos * 2);
}

TEST(Hybrid, KeywordSearchRespectsTtl) {
  auto params = defaults();
  params.ps = 0.95;
  params.delta = 2;  // deep tree
  params.ttl = 1;    // keyword flood radius
  HybridFixture f{215, params};
  f.build(40);
  // Plant matches everywhere in one s-network.
  const PeerIndex origin = f.peers[10];
  const auto root = f.system.tpeer_of(origin);
  const auto members = f.system.snetwork_members(root);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto [lo, hi] = f.system.segment_of(root);
    f.system.store_id(members[i], DataId{ring::reduce(lo.value() + 1 + i)},
                      "ttltest-" + std::to_string(i), 1);
  }
  f.world.sim.run();
  HybridSystem::KeywordResult result;
  f.system.lookup_keyword(origin, "ttltest", sim::SimTime::seconds(5),
                          [&](HybridSystem::KeywordResult r) {
                            result = std::move(r);
                          });
  f.world.sim.run();
  // TTL=1 reaches only the origin's direct neighbours; a deep tree has
  // more members than that.
  EXPECT_LT(result.keys.size(), members.size());
  EXPECT_LE(result.peers_contacted, 3u);  // cp + at most delta-1 children
}

// --- Random-walk search (Sections 1/3.1) ----------------------------------------------

TEST(Hybrid, RandomWalkFindsLocalData) {
  auto params = defaults();
  params.ps = 0.9;
  params.s_search = SSearch::kRandomWalk;
  params.ttl = 30;
  params.walkers = 6;
  HybridFixture f{200, params};
  f.build(40);
  const auto keys = f.populate(60);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 5) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_GT(successes, 45) << "random walks should find most items";
}

TEST(Hybrid, SingleWalkerUsesFewerMessagesThanFloodOnBigTrees) {
  // A flood always covers the whole TTL ball; one walker stops at the first
  // hit.  The gap shows on big, well-mixed s-networks (random walks mix
  // poorly on trees, which is why the paper pairs walks with arbitrary
  // topologies).
  auto run = [](SSearch mode) {
    auto params = defaults();
    params.ps = 0.95;
    params.style = SNetworkStyle::kMesh;
    params.mesh_links = 3;
    params.s_search = mode;
    params.ttl = mode == SSearch::kFlood ? 10 : 40;
    params.walkers = 1;
    params.lookup_timeout = sim::SimTime::seconds(8);
    HybridFixture f{201, params};
    f.build(60);
    const auto keys = f.populate(60);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      f.system.lookup(f.peers[(i * 3) % f.peers.size()], keys[i],
                      [](proto::LookupResult) {});
    }
    f.world.sim.run();
    return f.world.network->stats().class_messages(
        proto::TrafficClass::kQuery);
  };
  EXPECT_LT(run(SSearch::kRandomWalk), run(SSearch::kFlood));
}

// --- Section 7 caching scheme ------------------------------------------------------

TEST(Hybrid, CachingServesRepeatLookupsFromRequesters) {
  auto params = defaults();
  params.ps = 0.8;
  params.enable_caching = true;
  params.cache_capacity = 8;
  HybridFixture f{202, params};
  f.build(40);
  const auto keys = f.populate(20);
  // Round 1: everyone fetches the same hot key.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < f.peers.size(); i += 3) {
      f.system.lookup(f.peers[i], keys[0], [](proto::LookupResult) {});
    }
    f.world.sim.run();
  }
  EXPECT_GT(f.system.cache_hits(), 0u);
}

TEST(Hybrid, CachingReducesHotSpotLoad) {
  auto run = [](bool caching) {
    auto params = defaults();
    params.ps = 0.8;
    params.enable_caching = caching;
    HybridFixture f{203, params};
    f.build(40);
    const auto keys = f.populate(10);
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < f.peers.size(); i += 2) {
        f.system.lookup(f.peers[i], keys[0], [](proto::LookupResult) {});
      }
      f.world.sim.run();
    }
    return f.system.max_answers_served();
  };
  const auto hot_without = run(false);
  const auto hot_with = run(true);
  EXPECT_LT(hot_with, hot_without)
      << "caching should spread the hosting peer's load";
}

TEST(Hybrid, CacheEntriesExpire) {
  auto params = defaults();
  params.ps = 0.8;
  params.enable_caching = true;
  params.cache_ttl = sim::SimTime::seconds(1);
  HybridFixture f{204, params};
  f.build(30);
  const auto keys = f.populate(10);
  f.system.lookup(f.peers[2], keys[0], [](proto::LookupResult) {});
  f.world.sim.run();
  const auto hits_before = f.system.cache_hits();
  // Long after expiry, a fresh lookup must not be served from the stale
  // cache entry at the earlier requester.
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(30));
  bool success = false;
  f.system.lookup(f.peers[2], keys[0],
                  [&](proto::LookupResult r) { success = r.success; });
  f.world.sim.run();
  EXPECT_TRUE(success);
  // The origin's own cache is consulted only via try_answer at other peers;
  // its local expired entry cannot produce a hit.
  EXPECT_GE(f.system.cache_hits(), hits_before);
}

// --- Successor-routed ring trips ------------------------------------------------

/// A successor-only ring of 112 t-peers (ps 0.2 over 140 peers) with
/// caching and bypass links on (unless `p` says otherwise) and the default
/// ring retry, plus a key owned by the t-peer half-way round the ring from
/// `from`.
struct LongRingTrip {
  static HybridParams params() {
    auto p = defaults();
    p.ps = 0.2;
    p.t_routing = TRouting::kRing;
    p.enable_caching = true;
    p.bypass_links = true;
    return p;
  }

  explicit LongRingTrip(const HybridParams& p = params()) : f{91, p} {
    f.build(140);
    from = f.peers[0];  // the ring's seed t-peer
    // Walk the successor pointers: the trip's route, hop by hop.
    route.push_back(from);
    for (std::size_t i = 0; i < f.system.num_tpeers() / 2; ++i) {
      route.push_back(f.system.successor_of(route.back()));
    }
    owner = route.back();
    key = store_key_at(owner);
  }

  /// Stores a fresh key owned by t-peer `at` from `at` itself (a local
  /// insert: no ring trip, no bypass link) and returns it.
  std::string store_key_at(PeerIndex at) {
    std::string k;
    for (std::size_t i = 0; k.empty(); ++i) {
      const std::string candidate = "ring-key-" + std::to_string(i);
      if (f.system.owner_tpeer(hash_key(candidate)) == at) k = candidate;
    }
    bool stored = false;
    f.system.store(at, k, 42, [&] { stored = true; });
    f.world.sim.run();
    EXPECT_TRUE(stored);
    return k;
  }

  [[nodiscard]] std::uint32_t ring_hops() const {
    return static_cast<std::uint32_t>(route.size() - 1);
  }

  /// Runs one lookup of `key` from `requester` to quiescence; returns every
  /// result its callback delivered.
  std::vector<proto::LookupResult> lookup_from(PeerIndex requester) {
    return lookup_from(requester, key);
  }
  std::vector<proto::LookupResult> lookup_from(PeerIndex requester,
                                               const std::string& k) {
    std::vector<proto::LookupResult> results;
    f.system.lookup(requester, k,
                    [&](proto::LookupResult r) { results.push_back(r); });
    f.world.sim.run();
    return results;
  }

  HybridFixture f;
  std::vector<PeerIndex> route;  // from .. owner along successors
  PeerIndex from = kNoPeer;
  PeerIndex owner = kNoPeer;
  std::string key;
};

TEST(Hybrid, RingSurrogateCacheHitConsumesRequest) {
  LongRingTrip t;
  ASSERT_GE(t.f.system.num_tpeers(), 100u);
  // A t-peer half-way along the route fetches the key and caches it.
  const PeerIndex surrogate = t.route[t.route.size() / 2];
  const auto warm = t.lookup_from(surrogate);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_TRUE(warm[0].success);

  const std::uint64_t hits = t.f.system.cache_hits();
  const std::uint64_t owner_answers = t.f.system.answers_served(t.owner);
  const PeerIndex past = t.f.system.successor_of(surrogate);
  const std::uint64_t past_received =
      t.f.world.network->messages_received_by(past);
  const auto res = t.lookup_from(t.from);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].success);
  EXPECT_EQ(res[0].found_at, surrogate);
  EXPECT_EQ(res[0].request_hops, t.route.size() / 2);
  EXPECT_EQ(t.f.system.cache_hits(), hits + 1);
  // The trip ended at the surrogate: nothing travelled further round.
  EXPECT_EQ(t.f.system.answers_served(t.owner), owner_answers);
  EXPECT_EQ(t.f.world.network->messages_received_by(past), past_received);
}

TEST(Hybrid, RingMissReachesOwnerExactlyOnce) {
  LongRingTrip t;
  ASSERT_GE(t.f.system.num_tpeers(), 100u);
  const std::uint64_t owner_answers = t.f.system.answers_served(t.owner);
  const auto res = t.lookup_from(t.from);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].success);
  EXPECT_EQ(res[0].found_at, t.owner);
  EXPECT_EQ(res[0].request_hops, t.ring_hops());
  EXPECT_EQ(t.f.system.cache_hits(), 0u);
  // The owner continuation ran once: one answer served, one reply sent.
  EXPECT_EQ(t.f.system.answers_served(t.owner), owner_answers + 1);
}

TEST(Hybrid, RingHopHeapAllocationsStayConstant) {
  LongRingTrip t;
  ASSERT_GE(t.ring_hops(), 50u);
  const std::uint64_t before = alloc_stats::allocation_count();
  const auto res = t.lookup_from(t.from);
  const std::uint64_t allocs = alloc_stats::allocation_count() - before;
  ASSERT_EQ(res.size(), 1u);
  ASSERT_EQ(res[0].request_hops, t.ring_hops());
  // The trip's continuations are boxed once, not per hop, and a delivered
  // hop arms no retry.  What remains per hop is the caching intercept's
  // visited-set insert (plus the set's amortised rehashes), about one;
  // re-boxing the continuations at every hop costs about seven in all, and
  // a retry timer with a heap-allocated delivery flag on every hop about
  // two.
  const double per_hop =
      static_cast<double>(allocs) / static_cast<double>(t.ring_hops());
  EXPECT_LT(per_hop, 3.0) << allocs << " allocations over " << t.ring_hops()
                          << " ring hops";
  EXPECT_LT(per_hop, 1.5) << allocs << " allocations over " << t.ring_hops()
                          << " ring hops";
}

TEST(Hybrid, DeliveredRingHopAllocatesNothing) {
  // Without caching there is no per-hop intercept, so a trip's allocations
  // are the same whatever its length: a delivered hop allocates nothing.
  auto params = LongRingTrip::params();
  params.enable_caching = false;
  params.bypass_links = false;
  LongRingTrip t{params};
  const PeerIndex near = t.route[t.route.size() / 4];
  const std::string near_key = t.store_key_at(near);
  ASSERT_EQ(t.lookup_from(t.from).size(), 1u);  // warm the containers

  const auto allocs_of = [&](const std::string& k, std::uint32_t& hops) {
    const std::uint64_t before = alloc_stats::allocation_count();
    const auto res = t.lookup_from(t.from, k);
    const std::uint64_t allocs = alloc_stats::allocation_count() - before;
    EXPECT_EQ(res.size(), 1u);
    EXPECT_TRUE(!res.empty() && res[0].success);
    hops = res.empty() ? 0 : res[0].request_hops;
    return allocs;
  };
  std::uint32_t far_hops = 0;
  std::uint32_t near_hops = 0;
  const std::uint64_t far_allocs = allocs_of(t.key, far_hops);
  const std::uint64_t near_allocs = allocs_of(near_key, near_hops);
  ASSERT_EQ(far_hops, t.ring_hops());
  ASSERT_EQ(near_hops, t.route.size() / 4);
  EXPECT_EQ(far_allocs, near_allocs)
      << far_hops - near_hops << " extra ring hops cost "
      << static_cast<std::int64_t>(far_allocs - near_allocs)
      << " extra allocations";
}

// --- The lost-hop ring retry ----------------------------------------------------

TEST(Hybrid, DeliveredRingHopCostsOneEvent) {
  LongRingTrip t;
  const sim::Simulator& sim = t.f.world.sim;
  const proto::NetworkStats& net = t.f.world.network->stats();
  const std::uint64_t events = sim.stats().events_executed;
  const std::uint64_t delivered = net.messages_delivered;
  const std::uint64_t dropped = net.messages_dropped;
  const auto res = t.lookup_from(t.from);
  ASSERT_EQ(res.size(), 1u);
  ASSERT_TRUE(res[0].success);
  ASSERT_EQ(res[0].request_hops, t.ring_hops());
  EXPECT_EQ(net.messages_dropped, dropped);
  // One event per delivered message (each ring hop and the reply) plus the
  // lookup's own timers: the re-route timer, which fires at
  // lookup_timeout / 2 and finds the lookup done.  The timeout timer was
  // cancelled when the answer came.  No hop left an event behind.
  EXPECT_EQ(sim.stats().events_executed - events,
            net.messages_delivered - delivered + 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

/// A LongRingTrip lookup whose first hop (the seed t-peer to its successor
/// `next`) a test disturbs: the hop's latency, its first retry deadline, and
/// the simulated time of every query message on it, by its fate.
struct FirstRingHop {
  FirstRingHop()
      : sim(t.f.world.sim),
        net(*t.f.world.network),
        next(t.route[1]),
        t0(sim.now()),
        lat(net.hop_latency(t.from, next, proto::kQueryBytes)),
        backoff(t.f.system.params().ring_retry_base),
        deadline(t0 + lat + lat + backoff) {
    net.set_trace([this](const proto::NetTraceEvent& ev) {
      using Kind = proto::NetTraceEvent::Kind;
      if (ev.from != t.from || ev.to != next ||
          ev.cls != proto::TrafficClass::kQuery) {
        return;
      }
      switch (ev.kind) {
        case Kind::kSend: sent.push_back(sim.now()); break;
        case Kind::kLoss: lost.push_back(sim.now()); break;
        case Kind::kDropDeadReceiver: dropped.push_back(sim.now()); break;
        case Kind::kDeliver: delivered.push_back(sim.now()); break;
        default: break;
      }
    });
  }

  /// Applies `action` to the first query message sent on the hop.
  void fault_first_message(proto::FaultAction action) {
    net.set_fault([this, action, armed = true](
                      PeerIndex a, PeerIndex b, proto::TrafficClass cls,
                      std::uint32_t) mutable {
      if (armed && a == t.from && b == next &&
          cls == proto::TrafficClass::kQuery) {
        armed = false;
        return action;
      }
      return proto::FaultAction{};
    });
  }

  /// Issues the lookup (its first hop leaves at t0) without running the
  /// simulation, so a test can disturb the hop in flight.
  void issue() {
    t.f.system.lookup(t.from, t.key,
                      [this](proto::LookupResult r) { results.push_back(r); });
  }

  /// The lookup ran once and found the key at the owner.
  void expect_found() const {
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].success);
    EXPECT_EQ(results[0].found_at, t.owner);
  }

  LongRingTrip t;
  sim::Simulator& sim;
  proto::OverlayNetwork& net;
  const PeerIndex next;
  const sim::SimTime t0;
  const sim::Duration lat;
  const sim::Duration backoff;
  const sim::SimTime deadline;
  std::vector<sim::SimTime> sent;       // left the sender
  std::vector<sim::SimTime> lost;       // dropped at send (loss or fault)
  std::vector<sim::SimTime> dropped;    // receiver dead at delivery
  std::vector<sim::SimTime> delivered;  // handed to the receiver
  std::vector<proto::LookupResult> results;
};

using Times = std::vector<sim::SimTime>;

TEST(Hybrid, RingHopLostToDeadReceiverIsResentAtItsDeadline) {
  FirstRingHop h;
  h.issue();
  // The next hop goes down with the query in flight, so the transport
  // drops it at delivery, and comes back before the retry deadline.
  h.net.set_alive(h.next, false);
  h.sim.schedule_at(h.t0 + h.lat + sim::SimTime::millis(100),
                    [&h] { h.net.set_alive(h.next, true); });
  h.sim.run();

  EXPECT_EQ(h.sent, (Times{h.t0, h.deadline}));
  EXPECT_EQ(h.dropped, (Times{h.t0 + h.lat}));
  EXPECT_EQ(h.delivered, (Times{h.deadline + h.lat}));
  h.expect_found();
  EXPECT_EQ(h.results[0].request_hops, h.t.ring_hops());
}

TEST(Hybrid, RingHopDroppedAtSendIsResentAtItsDeadline) {
  FirstRingHop h;
  h.fault_first_message({.drop = true});
  h.issue();
  h.sim.run();

  EXPECT_EQ(h.lost, (Times{h.t0}));
  EXPECT_EQ(h.sent, (Times{h.deadline}));
  EXPECT_EQ(h.delivered, (Times{h.deadline + h.lat}));
  h.expect_found();
  EXPECT_EQ(h.results[0].request_hops, h.t.ring_hops());
}

TEST(Hybrid, RingHopDueAfterItsDeadlineIsResentAndStillDelivered) {
  FirstRingHop h;
  // A latency storm: the first message arrives 100 ms after the deadline.
  const sim::Duration extra = h.lat + h.backoff + sim::SimTime::millis(100);
  h.fault_first_message({.extra_delay = extra});
  const std::uint64_t past_received =
      h.net.messages_received_by(h.t.route[2]);
  h.issue();
  h.sim.run();

  // The retry fires at the deadline although the original is still in
  // flight; the late original is delivered too, and both copies travel on.
  EXPECT_EQ(h.sent, (Times{h.t0, h.deadline}));
  EXPECT_EQ(h.delivered, (Times{h.deadline + h.lat, h.t0 + h.lat + extra}));
  EXPECT_EQ(h.net.messages_received_by(h.t.route[2]), past_received + 2);
  h.expect_found();
}

TEST(Hybrid, LateRingHopToADeadReceiverArmsNoSecondRetry) {
  FirstRingHop h;
  // The first message is due a second after its deadline, and by then its
  // receiver is down: the retry armed at send already covered this loss,
  // so the drop must not arm another.
  const sim::Duration extra = h.lat + h.backoff + sim::SimTime::seconds(1);
  h.fault_first_message({.extra_delay = extra});
  h.sim.schedule_at(h.deadline + h.lat + sim::SimTime::millis(1),
                    [&h] { h.net.set_alive(h.next, false); });
  h.sim.schedule_at(h.t0 + h.lat + extra + sim::SimTime::millis(1),
                    [&h] { h.net.set_alive(h.next, true); });
  h.issue();
  h.sim.run();

  EXPECT_EQ(h.sent, (Times{h.t0, h.deadline}));
  EXPECT_EQ(h.delivered, (Times{h.deadline + h.lat}));
  EXPECT_EQ(h.dropped, (Times{h.t0 + h.lat + extra}));
  h.expect_found();
}

// --- cp-chain climbs ------------------------------------------------------------

TEST(Hybrid, ClimbHopAllocatesNothing) {
  // Deep s-network trees (ps 0.9, delta 2) and no caching or bypass links:
  // two lookups of one remote key from the same s-network differ only in
  // how many cp-chain hops they climb, so their allocations must match.
  auto params = defaults();
  params.ps = 0.9;
  params.delta = 2;
  params.enable_caching = false;
  params.bypass_links = false;
  HybridFixture f{93, params};
  f.build(120);
  const auto depth_of = [&f](PeerIndex p) {
    std::uint32_t d = 0;
    for (; f.system.role_of(p) != Role::kTPeer; p = f.system.parent_of(p)) ++d;
    return d;
  };
  PeerIndex deep = kNoPeer;
  for (const PeerIndex p : f.peers) {
    if (deep == kNoPeer || depth_of(p) > depth_of(deep)) deep = p;
  }
  ASSERT_GE(depth_of(deep), 3u);
  PeerIndex shallow = deep;
  while (depth_of(shallow) > 1) shallow = f.system.parent_of(shallow);
  const PeerIndex root = f.system.tpeer_of(deep);

  // A key owned by some other t-peer, stored there locally.
  std::string key;
  for (std::size_t i = 0; key.empty(); ++i) {
    const std::string k = "climb-key-" + std::to_string(i);
    if (f.system.owner_tpeer(hash_key(k)) != root) key = k;
  }
  bool stored = false;
  f.system.store(f.system.owner_tpeer(hash_key(key)), key, 7,
                 [&] { stored = true; });
  f.world.sim.run();
  ASSERT_TRUE(stored);

  const auto allocs_of = [&f, &key](PeerIndex requester) {
    bool success = false;
    const std::uint64_t before = alloc_stats::allocation_count();
    f.system.lookup(requester, key,
                    [&success](proto::LookupResult r) { success = r.success; });
    f.world.sim.run();
    const std::uint64_t allocs = alloc_stats::allocation_count() - before;
    EXPECT_TRUE(success);
    return allocs;
  };
  allocs_of(deep);  // warm the containers
  const std::uint64_t deep_allocs = allocs_of(deep);
  const std::uint64_t shallow_allocs = allocs_of(shallow);
  EXPECT_EQ(deep_allocs, shallow_allocs)
      << depth_of(deep) - 1 << " extra climb hops cost "
      << static_cast<std::int64_t>(deep_allocs - shallow_allocs)
      << " extra allocations";
}

// --- Keyword / partial search (Section 5.3) -------------------------------------------

TEST(Hybrid, KeywordSearchFindsMatchesInOwnSNetwork) {
  auto params = defaults();
  params.ps = 0.9;
  params.ttl = 10;
  HybridFixture f{205, params};
  f.build(30);
  // Plant keyword-bearing items inside one s-network.
  const PeerIndex origin = f.peers[5];
  const auto members = f.system.snetwork_members(f.system.tpeer_of(origin));
  ASSERT_GE(members.size(), 3u);
  int planted = 0;
  for (std::size_t i = 0; i < members.size() && planted < 3; ++i, ++planted) {
    const auto [lo, hi] = f.system.segment_of(f.system.tpeer_of(origin));
    const DataId id{ring::midpoint_cw(lo.value(), hi.value()) +
                    static_cast<std::uint64_t>(planted)};
    f.system.store_id(members[i], id,
                      "holiday-video-" + std::to_string(planted), 1);
  }
  f.world.sim.run();
  HybridSystem::KeywordResult result;
  bool called = false;
  f.system.lookup_keyword(origin, "holiday", sim::SimTime::seconds(5),
                          [&](HybridSystem::KeywordResult r) {
                            called = true;
                            result = std::move(r);
                          });
  f.world.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result.keys.size(), 3u);
}

TEST(Hybrid, KeywordSearchIgnoresNonMatches) {
  auto params = defaults();
  params.ps = 0.8;
  HybridFixture f{206, params};
  f.build(30);
  f.populate(50);  // keys are "key-N", no "zebra" anywhere
  bool called = false;
  f.system.lookup_keyword(f.peers[3], "zebra", sim::SimTime::seconds(5),
                          [&](HybridSystem::KeywordResult r) {
                            called = true;
                            EXPECT_TRUE(r.keys.empty());
                          });
  f.world.sim.run();
  EXPECT_TRUE(called);
}

TEST(Hybrid, GlobalKeywordSearchReachesEverySNetwork) {
  auto params = defaults();
  params.ps = 0.8;
  params.ttl = 10;
  HybridFixture f{216, params};
  f.build(40);
  // Plant one matching item in every s-network (stored at the t-peer so
  // the ring walk alone suffices to see it).
  int planted = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer) continue;
    const auto [lo, hi] = f.system.segment_of(p);
    f.system.store_id(p, DataId{ring::midpoint_cw(lo.value(), hi.value())},
                      "global-hit-" + std::to_string(planted), 1);
    ++planted;
  }
  f.world.sim.run();
  ASSERT_GT(planted, 3);
  HybridSystem::KeywordResult result;
  f.system.lookup_keyword_global(f.peers[5], "global-hit",
                                 sim::SimTime::seconds(60),
                                 [&](HybridSystem::KeywordResult r) {
                                   result = std::move(r);
                                 });
  f.world.sim.run();
  EXPECT_EQ(result.keys.size(), static_cast<std::size_t>(planted));
}

TEST(Hybrid, LocalKeywordSearchStaysLocal) {
  auto params = defaults();
  params.ps = 0.8;
  params.ttl = 10;
  HybridFixture f{217, params};
  f.build(40);
  int planted = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer) continue;
    const auto [lo, hi] = f.system.segment_of(p);
    f.system.store_id(p, DataId{ring::midpoint_cw(lo.value(), hi.value())},
                      "local-only-" + std::to_string(planted), 1);
    ++planted;
  }
  f.world.sim.run();
  HybridSystem::KeywordResult result;
  f.system.lookup_keyword(f.peers[5], "local-only", sim::SimTime::seconds(10),
                          [&](HybridSystem::KeywordResult r) {
                            result = std::move(r);
                          });
  f.world.sim.run();
  // Only the requester's own s-network is searched.
  EXPECT_LE(result.keys.size(), 1u);
}

// --- Parameterized invariant sweep over p_s ----------------------------------------------

class HybridPsSweep : public ::testing::TestWithParam<double> {};

TEST_P(HybridPsSweep, InvariantsAndLookupsHoldAcrossPs) {
  auto params = defaults();
  params.ps = GetParam();
  params.ttl = 10;
  HybridFixture f{80 + static_cast<std::uint64_t>(GetParam() * 100), params};
  f.build(40);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_TRUE(f.system.verify_trees());
  const auto keys = f.populate(60);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7 + 3) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, 60) << "lookup failures at ps=" << GetParam();
  EXPECT_EQ(f.system.total_items(), 60u);
}

INSTANTIATE_TEST_SUITE_P(PsValues, HybridPsSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.95));

// --- Parameterized sweep over delta -------------------------------------------------------

class HybridDeltaSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HybridDeltaSweep, TreeDegreeCapHolds) {
  auto params = defaults();
  params.ps = 0.9;
  params.delta = GetParam();
  HybridFixture f{90 + GetParam(), params};
  f.build(50);
  EXPECT_TRUE(f.system.verify_trees());
  for (const auto p : f.peers) {
    unsigned degree = static_cast<unsigned>(f.system.children_of(p).size());
    if (f.system.role_of(p) == Role::kSPeer) ++degree;
    EXPECT_LE(degree, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, HybridDeltaSweep,
                         ::testing::Values(2u, 3u, 4u, 8u));

// --- Lookup edge cases -------------------------------------------------------

TEST(Hybrid, DetachedOrphanLookupFailsFast) {
  HybridFixture f{77, defaults()};
  f.build(30);
  const auto keys = f.populate(20);
  // A freshly added s-peer has neither a tree parent nor a t-peer until its
  // join completes; a lookup issued from it has no upward path and must
  // fail immediately instead of burning the whole lookup_timeout.
  const PeerIndex orphan =
      f.system.add_peer_with_role(f.world.next_host(), Role::kSPeer);
  bool called = false;
  proto::LookupResult res;
  f.system.lookup(orphan, keys[0], [&](proto::LookupResult r) {
    called = true;
    res = r;
  });
  EXPECT_TRUE(called) << "fast fail must not wait for the simulator";
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(res.fast_fail);

  proto::LookupStats stats;
  stats.record(res);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fast_failed, 1u);
}

TEST(Hybrid, CacheEntryExpiresExactlyAtDeadline) {
  auto params = defaults();
  params.enable_caching = true;
  params.cache_capacity = 8;
  params.cache_ttl = sim::SimTime::seconds(10);
  HybridFixture f{78, params};
  f.build(40);
  const auto keys = f.populate(40);

  // Pick a key the origin neither stores nor owns, so a successful lookup
  // caches it at the origin.
  const PeerIndex origin = f.peers[1];
  std::string key;
  for (const auto& k : keys) {
    const DataId id = hash_key(k);
    if (f.system.owner_tpeer(id) != f.system.tpeer_of(origin) &&
        f.system.store_of(origin).find(id) == nullptr) {
      key = k;
      break;
    }
  }
  ASSERT_FALSE(key.empty());

  sim::SimTime cached_at{};
  bool fetched = false;
  f.system.lookup(origin, key, [&](proto::LookupResult r) {
    fetched = r.success;
    cached_at = f.world.sim.now();  // cache_put runs in this same event
  });
  f.world.sim.run();
  ASSERT_TRUE(fetched);
  const std::uint64_t hits_after_fetch = f.system.cache_hits();

  const sim::SimTime deadline = cached_at + params.cache_ttl;
  bool hit_before = false;
  f.world.sim.schedule_at(deadline - sim::SimTime::micros(1), [&] {
    f.system.lookup(origin, key, [&](proto::LookupResult r) {
      hit_before = r.success && r.found_at == origin;
    });
  });
  bool miss_checked = false;
  f.world.sim.schedule_at(deadline, [&] {
    f.system.lookup(origin, key, [&](proto::LookupResult r) {
      miss_checked = true;
      // Entry exactly at expires == now is dead: served remotely again.
      EXPECT_TRUE(r.success);
      EXPECT_NE(r.found_at, origin);
      EXPECT_GT(r.latency, sim::SimTime{});
    });
  });
  f.world.sim.run();
  EXPECT_TRUE(hit_before) << "one microsecond early must still hit";
  EXPECT_TRUE(miss_checked);
  EXPECT_EQ(f.system.cache_hits(), hits_after_fetch + 1)
      << "only the pre-deadline lookup may count as a cache hit";
}

}  // namespace
}  // namespace hp2p::hybrid
