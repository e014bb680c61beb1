// Churn resilience: peers keep joining, leaving and crashing while the
// system serves lookups (Sections 3.2-3.3 machinery under load).
//
// Demonstrates: graceful t-peer leaves via s-peer promotion (the ring's
// size never changes), HELLO-timeout crash detection, server-arbitrated
// t-peer replacement, and orphan-subtree rejoin -- and quantifies the only
// permanent damage: data that lived on crashed peers.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "exp/world.hpp"
#include "workload/workload.hpp"

using namespace hp2p;

int main() {
  Rng rng{99};
  hybrid::HybridParams params;
  params.ps = 0.7;
  params.ttl = 8;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  params.lookup_timeout = sim::SimTime::seconds(8);
  exp::World world{
      {.hosts = 160, .num_peers = 70, .ps = params.ps, .params = params},
      rng};
  sim::Simulator& simulator = world.sim();
  hybrid::HybridSystem& system = world.system();

  // Build 70 peers: 21 t-peers, then 49 s-peers.
  world.stage(21, 49, sim::SimTime::millis(40));
  simulator.run();
  const std::vector<PeerIndex> peers = world.live_nonserver_peers();
  std::printf("built: %zu t-peers, %zu s-peers; ring ok: %s\n",
              system.num_tpeers(), system.num_speers(),
              system.verify_ring() ? "yes" : "no");

  // Publish 200 items.
  Rng op_rng = rng.fork(4);
  const auto corpus = workload::uniform_corpus(200, 99);
  for (const auto& item : corpus) {
    system.store_id(peers[op_rng.index(peers.size())], item.id, item.key,
                    item.value);
  }
  simulator.run();

  system.start_failure_detection();

  // Churn storm: 6 graceful t-peer leaves, 6 s-peer leaves, 8 crashes.
  std::vector<PeerIndex> gone;
  auto pick_live = [&](hybrid::Role role) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      const PeerIndex p = peers[op_rng.index(peers.size())];
      if (system.is_joined(p) && system.is_alive(p) &&
          system.role_of(p) == role) {
        return p;
      }
    }
    return kNoPeer;
  };
  int scheduled = 0;
  for (int i = 0; i < 6; ++i) {
    simulator.schedule_after(sim::SimTime::millis(500 + i * 700), [&] {
      if (const PeerIndex p = pick_live(hybrid::Role::kTPeer); p != kNoPeer) {
        system.leave(p);
        gone.push_back(p);
      }
    });
    ++scheduled;
  }
  for (int i = 0; i < 6; ++i) {
    simulator.schedule_after(sim::SimTime::millis(800 + i * 700), [&] {
      if (const PeerIndex p = pick_live(hybrid::Role::kSPeer); p != kNoPeer) {
        system.leave(p);
        gone.push_back(p);
      }
    });
    ++scheduled;
  }
  std::size_t items_lost = 0;
  for (int i = 0; i < 8; ++i) {
    simulator.schedule_after(sim::SimTime::millis(1100 + i * 700), [&] {
      if (const PeerIndex p = pick_live(op_rng.chance(0.5)
                                            ? hybrid::Role::kTPeer
                                            : hybrid::Role::kSPeer);
          p != kNoPeer) {
        items_lost += system.store_of(p).size();
        system.crash(p);
        gone.push_back(p);
      }
    });
    ++scheduled;
  }
  // Let the churn play out and the failure detectors repair the overlay.
  simulator.run_until(simulator.now() + sim::SimTime::seconds(40));
  std::printf("after churn (%d events, %zu peers gone): %zu t-peers, ring "
              "ok: %s, trees ok: %s\n",
              scheduled, gone.size(), system.num_tpeers(),
              system.verify_ring() ? "yes" : "no",
              system.verify_trees() ? "yes" : "no");
  std::printf("items lost with crashed peers: %zu of %zu\n", items_lost,
              corpus.size());

  // Serve lookups for the full catalogue and measure the damage.
  int successes = 0;
  int failures = 0;
  for (const auto& item : corpus) {
    const auto live = system.live_peers();
    system.lookup_id(live[op_rng.index(live.size())], item.id,
                     [&](proto::LookupResult r) {
                       r.success ? ++successes : ++failures;
                     });
  }
  simulator.run_until(simulator.now() + sim::SimTime::seconds(30));
  std::printf("lookups after recovery: %d found / %d failed (failure ratio "
              "%.3f)\n",
              successes, failures,
              static_cast<double>(failures) /
                  static_cast<double>(corpus.size()));
  std::printf("(failures stem from crash-lost data; graceful leaves lose "
              "nothing)\n");
  return 0;
}
