// Quickstart: build a small hybrid P2P system, share some files, look them
// up, and print what happened.
//
// This walks the whole public API surface in ~80 lines:
//   1. build one simulated world: a physical (transit-stub) topology, the
//      simulated transport on it, and a hybrid overlay (structured
//      t-network + unstructured s-networks),
//   2. grow the overlay peer by peer,
//   3. store and look up (key, value) data items.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "exp/world.hpp"

using namespace hp2p;

int main() {
  // 1. ~120 hosts in a transit-stub hierarchy under a hybrid system: half
  //    t-peers (structured ring), half s-peers (unstructured trees), degree
  //    cap 3, flood TTL 6.
  constexpr std::uint32_t kPeers = 40;
  Rng rng{2024};
  exp::World world{{.hosts = 120,
                    .num_peers = kPeers,
                    .ps = 0.5,
                    .params = {.ps = 0.5, .delta = 3, .ttl = 6}},
                   rng};
  sim::Simulator& simulator = world.sim();
  hybrid::HybridSystem& system = world.system();

  // 2. Stagger arrivals; the server assigns roles to hit p_s on average.
  std::size_t joined = 0;
  for (std::uint32_t i = 0; i < kPeers; ++i) {
    simulator.schedule_after(sim::SimTime::millis(i * 50), [&] {
      system.add_peer(world.next_host(), [&](proto::JoinResult r) {
        ++joined;
        if (joined <= 3) {
          std::printf("peer joined after %.1f ms (%u overlay hops)\n",
                      r.latency.as_millis(), r.request_hops);
        }
      });
    });
  }
  simulator.run();
  std::printf("overlay up: %zu t-peers on the ring, %zu s-peers in %zu "
              "s-networks\n",
              system.num_tpeers(), system.num_speers(), system.num_tpeers());
  const std::vector<PeerIndex> peers = world.live_nonserver_peers();

  // 3. Share some files...
  const char* files[] = {"song.mp3", "thesis.pdf", "holiday.png",
                         "dataset.csv", "kernel.tar.gz"};
  for (std::size_t i = 0; i < std::size(files); ++i) {
    system.store(peers[i], files[i], /*value=*/1000 + i);
  }
  simulator.run();
  std::printf("stored %zu files across the system\n", system.total_items());

  // ...and fetch them from unrelated peers.
  for (std::size_t i = 0; i < std::size(files); ++i) {
    system.lookup(peers[peers.size() - 1 - i], files[i],
                  [&, i](proto::LookupResult r) {
                    std::printf(
                        "lookup(%s): %s in %.1f ms, %u hops, %u peers "
                        "contacted\n",
                        files[i], r.success ? "found" : "MISSING",
                        r.latency.as_millis(), r.request_hops,
                        r.peers_contacted);
                  });
  }
  simulator.run();

  const auto& stats = world.network().stats();
  std::printf("transport totals: %llu messages, %.1f KiB\n",
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<double>(stats.bytes_sent) / 1024.0);
  return 0;
}
