// Interest-based file sharing (Section 5.3 scenario).
//
// Peers belong to interest communities (say: music, movies, papers, code).
// With interest-based s-networks, the server groups same-interest peers into
// the same s-network and the community's content hashes into that
// s-network's segment, so most lookups never leave the local tree.  This
// example contrasts that against random assignment on the same workload.
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/world.hpp"
#include "workload/workload.hpp"

using namespace hp2p;

namespace {

struct Outcome {
  double mean_latency_ms = 0;
  double mean_contacted = 0;
  double failure_ratio = 0;
};

Outcome run(bool interest_based) {
  constexpr std::uint32_t kTPeers = 12;
  constexpr std::uint32_t kPeers = 80;
  Rng rng{7};
  hybrid::HybridParams params;
  params.ps = 0.85;
  // Interest communities concentrate ~17 peers per tree; random descent can
  // leave it unbalanced, so give floods headroom (leaf-to-leaf diameter).
  params.ttl = 12;
  params.interest_based = interest_based;
  params.num_interests = 4;
  exp::World world{
      {.hosts = 160, .num_peers = kPeers, .ps = params.ps, .params = params},
      rng};
  sim::Simulator& simulator = world.sim();
  hybrid::HybridSystem& system = world.system();
  world.stage(kTPeers, kPeers - kTPeers, sim::SimTime::millis(50));
  simulator.run();
  const std::vector<PeerIndex> peers = world.live_nonserver_peers();

  // Each community publishes content that hashes into its own s-network's
  // segment (the point of interest-based grouping): 300 items total.
  Rng op_rng = rng.fork(9);
  std::vector<std::pair<PeerIndex, DataId>> catalogue;  // (publisher, id)
  for (int i = 0; i < 300; ++i) {
    const PeerIndex publisher = peers[op_rng.index(peers.size())];
    const auto segment = system.segment_of(system.tpeer_of(publisher));
    const DataId id =
        workload::random_id_in_arc(op_rng, segment.first, segment.second);
    system.store_id(publisher, id, "content-" + std::to_string(i),
                    static_cast<std::uint64_t>(i));
    catalogue.emplace_back(publisher, id);
  }
  simulator.run();

  // Peers browse: 90% of fetches target content of their own community.
  Outcome out;
  double latency_total = 0;
  double contacted_total = 0;
  int successes = 0;
  int failures = 0;
  constexpr int kFetches = 400;
  for (int i = 0; i < kFetches; ++i) {
    const PeerIndex reader = peers[op_rng.index(peers.size())];
    DataId target = catalogue[op_rng.index(catalogue.size())].second;
    if (op_rng.chance(0.9)) {
      // Prefer an item of the reader's own community when one exists.
      const PeerIndex my_root = system.tpeer_of(reader);
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto& candidate =
            catalogue[op_rng.index(catalogue.size())];
        if (system.owner_tpeer(candidate.second) == my_root) {
          target = candidate.second;
          break;
        }
      }
    }
    system.lookup_id(reader, target, [&](proto::LookupResult r) {
      if (r.success) {
        ++successes;
        latency_total += r.latency.as_millis();
        contacted_total += r.peers_contacted;
      } else {
        ++failures;
      }
    });
  }
  simulator.run();

  out.mean_latency_ms = successes > 0 ? latency_total / successes : 0;
  out.mean_contacted = successes > 0 ? contacted_total / successes : 0;
  out.failure_ratio =
      static_cast<double>(failures) / static_cast<double>(kFetches);
  return out;
}

}  // namespace

int main() {
  std::printf("Interest-based file sharing (80 peers, 4 communities, 90%%"
              " local reads)\n\n");
  const Outcome random_assign = run(false);
  const Outcome interest = run(true);

  std::printf("%-26s %14s %16s %14s\n", "assignment", "latency (ms)",
              "peers contacted", "failure ratio");
  std::printf("%-26s %14.1f %16.1f %14.3f\n", "random (baseline)",
              random_assign.mean_latency_ms, random_assign.mean_contacted,
              random_assign.failure_ratio);
  std::printf("%-26s %14.1f %16.1f %14.3f\n", "interest-based (Sec 5.3)",
              interest.mean_latency_ms, interest.mean_contacted,
              interest.failure_ratio);
  std::printf("\nInterest-based grouping keeps most fetches inside the local"
              " s-network: latency\ndrops and the t-network ring carries"
              " almost no query traffic.  The flip side is\nvisible in"
              " 'peers contacted': a local fetch floods its own community"
              " tree, while\na ring lookup touches only the peers on the"
              " path (Section 5.3's trade-off).\n");
  return 0;
}
