#include "exp/baselines.hpp"

#include "common/rng.hpp"
#include "exp/world.hpp"
#include "workload/workload.hpp"

namespace hp2p::exp {

namespace {

/// Schedules the lookup phase both baselines share: `n` lookups, one every
/// `spacing`, each for a random corpus item from a random one of `peers`;
/// none on an empty corpus, as in run_hybrid_experiment.
template <typename Overlay>
void schedule_lookups(sim::Simulator& sim, Overlay& overlay,
                      const std::vector<PeerIndex>& peers,
                      const std::vector<workload::WorkItem>& corpus,
                      std::size_t n, sim::Duration spacing, Rng& rng,
                      RunResult& result) {
  for (std::size_t i = 0; i < n && !corpus.empty(); ++i) {
    sim.schedule_after(
        sim::SimTime::micros(static_cast<std::int64_t>(i) *
                             spacing.as_micros()),
        [&] {
          const auto& item = corpus[rng.index(corpus.size())];
          overlay.lookup(peers[rng.index(peers.size())], item.key,
                         [&result](proto::LookupResult r) {
                           result.lookups.record(r);
                           if (r.success) {
                             result.lookup_latency_ms.add(
                                 r.latency.as_millis());
                             result.lookup_hops.add(
                                 static_cast<double>(r.request_hops));
                           }
                         });
        });
  }
}

}  // namespace

RunResult run_chord_experiment(const ChordRunConfig& raw_config) {
  validate(WorldConfig{.num_peers = raw_config.num_peers});
  ChordRunConfig config = raw_config;
  // Same timeout scaling rationale as the hybrid harness: ring-mode walks
  // are long but legitimate.
  const auto walk_bound = sim::SimTime::millis(
      static_cast<std::int64_t>(config.num_peers) * 250 + 15'000);
  if (config.chord.lookup_timeout < walk_bound) {
    config.chord.lookup_timeout = walk_bound;
  }

  Rng rng{config.seed};
  Rng topo_rng = rng.fork(1);
  Rng build_rng = rng.fork(2);
  Rng op_rng = rng.fork(3);

  const net::Underlay underlay = make_underlay(config.num_peers, topo_rng);
  sim::Simulator sim;
  proto::OverlayNetwork network{sim, underlay};
  chord::ChordNetwork chord{network, config.chord};

  RunResult result;

  // ---- Build: sequential joins (Chord has no join queueing; the paper's
  // concurrency machinery is a hybrid-system contribution). --------------------
  std::vector<PeerIndex> nodes;
  nodes.push_back(chord.create_ring(
      HostIndex{0}, PeerId{build_rng.uniform(0, kRingSize - 1)}));
  ++result.joins_completed;
  for (std::uint32_t i = 1; i < config.num_peers; ++i) {
    const PeerIndex n = chord.register_node(
        HostIndex{i}, PeerId{build_rng.uniform(0, kRingSize - 1)});
    chord.join(n, nodes.front(), [&result](proto::JoinResult r) {
      ++result.joins_completed;
      result.join_latency_ms.add(r.latency.as_millis());
      result.join_hops.add(static_cast<double>(r.request_hops));
    });
    sim.run();
    nodes.push_back(n);
  }
  if (config.maintenance) {
    chord.start_maintenance(build_rng);
  }

  // ---- Populate ----------------------------------------------------------------
  const auto corpus = workload::uniform_corpus(config.num_items, config.seed);
  for (std::size_t i = 0; i < config.num_items; ++i) {
    sim.schedule_after(
        sim::SimTime::micros(static_cast<std::int64_t>(i) *
                             config.op_spacing.as_micros()),
        [&, i] {
          chord.store(nodes[op_rng.index(nodes.size())], corpus[i].key,
                      corpus[i].value);
        });
  }
  const auto populate_deadline =
      sim.now() + sim::SimTime::micros(static_cast<std::int64_t>(
                      config.num_items) *
                  config.op_spacing.as_micros()) +
      sim::SimTime::seconds(120);
  if (config.maintenance) {
    sim.run_until(populate_deadline);
  } else {
    sim.run();
  }

  // ---- Lookups -------------------------------------------------------------------
  schedule_lookups(sim, chord, nodes, corpus, config.num_lookups,
                   config.op_spacing, op_rng, result);
  if (config.maintenance) {
    sim.run_until(sim.now() +
                  sim::SimTime::micros(static_cast<std::int64_t>(
                      config.num_lookups) *
                  config.op_spacing.as_micros()) +
                  config.chord.lookup_timeout + sim::SimTime::seconds(5));
  } else {
    sim.run();
  }

  for (std::uint32_t i = 0; i < config.num_peers; ++i) {
    result.items_per_peer.push_back(chord.store_of(PeerIndex{i}).size());
  }
  result.network = network.stats();
  result.num_tpeers = config.num_peers;
  return result;
}

RunResult run_gnutella_experiment(const GnutellaRunConfig& config) {
  validate(WorldConfig{.num_peers = config.num_peers});
  Rng rng{config.seed};
  Rng topo_rng = rng.fork(1);
  Rng build_rng = rng.fork(2);
  Rng op_rng = rng.fork(3);

  const net::Underlay underlay = make_underlay(config.num_peers, topo_rng);
  sim::Simulator sim;
  proto::OverlayNetwork network{sim, underlay};
  gnutella::GnutellaNetwork g{network, config.gnutella};

  RunResult result;

  // ---- Build: joins are O(1) link setups. -----------------------------------------
  std::vector<PeerIndex> peers;
  for (std::uint32_t i = 0; i < config.num_peers; ++i) {
    peers.push_back(g.join(HostIndex{i}, build_rng));
    ++result.joins_completed;
    result.join_hops.add(1.0);  // one bootstrap exchange
  }

  // ---- Populate: data stays with its publisher. ------------------------------------
  const auto corpus = workload::uniform_corpus(config.num_items, config.seed);
  for (const auto& item : corpus) {
    g.store(peers[op_rng.index(peers.size())], item.key, item.value);
  }

  // ---- Lookups --------------------------------------------------------------------
  schedule_lookups(sim, g, peers, corpus, config.num_lookups,
                   config.op_spacing, op_rng, result);
  sim.run();

  for (const auto p : peers) {
    result.items_per_peer.push_back(g.store_of(p).size());
  }
  result.network = network.stats();
  result.num_speers = config.num_peers;
  return result;
}

}  // namespace hp2p::exp
