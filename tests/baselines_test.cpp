// Integration tests for the Chord/Gnutella experiment harnesses.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/baselines.hpp"

namespace hp2p::exp {
namespace {

ChordRunConfig chord_config(std::uint64_t seed) {
  ChordRunConfig c;
  c.seed = seed;
  c.num_peers = 40;
  c.num_items = 80;
  c.num_lookups = 80;
  return c;
}

GnutellaRunConfig gnutella_config(std::uint64_t seed) {
  GnutellaRunConfig c;
  c.seed = seed;
  c.num_peers = 40;
  c.num_items = 80;
  c.num_lookups = 80;
  c.gnutella.ttl = 6;
  return c;
}

TEST(ChordHarness, ZeroFailuresWithoutChurn) {
  const auto r = run_chord_experiment(chord_config(1));
  EXPECT_EQ(r.joins_completed, 40u);
  EXPECT_EQ(r.lookups.issued, 80u);
  EXPECT_EQ(r.lookups.failed, 0u);
}

TEST(ChordHarness, AllItemsPlaced) {
  const auto r = run_chord_experiment(chord_config(2));
  std::size_t total = 0;
  for (const auto n : r.items_per_peer) total += n;
  EXPECT_EQ(total, 80u);
}

TEST(ChordHarness, RingRoutingContactsManyPeers) {
  auto cfg = chord_config(3);
  cfg.chord.routing = chord::RoutingMode::kRing;
  const auto r = run_chord_experiment(cfg);
  // ~N/2 per lookup on a 40-node ring.
  EXPECT_GT(static_cast<double>(r.connum()) / 80.0, 10.0);
}

TEST(ChordHarness, DeterministicForSeed) {
  const auto a = run_chord_experiment(chord_config(4));
  const auto b = run_chord_experiment(chord_config(4));
  EXPECT_EQ(a.connum(), b.connum());
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
}

TEST(GnutellaHarness, JoinsAreInstant) {
  const auto r = run_gnutella_experiment(gnutella_config(5));
  EXPECT_EQ(r.joins_completed, 40u);
  EXPECT_DOUBLE_EQ(r.join_latency_ms.mean(), 0.0);  // no latency recorded
}

TEST(GnutellaHarness, FloodingFindsMostItems) {
  const auto r = run_gnutella_experiment(gnutella_config(6));
  EXPECT_EQ(r.lookups.issued, 80u);
  EXPECT_LT(r.lookups.failure_ratio(), 0.2);
}

TEST(GnutellaHarness, SmallTtlFailsMore) {
  auto small = gnutella_config(7);
  small.gnutella.ttl = 1;
  auto big = gnutella_config(7);
  big.gnutella.ttl = 7;
  const auto r_small = run_gnutella_experiment(small);
  const auto r_big = run_gnutella_experiment(big);
  EXPECT_GE(r_small.lookups.failure_ratio(), r_big.lookups.failure_ratio());
}

TEST(GnutellaHarness, DataStaysAtPublishers) {
  const auto r = run_gnutella_experiment(gnutella_config(8));
  std::size_t total = 0;
  for (const auto n : r.items_per_peer) total += n;
  EXPECT_EQ(total, 80u);
}

TEST(Baselines, ChordJoinsSlowerThanGnutella) {
  // The framing comparison of Section 1 at miniature scale.
  const auto chord = run_chord_experiment(chord_config(9));
  const auto gnutella = run_gnutella_experiment(gnutella_config(9));
  EXPECT_GT(chord.join_latency_ms.mean(), gnutella.join_latency_ms.mean());
  EXPECT_EQ(chord.lookups.failed, 0u);
}

TEST(Baselines, ZeroPeersThrowNamingTheKnob) {
  // The message of the std::invalid_argument `fn` throws ("" if none).
  const auto rejection = [](auto fn) -> std::string {
    try {
      (void)fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  auto chord = chord_config(10);
  chord.num_peers = 0;
  auto gnutella = gnutella_config(10);
  gnutella.num_peers = 0;
  EXPECT_NE(rejection([&] { return run_chord_experiment(chord); })
                .find("num_peers"),
            std::string::npos);
  EXPECT_NE(rejection([&] { return run_gnutella_experiment(gnutella); })
                .find("num_peers"),
            std::string::npos);
}

TEST(Baselines, EmptyCorpusIssuesNoLookups) {
  auto chord = chord_config(11);
  chord.num_items = 0;
  auto gnutella = gnutella_config(11);
  gnutella.num_items = 0;
  const auto c = run_chord_experiment(chord);
  const auto g = run_gnutella_experiment(gnutella);
  EXPECT_EQ(c.joins_completed, 40u);
  EXPECT_EQ(c.lookups.issued, 0u);
  EXPECT_EQ(g.joins_completed, 40u);
  EXPECT_EQ(g.lookups.issued, 0u);
}

}  // namespace
}  // namespace hp2p::exp
