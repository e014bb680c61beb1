// Integration tests for the experiment harness: small replicas of the
// paper's workload phases end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "exp/harness.hpp"
#include "exp/world.hpp"

namespace hp2p::exp {
namespace {

RunConfig small_config(std::uint64_t seed, double ps) {
  RunConfig c;
  c.seed = seed;
  c.num_peers = 60;
  c.num_items = 120;
  c.num_lookups = 120;
  c.hybrid.ps = ps;
  c.hybrid.ttl = 8;
  return c;
}

TEST(Harness, AllJoinsAndOpsComplete) {
  const auto r = run_hybrid_experiment(small_config(1, 0.5));
  EXPECT_EQ(r.joins_completed, 60u);
  EXPECT_EQ(r.lookups.issued, 120u);
  EXPECT_EQ(r.num_tpeers + r.num_speers, 60u);
}

TEST(Harness, NoChurnNoFailures) {
  const auto r = run_hybrid_experiment(small_config(2, 0.5));
  EXPECT_EQ(r.lookups.failed, 0u);
  EXPECT_DOUBLE_EQ(r.lookups.failure_ratio(), 0.0);
}

TEST(Harness, DeterministicForSeed) {
  const auto a = run_hybrid_experiment(small_config(3, 0.6));
  const auto b = run_hybrid_experiment(small_config(3, 0.6));
  EXPECT_EQ(a.connum(), b.connum());
  EXPECT_DOUBLE_EQ(a.lookup_latency_ms.mean(), b.lookup_latency_ms.mean());
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
}

TEST(Harness, DifferentSeedsDiffer) {
  const auto a = run_hybrid_experiment(small_config(4, 0.6));
  const auto b = run_hybrid_experiment(small_config(5, 0.6));
  EXPECT_NE(a.network.messages_sent, b.network.messages_sent);
}

TEST(Harness, ConnumDecreasesWithPs) {
  // Table 2's headline trend (ring routing).
  auto low = small_config(6, 0.1);
  auto high = small_config(6, 0.9);
  const auto r_low = run_hybrid_experiment(low);
  const auto r_high = run_hybrid_experiment(high);
  EXPECT_GT(r_low.connum(), r_high.connum());
}

TEST(Harness, CrashFractionRaisesFailureRatio) {
  auto base = small_config(7, 0.5);
  base.hybrid.lookup_timeout = sim::SimTime::seconds(5);
  auto crashed = base;
  crashed.crash_fraction = 0.3;
  const auto r0 = run_hybrid_experiment(base);
  const auto r1 = run_hybrid_experiment(crashed);
  EXPECT_GT(r1.lookups.failure_ratio(), r0.lookups.failure_ratio());
}

TEST(Harness, ItemsPerPeerAccountsForEverything) {
  const auto r = run_hybrid_experiment(small_config(8, 0.5));
  std::size_t total = 0;
  for (const auto n : r.items_per_peer) total += n;
  EXPECT_EQ(total, 120u);
}

TEST(Harness, TransmissionDelayIncreasesLatency) {
  auto plain = small_config(9, 0.5);
  auto hetero = plain;
  hetero.model_transmission_delay = true;
  const auto r_plain = run_hybrid_experiment(plain);
  const auto r_hetero = run_hybrid_experiment(hetero);
  EXPECT_GT(r_hetero.lookup_latency_ms.mean(),
            r_plain.lookup_latency_ms.mean());
}

TEST(Harness, CapacitySortedRolesReduceLatencyUnderHeterogeneity) {
  // Fig. 6a's claim: with transmission delays modeled, putting fast hosts
  // on the t-network shortens lookups.
  auto base = small_config(10, 0.7);
  base.model_transmission_delay = true;
  auto sorted = base;
  sorted.capacity_sorted_roles = true;
  const auto r_base = run_hybrid_experiment(base);
  const auto r_sorted = run_hybrid_experiment(sorted);
  EXPECT_LT(r_sorted.lookup_latency_ms.mean(),
            r_base.lookup_latency_ms.mean() * 1.05);
}

TEST(Harness, InterestLocalityReducesLookupLatency) {
  // Interest-local lookups stay inside the local s-network: a few tree hops
  // instead of cp-chain + ring walk + remote flood.  (Contacted-peer counts
  // can go either way at small scale -- a local flood touches the whole
  // tree -- so latency is the discriminating metric, as in Section 5.3.)
  auto base = small_config(11, 0.8);
  auto local = base;
  local.interest_locality = 0.9;
  local.hybrid.interest_based = true;
  local.hybrid.num_interests = 4;
  local.tpeers_first = true;  // anchors must not drift during the build
  const auto r_base = run_hybrid_experiment(base);
  const auto r_local = run_hybrid_experiment(local);
  EXPECT_LT(r_local.lookup_latency_ms.mean(),
            r_base.lookup_latency_ms.mean());
}

TEST(Harness, LinkStressTrackedWhenEnabled) {
  auto c = small_config(12, 0.5);
  c.track_link_stress = true;
  const auto r = run_hybrid_experiment(c);
  EXPECT_GT(r.max_link_stress, 0u);
}

TEST(Harness, ParallelMapMatchesSequential) {
  std::vector<RunConfig> configs;
  for (int i = 0; i < 4; ++i) configs.push_back(small_config(20 + static_cast<std::uint64_t>(i), 0.5));
  const auto parallel = parallel_map(
      configs, [](const RunConfig& c) { return run_hybrid_experiment(c); }, 4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto seq = run_hybrid_experiment(configs[i]);
    EXPECT_EQ(parallel[i].connum(), seq.connum()) << "replica " << i;
    EXPECT_EQ(parallel[i].network.messages_sent, seq.network.messages_sent);
  }
}

TEST(Harness, TPeersCarryMoreTrafficThanSPeers) {
  // The load-imbalance observation behind Section 5.1.
  auto cfg = small_config(30, 0.7);
  const auto r = run_hybrid_experiment(cfg);
  EXPECT_GT(r.mean_tpeer_traffic, r.mean_speer_traffic * 1.5)
      << "t=" << r.mean_tpeer_traffic << " s=" << r.mean_speer_traffic;
}

TEST(Harness, MeanOfHelper) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Harness, RecordsPhaseTimingsAndSimStats) {
  const auto r = run_hybrid_experiment(small_config(31, 0.5));
  ASSERT_GE(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].name, "build");
  for (const auto& ph : r.phases) {
    EXPECT_GE(ph.wall_ms, 0.0) << ph.name;
    EXPECT_GE(ph.sim_ms, 0.0) << ph.name;
  }
  EXPECT_GT(r.sim_stats.events_executed, 0u);
  EXPECT_GE(r.sim_stats.events_scheduled, r.sim_stats.events_executed);
}

TEST(ParallelMap, PropagatesWorkerExceptions) {
  const std::vector<int> configs{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(parallel_map(
                   configs,
                   [](int c) -> int {
                     if (c == 3) throw std::runtime_error{"boom"};
                     return c * 2;
                   },
                   2),
               std::runtime_error);
}

TEST(ParallelMap, SupportsNonDefaultConstructibleResults) {
  struct Wrapped {
    explicit Wrapped(int v) : value(v) {}
    int value;
  };
  const std::vector<int> configs{1, 2, 3};
  const auto out =
      parallel_map(configs, [](int c) { return Wrapped{c * 10}; }, 2);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, 10);
  EXPECT_EQ(out[1].value, 20);
  EXPECT_EQ(out[2].value, 30);
}

// --- Config validation -------------------------------------------------------

/// Builds a World from a valid config with one knob broken.
std::function<void()> world_with(std::function<void(WorldConfig&)> breaks) {
  return [breaks] {
    WorldConfig cfg;
    breaks(cfg);
    Rng rng(1);
    const World world(cfg, rng);
  };
}

/// Reads one environment knob set to `value`, then unsets it.
std::function<void()> env_with(const char* value,
                               std::function<void()> read) {
  return [value, read] {
    ::setenv("HP2P_TEST_KNOB", value, 1);
    struct Unset {
      ~Unset() { ::unsetenv("HP2P_TEST_KNOB"); }
    } unset;
    read();
  };
}

TEST(Config, BadKnobsFailLoudlyNamingTheKnob) {
  struct Case {
    const char* knob;  // must appear in the error message
    std::function<void()> run;
  };
  const auto read_int = [] { (void)env_or("HP2P_TEST_KNOB", std::int64_t{7}); };
  const auto read_double = [] { (void)env_or("HP2P_TEST_KNOB", 0.5); };
  const auto read_count = [] {
    (void)env_count("HP2P_TEST_KNOB", 7, 1000);
  };
  const std::vector<Case> cases = {
      {"num_peers", world_with([](WorldConfig& c) { c.num_peers = 0; })},
      {"num_peers",
       world_with([](WorldConfig& c) { c.num_peers = kMaxPeers + 1; })},
      {"hosts", world_with([](WorldConfig& c) { c.hosts = 1; })},
      {"ps", world_with([](WorldConfig& c) { c.ps = 2.0; })},
      {"ps", world_with([](WorldConfig& c) { c.ps = -0.1; })},
      {"ps", world_with([](WorldConfig& c) {
         c.ps = std::numeric_limits<double>::quiet_NaN();
       })},
      {"params.ps", world_with([](WorldConfig& c) { c.params.ps = 1.5; })},
      {"params.delta", world_with([](WorldConfig& c) { c.params.delta = 0; })},
      {"params.num_interests",
       world_with([](WorldConfig& c) { c.params.num_interests = 0; })},
      {"params.hello_interval",
       world_with([](WorldConfig& c) { c.params.hello_interval = {}; })},
      {"params.replication_factor",
       world_with([](WorldConfig& c) { c.params.replication_factor = 0; })},
      {"tie_break",
       world_with([](WorldConfig& c) { c.tie_break = "shuffle:x"; })},
      // The experiment harness reaches the same check through World: a
      // wrapped "-3" peer count and a p_s of 2.0 used to segfault and to
      // run with a bogus failure ratio.
      {"num_peers",
       [] {
         RunConfig cfg;
         cfg.num_peers = static_cast<std::uint32_t>(-3);
         (void)run_hybrid_experiment(cfg);
       }},
      {"ps",
       [] {
         RunConfig cfg;
         cfg.num_peers = 20;
         cfg.hybrid.ps = 2.0;
         (void)run_hybrid_experiment(cfg);
       }},
      // Environment knobs: set but unparsable, negative or out of range.
      {"HP2P_TEST_KNOB", env_with("abc", read_int)},
      {"HP2P_TEST_KNOB", env_with("12x", read_int)},
      {"HP2P_TEST_KNOB", env_with("99999999999999999999", read_int)},
      {"HP2P_TEST_KNOB", env_with("fast", read_double)},
      {"HP2P_TEST_KNOB", env_with("-5", read_count)},
      {"HP2P_TEST_KNOB", env_with("1001", read_count)},
      {"HP2P_TEST_KNOB", env_with("abc", read_count)},
  };
  for (const Case& c : cases) {
    try {
      c.run();
      ADD_FAILURE() << "no error for a bad " << c.knob;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.knob), std::string::npos)
          << "error does not name " << c.knob << ": " << e.what();
    }
  }
  // Unset or empty still means "use the default"; good values parse.
  EXPECT_EQ(env_or("HP2P_TEST_KNOB", std::int64_t{7}), 7);
  env_with("", [] {
    EXPECT_EQ(env_count("HP2P_TEST_KNOB", 7, 1000), 7u);
  })();
  env_with("12", [] {
    EXPECT_EQ(env_count("HP2P_TEST_KNOB", 7, 1000), 12u);
  })();
}

}  // namespace
}  // namespace hp2p::exp
