// Tests for bench::sweep(), the one way a paper bench runs its grid: the
// replica seed rule, config-order results (also over a grid that mixes
// runners), the bad-config and zero-replica exits and the refusal of runs
// that carry per-run observers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <variant>
#include <vector>

#include "bench/bench_util.hpp"
#include "exp/baselines.hpp"
#include "exp/harness.hpp"
#include "stats/trace.hpp"

namespace hp2p::bench {
namespace {

exp::RunConfig tiny_config(std::uint64_t seed, double ps) {
  exp::RunConfig c;
  c.seed = seed;
  c.num_peers = 40;
  c.num_items = 60;
  c.num_lookups = 60;
  c.hybrid.ps = ps;
  c.hybrid.ttl = 4;
  return c;
}

TEST(BenchSweep, ReturnsCellMajorReplicasWithTheSeedRule) {
  const std::vector<exp::RunConfig> cells{tiny_config(7, 0.3),
                                          tiny_config(7, 0.8)};
  const auto out = sweep(cells, 2, [](const exp::RunResult& r) {
    return r.network.messages_sent;
  });
  ASSERT_EQ(out.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(out[i].size(), 2u);
    for (std::size_t r = 0; r < 2; ++r) {
      auto cfg = cells[i];
      cfg.seed = cells[i].seed + r * 1000003;
      EXPECT_EQ(out[i][r],
                exp::run_hybrid_experiment(cfg).network.messages_sent)
          << "cell " << i << " replica " << r;
    }
  }
}

TEST(BenchSweep, MixesRunnersInConfigOrder) {
  exp::ChordRunConfig chord;
  chord.seed = 3;
  chord.num_peers = 30;
  chord.num_items = 40;
  chord.num_lookups = 40;
  using Cell = std::variant<exp::ChordRunConfig, exp::RunConfig>;
  const std::vector<Cell> cells{chord, tiny_config(3, 0.6)};
  const auto out = sweep(cells, 2, [](const exp::RunResult& r) {
    return r.network.messages_sent;
  });
  ASSERT_EQ(out.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    auto c = chord;
    c.seed += r * 1000003;
    auto h = tiny_config(3 + r * 1000003, 0.6);
    EXPECT_EQ(out[0][r], exp::run_chord_experiment(c).network.messages_sent);
    EXPECT_EQ(out[1][r], exp::run_hybrid_experiment(h).network.messages_sent);
  }
}

TEST(BenchSweep, BadConfigExitsTwoNamingTheKnob) {
  std::vector<exp::RunConfig> cells{tiny_config(1, 0.5)};
  cells[0].num_peers = 0;
  EXPECT_EXIT((void)sweep(cells, 1, [](const exp::RunResult&) { return 0; }),
              ::testing::ExitedWithCode(2), "error: invalid config: num_peers");
}

TEST(BenchSweep, ZeroReplicasExitsTwo) {
  EXPECT_EXIT(
      {
        ::setenv("HP2P_REPLICAS", "0", 1);
        (void)scale_from_env();
      },
      ::testing::ExitedWithCode(2), "error: HP2P_REPLICAS=0");
}

TEST(BenchSweep, RefusesRunsWithObservers) {
  stats::SpanRecorder recorder;
  std::vector<exp::RunConfig> cells{tiny_config(1, 0.5)};
  cells[0].tracer = &recorder;
  EXPECT_THROW(
      (void)sweep(cells, 1, [](const exp::RunResult&) { return 0; }),
      std::logic_error);
}

TEST(BenchSweep, TenthsIsTheAccumulatedGrid) {
  std::vector<double> expected;
  for (double ps = 0.0; ps <= 0.901; ps += 0.1) expected.push_back(ps);
  EXPECT_EQ(tenths(0.9), expected);  // bit-identical, not just close
  EXPECT_EQ(tenths(0.5).size(), 6u);
}

}  // namespace
}  // namespace hp2p::bench
