// Determinism regression: a replica is a pure function of (config, seed).
// Two runs with the same config must export byte-identical metrics -- the
// property the determinism lint (tools/lint_determinism.py) protects at the
// source level.  Wall-clock phase timings are the one legitimate exception
// and are filtered out before comparison.
#include <gtest/gtest.h>

#include <string>

#include "exp/harness.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/metrics.hpp"

namespace hp2p::exp {
namespace {

/// Flattens everything a replica measured into "key=value" lines.  The
/// metrics tree holds no host time, so two runs of one seed dump the same.
std::string metrics_dump(const RunConfig& cfg, const RunResult& result) {
  stats::MetricsRegistry reg;
  collect_run_config(reg, "config", cfg);
  collect_run_result(reg, "run", result);
  std::string out;
  for (const auto& [key, value] : reg.entries()) {
    out += key;
    out += '=';
    out += value.dump();
    out += '\n';
  }
  return out;
}

RunConfig small_fig3_config(std::uint64_t seed) {
  RunConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 60;
  cfg.num_items = 120;
  cfg.num_lookups = 120;
  cfg.hybrid.ps = 0.8;
  cfg.sample_period = sim::SimTime::millis(250);
  cfg.audit_period = sim::SimTime::seconds(1);
  return cfg;
}

TEST(Reproducibility, SameSeedProducesIdenticalMetrics) {
  const RunConfig cfg = small_fig3_config(1234);
  const std::string first = metrics_dump(cfg, run_hybrid_experiment(cfg));
  const std::string second = metrics_dump(cfg, run_hybrid_experiment(cfg));
  // Sanity: the comparison covers real content, including audit counters.
  EXPECT_GT(first.size(), 1000u);
  EXPECT_NE(first.find("run.lookup.succeeded="), std::string::npos);
  EXPECT_NE(first.find("run.audit.runs="), std::string::npos);
  EXPECT_EQ(first, second) << "same (config, seed) diverged between runs";
}

TEST(Reproducibility, DifferentSeedsDiverge) {
  const RunConfig a = small_fig3_config(1234);
  const RunConfig b = small_fig3_config(4321);
  EXPECT_NE(metrics_dump(a, run_hybrid_experiment(a)),
            metrics_dump(b, run_hybrid_experiment(b)))
      << "seed is not reaching the run (comparison would be vacuous)";
}

TEST(Reproducibility, TimeseriesSamplesAreIdenticalToo) {
  const RunConfig cfg = small_fig3_config(99);
  const RunResult first = run_hybrid_experiment(cfg);
  const RunResult second = run_hybrid_experiment(cfg);
  ASSERT_TRUE(first.timeseries.has_value());
  ASSERT_TRUE(second.timeseries.has_value());
  EXPECT_EQ(first.timeseries->to_json().dump(),
            second.timeseries->to_json().dump());
}

}  // namespace
}  // namespace hp2p::exp
