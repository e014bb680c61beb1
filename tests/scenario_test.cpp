// Scenario-runner guard-rails (ctest label: workload -- excluded from the
// quick tier alongside chaos/soak/durability/scale/explore).
//
// 1. Dormancy: this binary links hp2p_scenario, and the stock N=1,000
//    paper-scale run must still produce the digest pinned in scale_test --
//    merely linking the workload/scenario layer must not perturb a run
//    that does not use it.
// 2. Tracker failover: the content swarm completes with zero MUST failures
//    and zero integrity mismatches while the chaos schedule crashes the
//    tracker t-peers mid-download; the reannounce-disabled canary proves
//    the oracle (not luck) is holding that bar, and the shrinker reduces
//    the canary's failing schedule to a one-line reproducer.
// 3. Hot-key storm: under rotating-hot-key churn the Section 7 cache keeps
//    the hottest peer's load bounded; with the cache off the same storm
//    must melt the holder (the DisablingCacheIsCaught-style canary).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chaos/shrinker.hpp"
#include "exp/harness.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/metrics.hpp"
#include "workload/scenario_runner.hpp"

namespace hp2p::workload {
namespace {

/// Same dump as scale_test / repro_test: every exported metric, flattened
/// to "key=value" lines.
std::string metrics_dump(const exp::RunConfig& cfg,
                          const exp::RunResult& result) {
  stats::MetricsRegistry reg;
  exp::collect_run_config(reg, "config", cfg);
  exp::collect_run_result(reg, "run", result);
  std::string out;
  for (const auto& [key, value] : reg.entries()) {
    out += key;
    out += '=';
    out += value.dump();
    out += '\n';
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Behaviour pin: FNV-1a of the whole preset report, so any change to what
/// the run does (not only to its verdict) fails loudly.
void expect_digest(const ScenarioReport& report, std::uint64_t pinned) {
  const std::uint64_t digest = fnv1a(report.to_json().dump(0));
  EXPECT_EQ(digest, pinned) << report.scenario << " report digest 0x"
                            << std::hex << digest;
}

TEST(ScenarioDormancy, PaperScaleDigestUnchangedWithScenarioLayerLinked) {
  // Touch the scenario layer so the linker cannot discard it, but run the
  // stock experiment without it.
  const ScenarioConfig unused = diurnal_scenario(1);
  ASSERT_NE(unused.workload, nullptr);

  exp::RunConfig cfg;
  cfg.seed = 42;
  const std::string dump = metrics_dump(cfg, exp::run_hybrid_experiment(cfg));
  // Must match scale_test's PaperScaleDigestIsPinned constant: the workload
  // subsystem is dormant unless a scenario actually runs.
  const std::uint64_t kPinned = 0x58572f0900991737ull;
  EXPECT_EQ(fnv1a(dump), kPinned)
      << "linking hp2p_scenario changed the stock N=1,000 run (digest 0x"
      << std::hex << fnv1a(dump) << std::dec << ")";
}

TEST(ScenarioSwarm, CompletesThroughTrackerCrashWithZeroMustFailures) {
  const auto report = run_scenario(swarm_scenario(3));
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_GE(report.crashes, 1u) << "the tracker crash storm never fired";
  EXPECT_GT(report.lookups_issued, 0u);
  EXPECT_EQ(report.value_mismatches, 0u);
  EXPECT_EQ(report.must_failed, 0u);
  EXPECT_EQ(report.wave_must_failed, 0u);
  EXPECT_TRUE(report.ring_ok);
  EXPECT_TRUE(report.trees_ok);
  // The swarm actually downloads: every leecher x piece lookup succeeds
  // against its FNV-1a piece hash or the run is not clean above.
  EXPECT_GT(report.availability, 0.99);
  expect_digest(report, 0x7b0c08230175eef6ull);
}

TEST(ScenarioSwarm, DisablingTrackerReannounceIsCaughtAndShrinks) {
  // Canary: with index-rebuild failover off, the same tracker crash leaves
  // pieces unreachable (failed lookups), proving the clean pass above is
  // earned by the reannounce path.
  const auto failing_config = [](const chaos::FaultSchedule& schedule) {
    auto cfg = swarm_scenario(3);
    cfg.params.tracker_reannounce = false;
    cfg.schedule = schedule;
    return cfg;
  };
  const chaos::FaultSchedule original = swarm_scenario(3).schedule;
  const auto fails = [&](const chaos::FaultSchedule& schedule) {
    return run_scenario(failing_config(schedule)).lookups_failed > 0;
  };
  ASSERT_TRUE(fails(original))
      << "tracker_reannounce=false no longer degrades the swarm; the "
         "failover path is not being exercised";

  // The failing schedule shrinks to a minimal reproducer that replays
  // byte-identically from its one-line form.
  const auto shrunk = chaos::shrink_schedule(
      original, [&](const chaos::FaultSchedule& s) { return fails(s); });
  ASSERT_GE(shrunk.phases.size(), 1u);
  EXPECT_TRUE(fails(shrunk));
  const auto line = shrunk.one_line();
  const auto blob = line.substr(line.find("schedule=") + 9);
  const auto parsed = stats::JsonValue::parse(blob);
  ASSERT_TRUE(parsed.has_value());
  const auto replayed = chaos::FaultSchedule::from_json(*parsed);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, shrunk);
  EXPECT_TRUE(fails(*replayed));
}

TEST(ScenarioHotKey, CacheBoundsMaxPeerLoadUnderKeyChurn) {
  const auto cached = run_scenario(hot_key_storm_scenario(5, true));
  EXPECT_TRUE(cached.clean()) << cached.to_json().dump(2);
  EXPECT_GT(cached.lookups_issued, 0u);
  EXPECT_GT(cached.cache_hits, 0u);
  // The rotating hot key never melts one holder: the cache spreads each
  // rotation across surrogates (the ablation's 520 -> 38 claim, now under
  // key churn and a crash storm).
  EXPECT_LT(cached.max_peer_load, 100u) << cached.to_json().dump(2);
  expect_digest(cached, 0xe1ff4d7f718ef97full);

  // DisablingCacheIsCaught-style canary: the identical storm with the cache
  // off must melt the hottest holder, or the bound above is vacuous.
  const auto uncached = run_scenario(hot_key_storm_scenario(5, false));
  EXPECT_GT(uncached.max_peer_load, 4 * cached.max_peer_load)
      << "cache off no longer concentrates load; the cached bound asserts "
         "nothing";
  expect_digest(uncached, 0xb346119fed80448dull);
}

TEST(ScenarioFlashCrowd, CrowdJoinsAbsorbedCleanly) {
  const auto report = run_scenario(flash_crowd_scenario(7));
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_EQ(report.joins, FlashCrowdWorkload{}.burst_joins);
  EXPECT_GT(report.lookups_issued, 0u);
  EXPECT_GT(report.availability, 0.95);
  expect_digest(report, 0xfc394e17c48944feull);
}

TEST(ScenarioDiurnal, FullDayCurveSurvivesCrashStorm) {
  const auto report = run_scenario(diurnal_scenario(11));
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_GE(report.crashes, 1u);
  EXPECT_GT(report.joins, 0u);
  EXPECT_GT(report.leaves, 0u);
  EXPECT_GT(report.stores, 0u);
  EXPECT_GT(report.availability, 0.8);
  expect_digest(report, 0x5321c32a21d776b9ull);
}

TEST(ScenarioComposition, ChaosUnderCompositeWorkloadStaysClean) {
  // The combinator stacks two scenarios into one stream; the oracle bar is
  // unchanged.
  auto cfg = diurnal_scenario(13);
  cfg.workload = compose(std::make_shared<DiurnalWorkload>(),
                         std::make_shared<FlashCrowdWorkload>());
  const auto report = run_scenario(cfg);
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_GT(report.lookups_issued, 0u);
  EXPECT_GT(report.joins, 0u);
}

}  // namespace
}  // namespace hp2p::workload
