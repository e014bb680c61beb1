// Interleaving-explorer tests: choice-trace codec round-trips, footprint
// independence semantics, independence soundness (flipping a decision whose
// candidates all commute cannot change the terminal state), sleep-set
// pruning vs naive enumeration on a 3-peer world (same terminal-state set,
// far fewer runs), and the order-dependence canary: a test-only knob
// disables the HELLO re-adopt repair rule, and the explorer must find the
// HELLO-timeout vs late-HELLO race as a shrunk, byte-identical reproducer.
#include <gtest/gtest.h>

#include <string>

#include "common/hashing.hpp"
#include "sim/simulator.hpp"
#include "verify/choice_trace.hpp"
#include "verify/explorer.hpp"
#include "verify/scenario.hpp"

namespace hp2p::verify {
namespace {

// --- Choice-trace codec -------------------------------------------------------

TEST(ChoiceTraceCodec, JsonRoundTrip) {
  ChoiceTrace t;
  t.seed = 42;
  t.choices = {{3, 1}, {17, 2}, {120, 1}};
  const auto parsed = stats::JsonValue::parse(t.to_json().dump(0));
  ASSERT_TRUE(parsed.has_value());
  const auto back = ChoiceTrace::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(ChoiceTraceCodec, OneLineRoundTrip) {
  ChoiceTrace t;
  t.seed = 7;
  t.choices = {{9, 1}, {10, 3}};
  const auto line = t.one_line();
  EXPECT_NE(line.find("seed=7"), std::string::npos);
  const auto back = ChoiceTrace::parse_one_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(ChoiceTraceCodec, EmptyTraceRoundTrips) {
  ChoiceTrace t;  // FIFO run: no non-default choices
  const auto back = ChoiceTrace::parse_one_line(t.one_line());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(ChoiceTraceCodec, RejectsMalformedInput) {
  EXPECT_FALSE(ChoiceTrace::parse_one_line("garbage").has_value());
  EXPECT_FALSE(ChoiceTrace::parse_one_line("choices=[[1]]").has_value());
  EXPECT_FALSE(
      ChoiceTrace::parse_one_line("choices={\"seed\":1}").has_value());
}

// --- Footprint independence ---------------------------------------------------

TEST(Footprint, WildcardNeverCommutes) {
  const auto w = sim::Footprint::wild();
  const auto a = sim::Footprint::on({1});
  EXPECT_FALSE(independent(w, w));
  EXPECT_FALSE(independent(w, a));
  EXPECT_FALSE(independent(a, w));
}

TEST(Footprint, DisjointPeerSetsCommute) {
  const auto a = sim::Footprint::on({1, 2});
  const auto b = sim::Footprint::on({3, 4});
  const auto c = sim::Footprint::on({2, 3});
  EXPECT_TRUE(independent(a, b));
  EXPECT_FALSE(independent(a, c));
  EXPECT_FALSE(independent(b, c));
}

TEST(Footprint, TooManyPeersFallsBackToWildcard) {
  const auto wide = sim::Footprint::on({1, 2, 3, 4, 5});
  EXPECT_TRUE(wide.wildcard);
  EXPECT_FALSE(independent(wide, sim::Footprint::on({9})));
}

// --- Scenario determinism -----------------------------------------------------

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.num_tpeers = 2;
  cfg.num_speers = 1;
  cfg.num_items = 2;
  cfg.num_lookups = 1;
  cfg.lookup_at = sim::SimTime::millis(2750);
  cfg.horizon = sim::SimTime::millis(3000);
  return cfg;
}

TEST(Scenario, FifoRunIsCleanAndDeterministic) {
  const auto cfg = small_config();
  const auto a = run_scenario(cfg, nullptr);
  const auto b = run_scenario(cfg, nullptr);
  EXPECT_TRUE(a.clean()) << a.dump();
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_GT(a.events_executed, 0u);
  // Behaviour pin: FNV-1a of the canonical outcome dump.
  EXPECT_EQ(fnv1a64(a.dump()), 0x064339381d885b1dull)
      << "outcome digest 0x" << std::hex << fnv1a64(a.dump());
}

TEST(Scenario, EmptyTraceReplaysTheFifoRun) {
  const auto cfg = small_config();
  const auto fifo = run_scenario(cfg, nullptr);
  ChoiceTrace empty;
  empty.seed = cfg.seed;
  EXPECT_EQ(replay(cfg, empty).dump(), fifo.dump());
}

// --- Independence soundness ---------------------------------------------------

/// Finds the first decision point whose candidates are all pairwise
/// independent (by footprint), while running plain FIFO order.
class IndependentDecisionScout final : public ScenarioPolicy {
 public:
  std::size_t choose(const sim::CoEnabledEvent* events,
                     std::size_t n) override {
    if (n >= 2) {
      if (found_decision_ < 0) {
        bool all = true;
        for (std::size_t i = 0; i < n && all; ++i) {
          for (std::size_t j = i + 1; j < n && all; ++j) {
            all = independent(events[i].fp, events[j].fp);
          }
        }
        if (all) {
          found_decision_ = static_cast<std::int64_t>(counter_);
          branches_ = n;
        }
      }
      ++counter_;
    }
    return 0;
  }

  [[nodiscard]] std::int64_t found_decision() const {
    return found_decision_;
  }
  [[nodiscard]] std::size_t branches() const { return branches_; }

 private:
  std::uint32_t counter_ = 0;
  std::int64_t found_decision_ = -1;
  std::size_t branches_ = 0;
};

TEST(Explorer, SwappingCommutingEventsPreservesTerminalHash) {
  const auto cfg = small_config();
  IndependentDecisionScout scout;
  const auto fifo = run_scenario(cfg, &scout);
  ASSERT_TRUE(fifo.clean()) << fifo.dump();
  ASSERT_GE(scout.found_decision(), 0)
      << "no decision point with an all-independent candidate set";
  ASSERT_GE(scout.branches(), 2u);
  for (std::uint32_t b = 1; b < scout.branches(); ++b) {
    ChoiceTrace flipped;
    flipped.seed = cfg.seed;
    flipped.choices = {
        {static_cast<std::uint32_t>(scout.found_decision()), b}};
    const auto out = replay(cfg, flipped);
    EXPECT_EQ(out.state_hash, fifo.state_hash)
        << "commuting swap changed the terminal state: "
        << flipped.one_line();
    EXPECT_TRUE(out.clean()) << out.dump();
  }
}

// --- Sleep-set pruning soundness ----------------------------------------------

TEST(Explorer, SleepSetsDropNoTerminalStateOnThreePeers) {
  const auto cfg = small_config();
  ExploreOptions opts;
  opts.max_runs = 100000;

  const auto por = explore(cfg, opts);
  opts.sleep_sets = false;
  const auto naive = explore(cfg, opts);

  ASSERT_FALSE(por.budget_exhausted);
  ASSERT_FALSE(naive.budget_exhausted);
  EXPECT_EQ(por.violating_runs, 0u);
  EXPECT_EQ(naive.violating_runs, 0u);
  EXPECT_EQ(naive.pruned_runs, 0u);

  // Soundness: pruning must not lose a single distinct terminal state.
  EXPECT_EQ(por.state_hashes, naive.state_hashes);
  // And it must actually prune: strictly fewer completed interleavings.
  EXPECT_LT(por.completed_runs, naive.completed_runs);
  EXPECT_GT(por.pruned_runs + por.sleeping_branches, 0u);
}

// --- Order-dependence canary --------------------------------------------------

/// The engineered race: peer 3 (an s-peer child of t-peer 2) has its HELLOs
/// delayed so one arrives a few ms before the parent's timeout scan.  FIFO
/// delivers the HELLO first (clean); under a 10ms commutation window the
/// explorer may fire the scan first, which falsely buries the child.  With
/// the child_readopt repair rule disabled (test-only knob) the false
/// positive leaves a persistent parent/child asymmetry that strict audit
/// reports at the horizon.
ScenarioConfig canary_config(bool readopt) {
  ScenarioConfig cfg;
  cfg.num_tpeers = 2;
  cfg.num_speers = 1;
  cfg.num_items = 2;
  cfg.num_lookups = 0;
  cfg.horizon = sim::SimTime::millis(4800);
  cfg.window = sim::SimTime::millis(10);
  cfg.params.child_readopt = readopt;
  cfg.hello_delay_from = 3;
  cfg.hello_delay_to = 2;
  cfg.hello_delay_by = sim::SimTime::millis(1458);
  cfg.hello_delay_start = sim::SimTime::millis(2000);
  cfg.hello_delay_end = sim::SimTime::millis(3600);
  return cfg;
}

TEST(Canary, FifoRunStaysClean) {
  const auto out = run_scenario(canary_config(false), nullptr);
  EXPECT_TRUE(out.clean()) << out.dump();
}

TEST(Canary, ExactTieExplorationStaysClean) {
  // Without the commutation window the delayed HELLO and the timeout scan
  // are never co-enabled, so no interleaving exhibits the race.
  auto cfg = canary_config(false);
  cfg.window = sim::Duration{};
  ExploreOptions opts;
  opts.max_runs = 50000;
  const auto res = explore(cfg, opts);
  ASSERT_FALSE(res.budget_exhausted);
  EXPECT_EQ(res.violating_runs, 0u)
      << (res.violation_details.empty() ? std::string()
                                        : res.violation_details[0]);
}

TEST(Canary, ExplorerCatchesDisabledReadoptWithShortReproducer) {
  const auto cfg = canary_config(false);
  ExploreOptions opts;
  opts.max_runs = 50000;
  opts.stop_on_violation = true;
  const auto res = explore(cfg, opts);
  ASSERT_EQ(res.violating_runs, 1u) << "explorer missed the canary race";
  ASSERT_FALSE(res.violating.empty());
  bool symmetry = false;
  for (const auto& v : res.violation_details) {
    symmetry |= v.find("tree_parent_child_symmetry") != std::string::npos;
  }
  EXPECT_TRUE(symmetry) << "unexpected violation kind: "
                        << res.violation_details[0];

  const auto shrunk = shrink_trace(cfg, res.violating[0]);
  EXPECT_LE(shrunk.choices.size(), 12u);

  // The reproducer replays byte-identically from its printed form.
  const auto parsed = ChoiceTrace::parse_one_line(shrunk.one_line());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, shrunk);
  const auto first = replay(cfg, shrunk);
  const auto second = replay(cfg, *parsed);
  EXPECT_FALSE(first.clean());
  EXPECT_EQ(first.dump(), second.dump());
}

TEST(Canary, ReadoptRuleMasksTheRace) {
  // With the repair rule enabled (the production default) the same race
  // heals on the next heard HELLO; a budgeted prefix of the exploration
  // that is more than deep enough to contain the violating branch above
  // must stay clean.
  const auto cfg = canary_config(true);
  ExploreOptions opts;
  opts.max_runs = 3000;
  const auto res = explore(cfg, opts);
  EXPECT_EQ(res.violating_runs, 0u)
      << (res.violating.empty() ? std::string()
                                : res.violating[0].one_line());
}

}  // namespace
}  // namespace hp2p::verify
