// Small model-checking scenarios: a deterministic world (3-8 peers,
// join/crash/store/lookup at fixed times) re-executed from scratch for
// every explored interleaving.  The only degree of freedom between runs is
// the installed tie-break policy; everything else is a pure function of the
// config, which is what makes choice-prefix replay a faithful fork.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/judge.hpp"
#include "hybrid/params.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hp2p::verify {

/// Tie-break policy with an abort hook: the scenario loop polls aborted()
/// between events and cuts the run short when the policy has declared it
/// redundant (sleep-set prune) or divergent.
class ScenarioPolicy : public sim::TieBreakPolicy {
 public:
  [[nodiscard]] virtual bool aborted() const { return false; }
};

/// Hybrid parameters for verification runs: every randomized protocol path
/// is switched off (deterministic t-peer placement, flood search, forced
/// roles), so the outcome depends only on the event order -- the one thing
/// the explorer controls.
[[nodiscard]] hybrid::HybridParams verify_default_params();

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_tpeers = 2;
  std::uint32_t num_speers = 2;
  std::uint32_t hosts = 16;
  std::uint32_t num_items = 3;
  /// Lookups issued inside the explored horizon (judged post-hoc like the
  /// chaos storm lookups; the quiescent oracle wave is issued on top).
  std::uint32_t num_lookups = 2;
  /// Peer (1-based dense index, i.e. join order; the server is 0) crashed
  /// at `crash_at`; 0 = no crash.
  std::uint32_t crash_peer = 0;
  sim::SimTime crash_at = sim::SimTime::seconds(3);
  /// First storm lookup time (successive lookups 150ms apart).
  sim::SimTime lookup_at = sim::SimTime::millis(3500);
  /// Exploration horizon: the quiescent point where the canonical state
  /// hash is taken and the strict audit + oracle wave run.  Must leave the
  /// world quiescent enough that co-enabled windows do not straddle it.
  sim::SimTime horizon = sim::SimTime::seconds(6);
  /// Commutation window handed to the kernel (0 = exact ties only).
  sim::Duration window{};
  hybrid::HybridParams params = verify_default_params();

  /// Canary fault: heartbeat messages from peer `hello_delay_from` to
  /// `hello_delay_to` (dense indices; 0 = off) sent during
  /// [hello_delay_start, hello_delay_end) are delayed by `hello_delay_by`.
  /// Deterministic, so the race it engineers is explored, not sampled.
  std::uint32_t hello_delay_from = 0;
  std::uint32_t hello_delay_to = 0;
  sim::Duration hello_delay_by{};
  sim::SimTime hello_delay_start{};
  sim::SimTime hello_delay_end{};
};

struct ScenarioOutcome {
  bool aborted = false;  // policy pruned the run before the horizon
  std::uint64_t state_hash = 0;
  std::uint64_t events_executed = 0;
  std::vector<chaos::Violation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  /// Canonical serialization for byte-identical replay assertions.
  [[nodiscard]] std::string dump() const;
};

/// Runs one scenario under `policy` (nullptr = kernel FIFO order): builds
/// the world, explores up to the horizon, then -- policy uninstalled --
/// hashes the quiescent state, runs OverlayAuditor strict mode, verifies
/// ring/trees, and issues the ReferenceModel MUST/MAY lookup wave.
[[nodiscard]] ScenarioOutcome run_scenario(const ScenarioConfig& cfg,
                                           ScenarioPolicy* policy);

}  // namespace hp2p::verify
