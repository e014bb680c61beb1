// One benchmark round: build a fresh world from the public constructors,
// drive the op stream through it, and collect every outcome.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RoundOptions {
  /// Attach stats::Profiler and stats::SpanRecorder and fill
  /// RoundResult::layers.
  bool traced = false;
  /// Traced rounds only: write the profiler's collapsed stacks here.
  std::string collapsed_path;
};

struct RoundResult {
  // ---- host time (not part of the simulated digest) ----------------------
  double net_setup_ms = 0; // topology generation + underlay routing state
  double window_s = 0;     // first op to end of the last phase
  double phase_wall_s[kNumPhases] = {};
  double refresh_ms = 0;   // timed HybridSystem::refresh_all_fingers calls
  std::uint64_t refreshes = 0;

  // ---- op accounting ------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t no_actor = 0;  // ops whose actor pool was empty

  // ---- simulated outcomes (all covered by sim_digest) ---------------------
  double phase_sim_s[kNumPhases] = {};
  std::vector<double> lookup_ms;  // successful lookups, completion order
  std::vector<double> join_ms;    // completed joins, completion order
  std::uint64_t lookup_attempts = 0;  // including those with no origin
  std::uint64_t lookups_issued = 0;
  std::uint64_t lookups_done = 0;
  std::uint64_t lookups_ok = 0;
  std::uint64_t wrong_values = 0;
  std::uint64_t contacted = 0;  // peers contacted, summed over lookups
  std::uint64_t joins_issued = 0;
  std::uint64_t join_retries = 0;  // fresh joins retried after join_retry_us
  std::uint64_t items_stored = 0;
  std::uint64_t items_available = 0;
  hp2p::proto::NetworkStats net;
  hp2p::sim::SimulatorStats sim;
  std::uint64_t cache_hits = 0;
  std::uint64_t bypass_uses = 0;
  std::uint64_t replica_pushes = 0;
  std::uint64_t anti_entropy_repairs = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t sim_digest = 0;

  // ---- correctness gate ---------------------------------------------------
  /// Empty when the round passed: every issued lookup completed, every
  /// successful lookup returned the stored value, verify_ring() and
  /// verify_trees() held, and one strict OverlayAuditor pass was clean.
  /// Joins that never complete are not gate errors but failed ops.  A
  /// join request forwarded to a peer that has crashed is lost (the join
  /// protocol has no retry); churn workloads retry such joins client-side
  /// once (join_retries) and count them failed only if the retry is lost
  /// too.
  std::vector<std::string> gate_errors;
  /// Post-churn strict tree_degree_cap findings within the lenient
  /// 2 x delta bound (see Round::gate).
  std::uint64_t degree_cap_excused = 0;

  // ---- memory / allocation (process-wide counters, window deltas) --------
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t live_bytes = 0;  // heap held by the world at window end
  std::uint64_t routing_bytes = 0;
  bool hierarchical = false;

  /// Traced rounds only: per-layer metrics by name.
  std::map<std::string, double> layers;
};

[[nodiscard]] RoundResult run_round(const WorkloadSpec& spec,
                                    const OpStream& stream, std::uint64_t seed,
                                    const RoundOptions& options);

/// Host seconds to construct the world alone, as run_round does before its
/// first event: one setup_s sample.
[[nodiscard]] double measure_setup(const WorkloadSpec& spec,
                                   std::uint64_t seed);

}  // namespace perfbench
