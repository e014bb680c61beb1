// Benchmark workloads: the world each one builds and the op stream it
// drives through that world.
//
// A workload is a fixed recipe (WorkloadSpec) plus an op stream generated
// from the workload seed alone (make_op_stream).  The stream is a plain
// vector of records with simulated issue times; actors are stored as raw
// 64-bit draws and resolved against the live membership only when an op
// fires, so the stream never depends on how the protocol behaves.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hybrid/params.hpp"

namespace perfbench {

/// Phases every workload runs, in order.  A phase that has no ops in a
/// workload still exists (with zero simulated and host time) so every
/// workload reports the same phase set.
enum class Phase : std::uint8_t { kBuild, kLoad, kMain, kSettle };
inline constexpr int kNumPhases = 4;
[[nodiscard]] const char* phase_name(Phase p);

struct WorkloadSpec {
  std::string name;
  std::uint32_t peers = 0;  // initial membership (excluding the server)
  hp2p::hybrid::HybridParams params;
  /// The underlay is part of the workload, like the paper's fixed GT-ITM
  /// topologies: the same for every workload seed.
  std::uint64_t topology_seed = 1;
  /// Admit every t-peer before the first s-peer (two drained sub-phases)
  /// instead of one interleaved, concurrent build.
  bool tpeers_first = false;
  /// HELLO failure detection from the end of the load phase on.  With it
  /// the event queue never drains, so the main and settle phases run for
  /// fixed simulated windows instead of until idle.
  bool heartbeats = false;
  std::int64_t join_spacing_us = 25'000;
  std::int64_t op_spacing_us = 5'000;

  std::uint32_t load_stores = 0;    // items stored before the main phase
  std::uint32_t main_lookups = 0;   // lookups of loaded items
  std::uint32_t main_stores = 0;    // new items stored beside the lookups
  double zipf = 0.0;                // lookup popularity; 0 = uniform

  // Churn (heartbeat workloads only): a slot every `churn_spacing_us`
  // through the main window issues `churn_burst` membership events 1 ms
  // apart, cycling through kChurnCycle (crash, join, leave, join, crash,
  // join).
  std::int64_t main_window_us = 0;
  std::int64_t churn_spacing_us = 0;  // 0 = no churn
  std::uint32_t churn_burst = 1;
  std::int64_t settle_us = 0;
  /// Fresh joins issued in the main phase that have not completed after
  /// this long are retried once from a fresh host, as a client would
  /// (0 = never).  Latency counts from the first attempt.
  std::int64_t join_retry_us = 0;
  /// Periodic finger refresh (Chord's fix_fingers stand-in) through the
  /// churn window; 0 = none.
  std::int64_t finger_refresh_us = 0;

  [[nodiscard]] std::uint32_t churn_events() const {
    return churn_spacing_us > 0
               ? static_cast<std::uint32_t>(main_window_us / churn_spacing_us) *
                     churn_burst
               : 0;
  }
  /// Fresh peers joining during the main phase.
  [[nodiscard]] std::uint32_t fresh_joins() const;
  /// Hosts beyond the server's: one per initial peer, per fresh join and
  /// per retry of a fresh join.
  [[nodiscard]] std::uint32_t hosts_needed() const {
    return peers + (join_retry_us > 0 ? 2 : 1) * fresh_joins();
  }
};

/// Names accepted by --workload, in the order the benchmark reports them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload; false for an unknown name.
[[nodiscard]] bool find_workload(std::string_view name, WorkloadSpec& out);

struct Op {
  enum class Kind : std::uint8_t { kJoin, kStore, kLookup, kLeave, kCrash };
  std::int64_t at_us = 0;  // issue time, relative to the phase start
  Kind kind = Kind::kJoin;
  bool tpeer = false;      // joins: role
  /// Drain the simulation before this op; its at_us restarts from 0.
  bool barrier = false;
  std::uint32_t item = 0;  // stores/lookups: index into the item table
  std::uint64_t pick = 0;  // actor draw (origin / victim)
};

struct Item {
  std::uint64_t id = 0;  // ring position (DataId value)
  std::uint64_t value = 0;
  std::string key;
};

struct OpStream {
  std::vector<Item> items;
  /// Grouped by phase, each group sorted by at_us (barriers restart it).
  std::vector<Op> ops;
  /// Index of the first op of each phase (ops.size() past the last).
  std::uint32_t phase_begin[kNumPhases + 1] = {};

  /// Canonical byte encoding of items and ops (the determinism self-test
  /// compares these bytes across runs).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] std::uint64_t digest() const;
};

[[nodiscard]] OpStream make_op_stream(const WorkloadSpec& spec,
                                      std::uint64_t seed);

}  // namespace perfbench
