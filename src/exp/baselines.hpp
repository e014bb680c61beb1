// Experiment harnesses for the two pure baselines the paper positions the
// hybrid against: a Chord ring (structured) and a Gnutella mesh
// (unstructured).  Same three phases and the same metrics as
// run_hybrid_experiment, so the comparison bench prints all three systems
// on one table.
#pragma once

#include <cstdint>

#include "chord/chord.hpp"
#include "exp/harness.hpp"
#include "gnutella/gnutella.hpp"

namespace hp2p::exp {

/// Chord replica configuration.
struct ChordRunConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_peers = 1000;
  std::size_t num_items = 2000;
  std::size_t num_lookups = 2000;
  chord::ChordParams chord;
  /// Run stabilization + fix_fingers during the measurement phases.
  bool maintenance = false;
  sim::Duration join_spacing = sim::SimTime::millis(25);
  sim::Duration op_spacing = sim::SimTime::millis(5);
};

/// Gnutella replica configuration.
struct GnutellaRunConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_peers = 1000;
  std::size_t num_items = 2000;
  std::size_t num_lookups = 2000;
  gnutella::GnutellaParams gnutella;
  sim::Duration op_spacing = sim::SimTime::millis(5);
};

/// Runs a full Chord replica (build -> populate -> lookups).  Both runners
/// pass num_peers through exp::validate(), which throws on zero.
[[nodiscard]] RunResult run_chord_experiment(const ChordRunConfig& config);

/// Runs a full Gnutella replica.  Unstructured stores are local, so the
/// populate phase costs nothing on the wire.
[[nodiscard]] RunResult run_gnutella_experiment(
    const GnutellaRunConfig& config);

}  // namespace hp2p::exp
