// One simulated world -- kernel, transit-stub underlay, overlay transport
// and hybrid system, built in that order from one validated config.  The
// harness, the chaos and scenario runners and the explorer all build here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hybrid/hybrid_system.hpp"
#include "net/underlay.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "sim/tie_break.hpp"

namespace hp2p::exp {

struct WorldConfig {
  std::uint32_t hosts = 200;  // host 0 is the server's
  /// Peers the caller will add and their s-peer fraction (validated only).
  std::uint32_t num_peers = 1;
  double ps = 0.5;
  hybrid::HybridParams params{};
  proto::OverlayNetworkOptions network{};
  std::string tie_break{};  // "" (FIFO) or "shuffle:<seed>"
};

inline constexpr std::uint32_t kMaxPeers = 1u << 24;

/// The one config check: throws std::invalid_argument naming the first bad
/// knob and its valid range.
void validate(const WorldConfig& cfg);

/// `spec`, or the HP2P_TIEBREAK environment variable when `spec` is empty.
[[nodiscard]] std::string tie_break_or_env(const std::string& spec);

/// round((1 - ps) * num_peers) t-peers, clamped to [1, num_peers].
[[nodiscard]] std::uint32_t forced_tpeers(std::uint32_t num_peers, double ps);

/// Transit-stub underlay of at least `hosts` nodes, drawn from `rng`.
[[nodiscard]] net::Underlay make_underlay(std::uint32_t hosts, Rng& rng);

class World {
 public:
  World(const WorldConfig& cfg, Rng& rng) : World(cfg, rng, rng) {}
  /// Topology draws come from `topo_rng`, the system keeps `system_rng`;
  /// both must outlive the World.
  World(const WorldConfig& cfg, Rng& topo_rng, Rng& system_rng);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const net::Underlay& underlay() const { return underlay_; }
  [[nodiscard]] proto::OverlayNetwork& network() { return network_; }
  [[nodiscard]] hybrid::HybridSystem& system() { return system_; }

  /// Round-robin over hosts 1..N-1.
  HostIndex next_host();
  /// Live, joined, non-server peers in index order.
  [[nodiscard]] std::vector<PeerIndex> live_nonserver_peers() const;
  /// Schedules forced-role joins at spacing, 2*spacing, ... (t-peers
  /// first) on successive next_host() hosts.  Runs nothing.
  void stage(std::uint32_t num_tpeers, std::uint32_t num_speers,
             sim::Duration spacing);

 private:
  std::unique_ptr<sim::ShuffleTieBreak> shuffler_;  // outlives sim_
  sim::Simulator sim_;
  net::Underlay underlay_;
  proto::OverlayNetwork network_;
  hybrid::HybridSystem system_;
  std::uint32_t host_cursor_ = 0;
};

}  // namespace hp2p::exp
