#include "exp/world.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/env.hpp"
#include "net/transit_stub.hpp"

namespace hp2p::exp {
namespace {

[[noreturn]] void reject(const std::string& knob_and_value,
                         const std::string& range) {
  throw std::invalid_argument("invalid config: " + knob_and_value +
                              " (valid range " + range + ")");
}

std::unique_ptr<sim::ShuffleTieBreak> checked_shuffler(
    const WorldConfig& cfg) {
  validate(cfg);
  const std::string& spec = cfg.tie_break;
  if (spec.empty()) return nullptr;
  if (spec.rfind("shuffle:", 0) != 0 || spec.size() == 8 ||
      spec.find_first_not_of("0123456789", 8) != std::string::npos) {
    reject("tie_break = " + spec, "\"\" or shuffle:<seed>");
  }
  return std::make_unique<sim::ShuffleTieBreak>(
      std::strtoull(spec.c_str() + 8, nullptr, 10));
}

}  // namespace

void validate(const WorldConfig& cfg) {
  struct Knob {
    const char* name;
    double value, lo, hi;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const hybrid::HybridParams& p = cfg.params;
  const auto us = [](sim::Duration d) {
    return static_cast<double>(d.as_micros());
  };
  for (const Knob& k : {
           Knob{"num_peers", double(cfg.num_peers), 1, kMaxPeers},
           Knob{"hosts", double(cfg.hosts), 2, kMaxPeers + 1.0},
           Knob{"ps", cfg.ps, 0, 1},
           Knob{"params.ps", p.ps, 0, 1},
           Knob{"params.delta", double(p.delta), 1, kInf},
           Knob{"params.num_interests", double(p.num_interests), 1, kInf},
           Knob{"params.num_landmarks", double(p.num_landmarks), 1, kInf},
           Knob{"params.walkers", double(p.walkers), 1, kInf},
           Knob{"params.replication_factor", double(p.replication_factor), 1,
                kInf},
           Knob{"params.hello_interval_us", us(p.hello_interval), 1, kInf},
           Knob{"params.hello_timeout_us", us(p.hello_timeout), 1, kInf},
           Knob{"params.lookup_timeout_us", us(p.lookup_timeout), 1, kInf},
       }) {
    if (!(k.value >= k.lo && k.value <= k.hi)) {  // NaN fails too
      std::ostringstream value;
      std::ostringstream range;
      value << std::setprecision(10) << k.name << " = " << k.value;
      range << std::setprecision(10) << "[" << k.lo << ", " << k.hi << "]";
      reject(value.str(), range.str());
    }
  }
}

std::string tie_break_or_env(const std::string& spec) {
  return spec.empty() ? env_or("HP2P_TIEBREAK", "") : spec;
}

std::uint32_t forced_tpeers(std::uint32_t num_peers, double ps) {
  const auto num_t = static_cast<std::uint32_t>(
      std::lround((1.0 - ps) * static_cast<double>(num_peers)));
  return std::min(std::max<std::uint32_t>(1, num_t), num_peers);
}

net::Underlay make_underlay(std::uint32_t hosts, Rng& rng) {
  return net::Underlay(
      net::generate_transit_stub(
          net::TransitStubParams::for_total_nodes(hosts), rng),
      rng);
}

World::World(const WorldConfig& cfg, Rng& topo_rng, Rng& system_rng)
    : shuffler_(checked_shuffler(cfg)),
      underlay_(make_underlay(cfg.hosts, topo_rng)),
      network_(sim_, underlay_, cfg.network),
      system_(network_, cfg.params, HostIndex{0}, system_rng) {
  if (shuffler_) sim_.set_tie_break_policy(shuffler_.get());
}

HostIndex World::next_host() {
  return HostIndex{1 + host_cursor_++ % (underlay_.num_hosts() - 1)};
}

std::vector<PeerIndex> World::live_nonserver_peers() const {
  std::vector<PeerIndex> out;
  for (std::uint32_t i = 0; i < system_.num_peers(); ++i) {
    const PeerIndex p{i};
    if (!system_.is_server_peer(p) && system_.is_alive(p) &&
        system_.is_joined(p)) {
      out.push_back(p);
    }
  }
  return out;
}

void World::stage(std::uint32_t num_tpeers, std::uint32_t num_speers,
                  sim::Duration spacing) {
  for (std::uint32_t i = 0; i < num_tpeers + num_speers; ++i) {
    const auto role =
        i < num_tpeers ? hybrid::Role::kTPeer : hybrid::Role::kSPeer;
    sim_.schedule_at(sim::SimTime::micros(spacing.as_micros() * (i + 1)),
                     [this, host = next_host(), role] {
                       system_.add_peer_with_role(host, role);
                     });
  }
}

}  // namespace hp2p::exp
