// Scale ceiling: pushes the full stack -- hierarchical on-demand underlay
// routing, slot-arena event kernel, inline-closure transport -- far past the
// paper's 1,000-node runs and reports the numbers that prove the million-peer
// trajectory: peers, events/sec, peak RSS, bytes/peer, wall-clock, and the
// underlay routing-table footprint (O(V), where the old all-pairs tables
// were O(V^2)).
//
// The default run climbs a quick three-rung ladder; pin a single rung (e.g.
// the 100k soak) with HP2P_PEERS:
//
//   ./bench_scale                     # 1k / 5k / 20k ladder, laptop-fast
//   HP2P_PEERS=100000 ./bench_scale   # the 100k-peer soak
//
// Each rung's events/sec is the median of eleven identical runs: the perf
// gate's N=1,000 rung lasts only ~60 ms, too short to time once.
//
// Workload per rung: ~1% t-peers (ps = 0.99) with finger routing and a
// t-peers-first build -- the regime Section 4 argues for at scale, where
// ring state stays O(log N_t) and the s-networks absorb the mass.  Items
// and lookups track the peer count (1 per 20 peers) unless pinned via
// HP2P_ITEMS / HP2P_LOOKUPS.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/proc_stats.hpp"
#include "common/rng.hpp"
#include "exp/metrics_collect.hpp"
#include "exp/world.hpp"
#include "net/underlay.hpp"
#include "stats/table.hpp"

using namespace hp2p;

namespace {

const char* mode_name(net::RoutingMode mode) {
  switch (mode) {
    case net::RoutingMode::kDense: return "dense";
    case net::RoutingMode::kHierarchical: return "hierarchical";
    case net::RoutingMode::kAuto: break;
  }
  return "auto";
}

struct UnderlayFootprint {
  net::RoutingMode mode;
  std::size_t routing_bytes;
  std::uint32_t hosts;
};

/// Rebuilds the underlay exactly as the harness does (same params, same RNG
/// stream) to report the routing mode and table footprint; RunResult does
/// not carry the underlay itself.
UnderlayFootprint underlay_footprint(std::uint64_t seed, std::uint32_t peers) {
  Rng topo_rng = Rng{seed}.fork(1);
  const net::Underlay underlay = exp::make_underlay(peers + 1, topo_rng);
  return {underlay.routing_mode(), underlay.routing_memory_bytes(),
          underlay.num_hosts()};
}

constexpr std::size_t kTimingReps = 11;

double total_wall_ms(const exp::RunResult& r) {
  double wall_ms = 0;
  for (const auto& phase : r.phases) wall_ms += phase.wall_ms;
  return wall_ms;
}

double events_per_sec_of(const exp::RunResult& r) {
  const double wall_ms = total_wall_ms(r);
  return wall_ms > 0
             ? static_cast<double>(r.sim_stats.events_executed) * 1000.0 /
                   wall_ms
             : 0;
}

exp::RunConfig rung_config(const bench::Scale& scale, std::uint32_t peers) {
  auto cfg = bench::base_config(scale);
  cfg.num_peers = peers;
  if (env_or("HP2P_ITEMS", std::int64_t{0}) == 0) {
    cfg.num_items = std::max<std::size_t>(1000, peers / 20);
  }
  if (env_or("HP2P_LOOKUPS", std::int64_t{0}) == 0) {
    cfg.num_lookups = std::max<std::size_t>(1000, peers / 20);
  }
  cfg.hybrid.ps = 0.99;
  cfg.hybrid.ttl = 8;  // delta=3 trees of ~100 s-peers need flood radius 8
  cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
  cfg.tpeers_first = true;
  return cfg;
}

}  // namespace

int main() {
  auto scale = bench::scale_from_env();
  std::vector<std::uint32_t> ladder;
  if (env_or("HP2P_PEERS", std::int64_t{0}) != 0) {
    ladder.push_back(scale.peers);
  } else {
    ladder = {1000, 5000, 20000};
    scale.peers = ladder.back();
  }

  bench::Reporter reporter{"scale", scale};
  bench::print_header(
      "Scale ceiling -- events/sec, peak RSS, bytes/peer vs. peer count",
      "hierarchical routing + arena'd event loop keep memory O(V) and "
      "throughput flat past 10k peers",
      scale);

  stats::Table table{{"peers", "routing", "routing_MB", "events", "Mev/s",
                      "wall_s", "peak_rss_MB", "B/peer", "lookup_ok"}};
  // Ascending rungs: VmHWM is a process-wide high-water mark, so each rung's
  // reading is dominated by its own (largest-so-far) run.
  const bool profiling = bench::profile_from_env();
  for (const std::uint32_t peers : ladder) {
    const auto fp = underlay_footprint(scale.seed, peers);
    auto cfg = rung_config(scale, peers);
    // HP2P_PROFILE=1 profiles the ladder's top rung (the interesting one):
    // component attribution plus 1 s-period occupancy gauges (arena slots,
    // event backlog, live heap bytes, VmRSS) in the report's timeseries.
    stats::Profiler profiler;
    const bool profile_rung = profiling && peers == ladder.back();
    if (profile_rung) {
      cfg.profiler = &profiler;
      cfg.sample_period = sim::SimTime::seconds(1);
    }
    const auto r = exp::run_hybrid_experiment(cfg);
    const double wall_ms = total_wall_ms(r);
    double sim_ms = 0;
    for (const auto& phase : r.phases) sim_ms += phase.sim_ms;
    // events/sec is the median over kTimingReps identical runs (the first
    // is the reported one), so a single noisy ~60 ms rung on a shared host
    // cannot trip the perf gate.  A profiled rung is timed once: its rate
    // measures the profiler anyway.
    std::vector<double> rates{events_per_sec_of(r)};
    while (!profile_rung && rates.size() < kTimingReps) {
      rates.push_back(events_per_sec_of(exp::run_hybrid_experiment(cfg)));
    }
    std::sort(rates.begin(), rates.end());
    const double events_per_sec = rates[rates.size() / 2];
    const std::uint64_t peak_rss = peak_rss_bytes();
    const double bytes_per_peer =
        static_cast<double>(peak_rss) / static_cast<double>(peers);
    const double lookup_ok =
        r.lookups.issued > 0 ? static_cast<double>(r.lookups.succeeded) /
                                   static_cast<double>(r.lookups.issued)
                             : 0;

    table.row()
        .cell(std::uint64_t{peers})
        .cell(mode_name(fp.mode))
        .cell(static_cast<double>(fp.routing_bytes) / (1024.0 * 1024.0), 2)
        .cell(r.sim_stats.events_executed)
        .cell(events_per_sec / 1e6, 2)
        .cell(wall_ms / 1000.0, 2)
        .cell(static_cast<double>(peak_rss) / (1024.0 * 1024.0), 1)
        .cell(bytes_per_peer, 0)
        .cell(lookup_ok, 3);

    const std::string key = "n" + std::to_string(peers);
    exp::collect_run_result(reporter.metrics(), key, r);
    auto& m = reporter.metrics();
    m.set(key + ".routing_mode", stats::JsonValue{std::string{mode_name(fp.mode)}});
    m.set(key + ".routing_table_bytes",
          stats::JsonValue{static_cast<std::uint64_t>(fp.routing_bytes)});
    m.set(key + ".hosts", stats::JsonValue{std::uint64_t{fp.hosts}});
    m.set(key + ".events_per_sec", stats::JsonValue{events_per_sec});
    m.set(key + ".wall_ms_total", stats::JsonValue{wall_ms});
    m.set(key + ".sim_ms_total", stats::JsonValue{sim_ms});
    m.set(key + ".peak_rss_bytes", stats::JsonValue{peak_rss});
    m.set(key + ".bytes_per_peer", stats::JsonValue{bytes_per_peer});
    if (profile_rung) {
      if (r.timeseries) reporter.add_timeseries(*r.timeseries);
      bench::report_profile(reporter, profiler);
    }
  }
  table.print(std::cout);
  reporter.add_table("scale_ladder", table);

  stats::JsonValue rungs = stats::JsonValue::array();
  for (const std::uint32_t peers : ladder) {
    rungs.push_back(stats::JsonValue{std::uint64_t{peers}});
  }
  reporter.config().set("ladder", std::move(rungs));
  return reporter.write() ? 0 : 1;
}
