// Head-to-head: pure Chord (structured baseline), pure Gnutella
// (unstructured baseline), and the hybrid system at two p_s values, all on
// the same workload -- the framing experiment of the whole paper
// (Section 1: "neither ... can provide efficient, flexible, and robust
// service alone").
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exp/baselines.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"baseline_comparison", scale};
  bench::print_header(
      "Baseline comparison -- Chord vs Gnutella vs hybrid",
      "structured: zero failures, long walks & joins; unstructured: instant "
      "joins, TTL misses; hybrid: tunable middle",
      scale);

  stats::Table table{{"system", "join_ms", "lookup_ms", "failure",
                      "connum/lookup", "messages"}};

  auto add_row = [&](const char* name, const char* key,
                     const exp::RunResult& r) {
    table.row()
        .cell(name)
        .cell(r.join_latency_ms.mean(), 1)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(r.lookups.failure_ratio(), 4)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      r.lookups.issued, 1)),
              1)
        .cell(r.network.messages_sent);
    exp::collect_run_result(reporter.metrics(), key, r);
  };

  {
    exp::ChordRunConfig cfg;
    cfg.seed = scale.seed;
    cfg.num_peers = scale.peers;
    cfg.num_items = scale.items;
    cfg.num_lookups = scale.lookups;
    cfg.chord.routing = chord::RoutingMode::kRing;
    add_row("chord (ring routing)", "chord_ring",
            exp::run_chord_experiment(cfg));
    cfg.chord.routing = chord::RoutingMode::kFinger;
    cfg.maintenance = true;
    cfg.chord.stabilize_interval = sim::SimTime::millis(500);
    add_row("chord (finger routing)", "chord_finger",
            exp::run_chord_experiment(cfg));
  }
  {
    exp::GnutellaRunConfig cfg;
    cfg.seed = scale.seed;
    cfg.num_peers = scale.peers;
    cfg.num_items = scale.items;
    cfg.num_lookups = scale.lookups;
    cfg.gnutella.ttl = 5;
    cfg.gnutella.neighbors_per_join = 3;
    add_row("gnutella (flood TTL=5)", "gnutella",
            exp::run_gnutella_experiment(cfg));
  }
  std::vector<exp::RunConfig> cells;
  for (double ps : {0.5, 0.7}) {
    auto& cfg = cells.emplace_back(bench::base_config(scale));
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
  }
  const auto runs = bench::sweep(cells, 1, [](const auto& r) { return r; });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double ps = cells[i].hybrid.ps;
    const std::string name = "hybrid (p_s=" + stats::format_fixed(ps, 1) + ")";
    const std::string key = "hybrid_ps_" + bench::metric_num(ps);
    add_row(name.c_str(), key.c_str(), runs[i][0]);
  }
  table.print(std::cout);
  reporter.add_table("baseline_comparison", table);
  std::printf("\nchord joins pay a full ring walk and chord lookups contact "
              "~N/2 peers (ring mode);\ngnutella joins are constant-time but "
              "flooding misses rare items; the hybrid\ninterpolates, and "
              "p_s picks the point on the trade-off curve.\n");
  return reporter.write() ? 0 : 1;
}
