// Head-to-head: pure Chord (structured baseline), pure Gnutella
// (unstructured baseline), and the hybrid system at two p_s values, all on
// the same workload -- the framing experiment of the whole paper
// (Section 1: "neither ... can provide efficient, flexible, and robust
// service alone").
#include <cstdio>
#include <string>
#include <variant>
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

  // One map over all five runs, in table order.
  std::vector<std::string> names;
  std::vector<std::string> keys;
  std::vector<std::variant<exp::ChordRunConfig, exp::GnutellaRunConfig,
                           exp::RunConfig>>
      cells;
  const auto add = [&](std::string name, std::string key, auto cfg) {
    cfg.seed = scale.seed;
    cfg.num_peers = scale.peers;
    cfg.num_items = scale.items;
    cfg.num_lookups = scale.lookups;
    names.push_back(std::move(name));
    keys.push_back(std::move(key));
    cells.emplace_back(cfg);
  };
  exp::ChordRunConfig chord;
  chord.chord.routing = chord::RoutingMode::kRing;
  add("chord (ring routing)", "chord_ring", chord);
  chord.chord.routing = chord::RoutingMode::kFinger;
  chord.maintenance = true;
  chord.chord.stabilize_interval = sim::SimTime::millis(500);
  add("chord (finger routing)", "chord_finger", chord);
  exp::GnutellaRunConfig gnutella;
  gnutella.gnutella.ttl = 5;
  gnutella.gnutella.neighbors_per_join = 3;
  add("gnutella (flood TTL=5)", "gnutella", gnutella);
  for (double ps : {0.5, 0.7}) {
    exp::RunConfig cfg = bench::base_config(scale);
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
    add("hybrid (p_s=" + stats::format_fixed(ps, 1) + ")",
        "hybrid_ps_" + bench::metric_num(ps), cfg);
  }
  const auto runs = bench::sweep(cells, 1, [](exp::RunResult r) { return r; });

  stats::Table table{{"system", "join_ms", "lookup_ms", "failure",
                      "connum/lookup", "messages"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const exp::RunResult& r = runs[i][0];
    table.row()
        .cell(names[i])
        .cell(r.join_latency_ms.mean(), 1)
        .cell(r.lookup_latency_ms.mean(), 1)
        .cell(r.lookups.failure_ratio(), 4)
        .cell(static_cast<double>(r.connum()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      r.lookups.issued, 1)),
              1)
        .cell(r.network.messages_sent);
    exp::collect_run_result(reporter.metrics(), keys[i], r);
  }
  table.print(std::cout);
  reporter.add_table("baseline_comparison", table);
  std::printf("\nchord joins pay a full ring walk and chord lookups contact "
              "~N/2 peers (ring mode);\ngnutella joins are constant-time but "
              "flooding misses rare items; the hybrid\ninterpolates, and "
              "p_s picks the point on the trade-off curve.\n");
  return reporter.write() ? 0 : 1;
}
