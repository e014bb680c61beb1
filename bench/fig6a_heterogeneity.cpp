// Fig. 6a: average lookup latency vs p_s, with and without link
// heterogeneity support (Section 5.1).
//
// Both series run over the same heterogeneous access links (1/3 slow, 1/3
// medium, 1/3 fast; 10x spread) with per-hop transmission delays modeled.
// "With" assigns t-peer roles to the fastest hosts and lets fast connect
// points take more children.  Paper shape: latency falls with p_s; the
// heterogeneity-aware variant sits below the basic one, most visibly for
// p_s in 0.4..0.8 (~20% at p_s = 0.7).
#include <cstdio>

#include "bench_util.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig6a_heterogeneity", scale};
  bench::print_header(
      "Fig. 6a -- average lookup latency vs p_s, link heterogeneity on/off",
      "latency decreases with p_s; capacity-aware roles cut ~20% around "
      "p_s=0.7",
      scale);

  std::vector<exp::RunConfig> cells;
  for (double ps : bench::tenths(0.9)) {
    for (bool aware : {false, true}) {
      auto& cfg = cells.emplace_back(bench::base_config(scale));
      cfg.hybrid.ps = ps;
      cfg.hybrid.ttl = 6;
      cfg.model_transmission_delay = true;
      cfg.capacity_sorted_roles = aware;
      cfg.hybrid.link_usage_connect = aware;
    }
  }
  const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
    return r.lookup_latency_ms.mean();
  });
  stats::Table table{
      {"p_s", "basic_ms", "heterogeneity_aware_ms", "improvement"}};
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const double ps = cells[i].hybrid.ps;
    const double basic = exp::mean_of(runs[i]);
    const double aware = exp::mean_of(runs[i + 1]);
    table.row().cell(ps, 1).cell(basic, 1).cell(aware, 1).cell(
        basic > 0 ? (basic - aware) / basic : 0.0, 3);
    const std::string base = "lookup_latency_ms.ps_" + bench::metric_num(ps);
    reporter.metrics().set(base + ".basic", basic);
    reporter.metrics().set(base + ".aware", aware);
  }
  table.print(std::cout);
  reporter.add_table("fig6a_lookup_latency", table);

  // The imbalance that motivates the whole Section: t-peers carry far more
  // traffic than s-peers, so fast hosts belong on the t-network.
  std::printf("\nper-role traffic (messages handled per peer, basic "
              "config):\n");
  std::vector<exp::RunConfig> load_cells;
  for (double ps : {0.3, 0.6, 0.9}) {
    auto& cfg = load_cells.emplace_back(bench::base_config(scale));
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
    cfg.model_transmission_delay = true;
  }
  const auto load_runs =
      bench::sweep(load_cells, 1, [](const auto& r) { return r; });
  stats::Table load{{"p_s", "t-peer_traffic", "s-peer_traffic", "ratio"}};
  for (std::size_t i = 0; i < load_cells.size(); ++i) {
    const exp::RunResult& r = load_runs[i][0];
    load.row()
        .cell(load_cells[i].hybrid.ps, 1)
        .cell(r.mean_tpeer_traffic, 0)
        .cell(r.mean_speer_traffic, 0)
        .cell(r.mean_speer_traffic > 0
                  ? r.mean_tpeer_traffic / r.mean_speer_traffic
                  : 0.0,
              1);
  }
  // Full metric tree for the heaviest configuration, as a load anchor.
  exp::collect_run_result(reporter.metrics(), "run_ps_0p9", load_runs[2][0]);
  load.print(std::cout);
  reporter.add_table("fig6a_per_role_traffic", load);
  return reporter.write() ? 0 : 1;
}
