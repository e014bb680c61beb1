// Fig. 6b: average lookup latency vs p_s, basic vs topology-aware
// s-network assignment with 8 and 12 landmarks (Section 5.2).
//
// Paper shape: identical at p_s = 0 (no s-networks to cluster); the
// topology-aware curves fall faster as p_s grows; more landmarks help; the
// three curves converge again by p_s ~ 0.9 (many tiny s-networks are
// near-local anyway).
#include <cstdio>

#include "bench_util.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig6b_topology_aware", scale};
  bench::print_header(
      "Fig. 6b -- average lookup latency vs p_s, topology awareness",
      "aware < basic for mid p_s; more landmarks -> lower latency; curves "
      "merge near p_s=0.9",
      scale);

  std::vector<exp::RunConfig> cells;
  for (double ps : bench::tenths(0.9)) {
    // Basic (default landmark count, unread), then 8 and 12 landmarks.
    for (unsigned landmarks : {0u, 8u, 12u}) {
      auto& cfg = cells.emplace_back(bench::base_config(scale));
      cfg.hybrid.ps = ps;
      cfg.hybrid.ttl = 6;
      // Finger routing on the t-network: clustering improves the
      // *intra-s-network* hops (cp chain, flood), which a ~N_t/2-hop
      // ring walk would completely drown out.
      cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
      cfg.hybrid.topology_aware = landmarks != 0;
      if (landmarks != 0) cfg.hybrid.num_landmarks = landmarks;
    }
  }
  const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
    return r.lookup_latency_ms.mean();
  });
  stats::Table table{{"p_s", "basic_ms", "aware_8lm_ms", "aware_12lm_ms"}};
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    const double ps = cells[i].hybrid.ps;
    const double basic = exp::mean_of(runs[i]);
    const double aware8 = exp::mean_of(runs[i + 1]);
    const double aware12 = exp::mean_of(runs[i + 2]);
    table.row().cell(ps, 1).cell(basic, 1).cell(aware8, 1).cell(aware12, 1);
    const std::string base = "lookup_latency_ms.ps_" + bench::metric_num(ps);
    reporter.metrics().set(base + ".basic", basic);
    reporter.metrics().set(base + ".aware_8lm", aware8);
    reporter.metrics().set(base + ".aware_12lm", aware12);
  }
  table.print(std::cout);
  reporter.add_table("fig6b_lookup_latency", table);
  return reporter.write() ? 0 : 1;
}
