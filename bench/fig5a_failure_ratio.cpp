// Fig. 5a: lookup failure ratio vs p_s for TTL in {1, 2, 4}.
//
// Paper shape: ~0 failures while p_s < 0.5 (s-networks average < 1 peer),
// then an exponential-looking rise with p_s; raising the TTL pushes the
// curve down sharply (18% -> 4% at p_s = 0.9 going TTL 1 -> 4).
#include <cstdio>

#include "bench_util.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig5a_failure_ratio", scale};
  bench::print_header(
      "Fig. 5a -- lookup failure ratio vs p_s, per TTL",
      "zero below p_s=0.5; grows with p_s; larger TTL cuts failures "
      "dramatically",
      scale);

  std::vector<exp::RunConfig> cells;
  for (double ps : bench::tenths(0.9)) {
    for (unsigned ttl : {1u, 2u, 4u}) {
      auto& cfg = cells.emplace_back(bench::base_config(scale));
      cfg.hybrid.ps = ps;
      cfg.hybrid.ttl = ttl;
    }
  }
  const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
    return r.lookups.failure_ratio();
  });
  stats::Table table{{"p_s", "TTL=1", "TTL=2", "TTL=4"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& h = cells[i].hybrid;
    if (h.ttl == 1) table.row().cell(h.ps, 1);
    const double ratio = exp::mean_of(runs[i]);
    table.cell(ratio, 4);
    reporter.metrics().set("failure_ratio.ps_" + bench::metric_num(h.ps) +
                               ".ttl_" + std::to_string(h.ttl),
                           ratio);
  }
  table.print(std::cout);
  reporter.add_table("fig5a_failure_ratio", table);
  return reporter.write() ? 0 : 1;
}
