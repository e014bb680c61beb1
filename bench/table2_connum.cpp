// Table 2: total connum (number of peers contacted by all data lookups)
// under different TTL values as p_s sweeps 0 -> 0.9.
//
// Paper shape: connum decays roughly linearly with p_s (at p_s = 0.9 it is
// ~10% of the structured baseline), and the TTL only matters once
// p_s > 0.5, where a bigger flood radius touches slightly more peers.
// The paper's absolute magnitudes (4.88M at p_s = 0) correspond to ring
// routing on the t-network, which is this bench's default mode.
#include <cstdio>

#include "bench_util.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"table2_connum", scale};
  bench::print_header(
      "Table 2 -- total connum vs p_s, per TTL",
      "linear decay in p_s; TTL-insensitive below p_s=0.5, mildly "
      "TTL-sensitive above",
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
    return static_cast<double>(r.connum());
  });
  stats::Table table{{"p_s", "TTL=1", "TTL=2", "TTL=4"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& h = cells[i].hybrid;
    if (h.ttl == 1) table.row().cell(h.ps, 1);
    const double connum = exp::mean_of(runs[i]);
    table.cell(static_cast<std::uint64_t>(connum));
    reporter.metrics().set("connum.ps_" + bench::metric_num(h.ps) + ".ttl_" +
                               std::to_string(h.ttl),
                           connum);
  }
  table.print(std::cout);
  table.print_csv(std::cout);
  reporter.add_table("table2_connum", table);
  return reporter.write() ? 0 : 1;
}
