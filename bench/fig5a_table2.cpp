// Table 2 and Fig. 5a: one sweep over p_s = 0 -> 0.9 and TTL in {1, 2, 4};
// each run yields both its total connum (number of peers contacted by all
// data lookups) and its lookup failure ratio.
//
// Table 2's paper shape: connum decays roughly linearly with p_s (at
// p_s = 0.9 it is ~10% of the structured baseline), and the TTL only
// matters once p_s > 0.5, where a bigger flood radius touches slightly
// more peers.  The paper's absolute magnitudes (4.88M at p_s = 0)
// correspond to ring routing on the t-network, which is this bench's
// default mode.
//
// Fig. 5a's paper shape: ~0 failures while p_s < 0.5 (s-networks average
// < 1 peer), then an exponential-looking rise with p_s; raising the TTL
// pushes the curve down sharply (18% -> 4% at p_s = 0.9 going TTL 1 -> 4).
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig5a_table2", scale};

  std::vector<exp::RunConfig> cells;
  for (double ps : bench::tenths(0.9)) {
    for (unsigned ttl : {1u, 2u, 4u}) {
      auto& cfg = cells.emplace_back(bench::base_config(scale));
      cfg.hybrid.ps = ps;
      cfg.hybrid.ttl = ttl;
    }
  }
  enum Field { kConnum, kFailure };
  const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
    return std::array{static_cast<double>(r.connum()),
                      r.lookups.failure_ratio()};
  });
  // Replica mean of one field of a cell, summed in replica order.
  const auto mean = [&](std::size_t cell, Field field) {
    std::vector<double> xs;
    for (const auto& run : runs[cell]) xs.push_back(run[field]);
    return exp::mean_of(xs);
  };
  stats::Table table2{{"p_s", "TTL=1", "TTL=2", "TTL=4"}};
  stats::Table fig5a{{"p_s", "TTL=1", "TTL=2", "TTL=4"}};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& h = cells[i].hybrid;
    if (h.ttl == 1) {
      table2.row().cell(h.ps, 1);
      fig5a.row().cell(h.ps, 1);
    }
    const std::string key =
        "ps_" + bench::metric_num(h.ps) + ".ttl_" + std::to_string(h.ttl);
    const double connum = mean(i, kConnum);
    const double ratio = mean(i, kFailure);
    table2.cell(static_cast<std::uint64_t>(connum));
    fig5a.cell(ratio, 4);
    reporter.metrics().set("connum." + key, connum);
    reporter.metrics().set("failure_ratio." + key, ratio);
  }

  bench::print_header(
      "Table 2 -- total connum vs p_s, per TTL",
      "linear decay in p_s; TTL-insensitive below p_s=0.5, mildly "
      "TTL-sensitive above",
      scale);
  table2.print(std::cout);
  table2.print_csv(std::cout);
  reporter.add_table("table2_connum", table2);

  bench::print_header(
      "Fig. 5a -- lookup failure ratio vs p_s, per TTL",
      "zero below p_s=0.5; grows with p_s; larger TTL cuts failures "
      "dramatically",
      scale);
  fig5a.print(std::cout);
  reporter.add_table("fig5a_failure_ratio", fig5a);
  return reporter.write() ? 0 : 1;
}
