// Fig. 5b: lookup failure ratio when a fraction of peers crash (no load
// transfer) before the lookups, for several p_s values.
//
// Paper shape: failure ratio grows linearly with the crashed fraction, and
// is essentially independent of p_s (the improved placement scheme spreads
// data evenly, so each crashed peer takes a proportional bite).
#include <array>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig5b_crash", scale};
  bench::print_header(
      "Fig. 5b -- lookup failure ratio vs fraction of crashed peers",
      "linear in the crash fraction; level is insensitive to p_s "
      "(scheme-2 placement spreads the loss)",
      scale);

  // One sweep: the figure's crashed x p_s cells, then the durability
  // companion's crashed x r = 2, 3 cells at p_s = 0.7; its r = 1 column
  // is the figure's p_s = 0.7 column.
  std::vector<exp::RunConfig> cells;
  const auto add = [&](double crashed, double ps, unsigned r_factor) {
    auto& cfg = cells.emplace_back(bench::base_config(scale));
    cfg.hybrid.ps = ps;
    cfg.hybrid.ttl = 6;
    cfg.crash_fraction = crashed;
    cfg.recovery_time = sim::SimTime::seconds(25);
    cfg.hybrid.hello_interval = sim::SimTime::millis(1000);
    cfg.hybrid.hello_timeout = sim::SimTime::millis(3000);
    cfg.hybrid.replication_factor = r_factor;
  };
  for (double crashed : bench::tenths(0.5)) {
    for (double ps : {0.4, 0.7, 0.9}) add(crashed, ps, 1);
  }
  const std::size_t durability = cells.size();
  for (double crashed : bench::tenths(0.5)) {
    for (unsigned r_factor : {2u, 3u}) add(crashed, 0.7, r_factor);
  }
  enum Field { kFailure, kService, kAvailability };
  const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
    const double failure = r.lookups.failure_ratio();
    return std::array{failure, 1.0 - failure, r.data_availability()};
  });
  // Replica mean of one field of a cell, summed in replica order.
  const auto mean = [&](std::size_t cell, Field field) {
    std::vector<double> xs;
    for (const auto& run : runs[cell]) xs.push_back(run[field]);
    return exp::mean_of(xs);
  };

  stats::Table table{{"crashed", "p_s=0.4", "p_s=0.7", "p_s=0.9"}};
  for (std::size_t i = 0; i < durability; ++i) {
    const auto& c = cells[i];
    if (i % 3 == 0) table.row().cell(c.crash_fraction, 1);
    const double ratio = mean(i, kFailure);
    table.cell(ratio, 4);
    reporter.metrics().set("failure_ratio.crashed_" +
                               bench::metric_num(c.crash_fraction) + ".ps_" +
                               bench::metric_num(c.hybrid.ps),
                           ratio);
  }
  table.print(std::cout);
  reporter.add_table("fig5b_crash_failure_ratio", table);

  // Durability companion: data availability is the fraction of stored ids
  // some live peer still holds after recovery; service availability is
  // the lookup success ratio.  Expectation: both monotone in r.
  std::printf("\nData durability vs replication factor (p_s = 0.7)\n");
  stats::Table dtable{{"crashed", "avail r=1", "avail r=2", "avail r=3",
                       "service r=1", "service r=2", "service r=3"}};
  for (std::size_t row = 0; row < durability / 3; ++row) {
    // r = 1, 2, 3: the figure's p_s = 0.7 cell, then this row's two.
    const std::size_t r1 = 3 * row + 1;
    const std::size_t rest = durability + 2 * row;
    const std::array by_r{r1, rest, rest + 1};
    dtable.row().cell(cells[r1].crash_fraction, 1);
    for (std::size_t i : by_r) dtable.cell(mean(i, kAvailability), 4);
    for (std::size_t i : by_r) {
      dtable.cell(mean(i, kService), 4);
      const std::string suffix =
          "crashed_" + bench::metric_num(cells[i].crash_fraction) + ".r_" +
          std::to_string(cells[i].hybrid.replication_factor);
      reporter.metrics().set("data_availability." + suffix,
                             mean(i, kAvailability));
      reporter.metrics().set("service_availability." + suffix,
                             mean(i, kService));
    }
  }
  dtable.print(std::cout);
  reporter.add_table("fig5b_crash_durability", dtable);
  return reporter.write() ? 0 : 1;
}
