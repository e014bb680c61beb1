// Fig. 4a-f: probability density of data items per peer under the two
// data-placement schemes (Section 3.4), for p_s in {0, 0.4, 0.9}.
//
// Scheme 1 ("t-peer stores") concentrates cross-segment items on t-peers:
// as p_s grows, most peers end up empty and a few t-peers hoard hundreds of
// items.  Scheme 2 ("random spread") hands items down the s-network and
// keeps the distribution tight.
#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"

using namespace hp2p;

namespace {

const double kPsValues[] = {0.0, 0.4, 0.9};

/// One row per p_s in kPsValues; runs[i] holds cell i's items-per-peer.
void report_scheme(const bench::Scale& scale,
                   std::span<const std::vector<std::vector<std::size_t>>> runs,
                   const char* label, bench::Reporter& reporter,
                   const char* metric_prefix) {
  stats::Table table{{"p_s", "empty_frac", "p50", "p90", "max",
                      "mean_items"}};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double ps = kPsValues[i];
    stats::CountDistribution dist;  // every replica of the cell pooled
    for (const auto& items_per_peer : runs[i]) {
      for (const auto n : items_per_peer) dist.add(n);
    }
    // Percentiles from the exact integer distribution.
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    for (std::uint64_t v = 0; v <= dist.max_value(); ++v) {
      if (dist.fraction_below(v + 1) >= 0.5 && p50 == 0) p50 = v;
      if (dist.fraction_below(v + 1) >= 0.9 && p90 == 0) p90 = v;
    }
    const double mean =
        static_cast<double>(scale.items) /
        static_cast<double>(scale.peers);
    table.row()
        .cell(ps, 1)
        .cell(dist.fraction_zero(), 3)
        .cell(p50)
        .cell(p90)
        .cell(dist.max_value())
        .cell(mean, 2);
    const std::string base =
        std::string{metric_prefix} + ".ps_" + bench::metric_num(ps);
    reporter.metrics().set(base + ".empty_frac", dist.fraction_zero());
    reporter.metrics().set(base + ".max_items", dist.max_value());
  }
  std::printf("\n--- placement scheme: %s ---\n", label);
  table.print(std::cout);
  reporter.add_table(metric_prefix, table);
}

void print_pdf(const std::vector<std::size_t>& items_per_peer, double ps,
               const char* label) {
  stats::CountDistribution dist;
  for (const auto n : items_per_peer) dist.add(n);
  std::printf("\npdf, %s, p_s=%.1f (bin -> mass):\n", label, ps);
  for (const auto& bin : dist.to_pdf(10)) {
    std::printf("  [%5.0f, %5.0f): %.4f %s\n", bin.lo, bin.hi, bin.mass,
                std::string(static_cast<std::size_t>(bin.mass * 60), '#')
                    .c_str());
  }
}

}  // namespace

int main() {
  const auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig4_data_distribution", scale};
  bench::print_header(
      "Fig. 4 -- pdf of data items per peer, two placement schemes",
      "scheme 1: at p_s=0.9 ~85% of peers empty, hot t-peers hold 100s; "
      "scheme 2: empty fraction collapses (paper: 12%), load evens out",
      scale);

  std::vector<exp::RunConfig> cells;
  for (auto scheme : {hybrid::PlacementScheme::kTPeerStores,
                      hybrid::PlacementScheme::kRandomSpread}) {
    for (double ps : kPsValues) {
      auto& cfg = cells.emplace_back(bench::base_config(scale));
      cfg.hybrid.ps = ps;
      cfg.hybrid.placement = scheme;
      cfg.num_lookups = 0;
    }
  }
  const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
    return r.items_per_peer;
  });
  report_scheme(scale, {runs.data(), 3}, "scheme 1 (t-peer stores)", reporter,
                "scheme1_tpeer_stores");
  report_scheme(scale, {runs.data() + 3, 3}, "scheme 2 (random spread)",
                reporter, "scheme2_random_spread");

  // Full pdfs of replica 0 for the p_s = 0.9 panels (Fig. 4c vs 4f).
  print_pdf(runs[2][0], 0.9, "scheme 1 (Fig. 4c)");
  print_pdf(runs[5][0], 0.9, "scheme 2 (Fig. 4f)");
  return reporter.write() ? 0 : 1;
}
