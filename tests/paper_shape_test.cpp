// Pins the shape of the paper's figures at the benches' default scale
// (400 peers, 1,000 items and lookups, seed 42), on the same cells the
// benches run, so a protocol change that bends a curve fails here.
#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_util.hpp"

namespace hp2p::bench {
namespace {

constexpr Scale kDefaultScale{400, 1000, 1000, 1, 42};

// Fig. 5a: no failures while s-networks are small (p_s = 0.4), and at
// p_s = 0.9 a larger TTL strictly cuts them.  Table 2's TTL order is not
// pinned: TTL 1 currently contacts more peers than TTL 4 at p_s = 0.9.
TEST(PaperShape, Fig5aFailureRatioZeroAtLowPsAndFallingInTtl) {
  const std::vector<double> ps = tenths(0.9);
  const std::vector<unsigned> ttls{1, 2, 4};
  std::vector<exp::RunConfig> cells;
  for (double p : {ps[4], ps[9]}) {
    for (unsigned ttl : ttls) {
      auto& cfg = cells.emplace_back(base_config(kDefaultScale));
      cfg.hybrid.ps = p;
      cfg.hybrid.ttl = ttl;
    }
  }
  const auto runs = sweep(cells, 1, [](const exp::RunResult& r) {
    return r.lookups.failure_ratio();
  });
  for (std::size_t t = 0; t < ttls.size(); ++t) {
    EXPECT_EQ(runs[t][0], 0.0) << "p_s = 0.4, TTL " << ttls[t];
  }
  for (std::size_t t = 1; t < ttls.size(); ++t) {
    EXPECT_LT(runs[3 + t][0], runs[3 + t - 1][0])
        << "p_s = 0.9, TTL " << ttls[t - 1] << " -> " << ttls[t];
  }
}

}  // namespace
}  // namespace hp2p::bench
