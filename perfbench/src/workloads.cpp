#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_set>

#include "common/hashing.hpp"
#include "common/ids.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

using hp2p::hybrid::TRouting;

/// splitmix64: the benchmark's own generator, so the op stream stays a
/// function of the seed even if the program's Rng changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0 (multiply-shift; bias is far below 2^-32).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Inverse-CDF Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(SplitMix& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

WorkloadSpec lookup_flood() {
  WorkloadSpec w;
  w.name = "lookup_flood";
  w.peers = 20'000;
  w.params.ps = 0.99;
  w.params.ttl = 8;  // delta = 3 trees of ~100 s-peers need radius 8
  w.params.t_routing = TRouting::kFinger;
  w.tpeers_first = true;
  w.load_stores = 2'000;
  w.main_lookups = 100'000;
  return w;
}

WorkloadSpec ring_cached() {
  WorkloadSpec w;
  w.name = "ring_cached";
  w.peers = 1'000;
  w.params.ps = 0.7;
  w.params.ttl = 6;
  w.params.t_routing = TRouting::kRing;
  w.params.placement = hp2p::hybrid::PlacementScheme::kRandomSpread;
  w.params.enable_caching = true;
  w.params.bypass_links = true;
  w.load_stores = 1'000;
  // 4k lookups: at 2k, lookup p50 spread ~15% between seeds.
  w.main_lookups = 4'000;
  w.main_stores = 1'000;
  w.zipf = 0.8;
  return w;
}

WorkloadSpec churn_heal() {
  WorkloadSpec w;
  w.name = "churn_heal";
  w.peers = 5'000;
  w.params.ps = 0.9;
  w.params.t_routing = TRouting::kFinger;
  w.params.replication_factor = 2;
  w.tpeers_first = true;
  w.heartbeats = true;
  w.load_stores = 2'000;
  w.main_lookups = 2'000;
  w.main_window_us = 120'000'000;
  // One membership event every 2 s: 20 crashes, 10 leaves, 30 joins.
  w.churn_spacing_us = 2'000'000;
  w.join_retry_us = 20'000'000;
  w.finger_refresh_us = 20'000'000;
  w.settle_us = 45'000'000;
  return w;
}

/// Not a benchmark workload: churn_heal with its churn in six concurrent
/// batches of 40 crashes, 20 leaves and 60 joins.  It reproduces the
/// program defects that churn_heal's one-at-a-time events stay clear of
/// (see perfbench/README.md).
WorkloadSpec churn_batch() {
  WorkloadSpec w = churn_heal();
  w.name = "churn_batch";
  w.main_window_us = 60'000'000;
  w.churn_spacing_us = 10'000'000;
  w.churn_burst = 120;
  return w;
}

/// The membership event sequence of a churn window, repeated.
constexpr Op::Kind kChurnCycle[] = {Op::Kind::kCrash, Op::Kind::kJoin,
                                    Op::Kind::kLeave, Op::Kind::kJoin,
                                    Op::Kind::kCrash, Op::Kind::kJoin};

/// Ring-mode walks cross ~N_t/2 t-peers at up to ~250 ms a hop; a fixed
/// deadline would turn long walks into false failures.
void fit_lookup_timeout(WorkloadSpec& w) {
  const auto n_t = static_cast<std::int64_t>(
      std::lround((1.0 - w.params.ps) * w.peers));
  const auto bound = hp2p::sim::SimTime::millis(n_t * 250 + 15'000);
  if (w.params.t_routing == TRouting::kRing &&
      w.params.lookup_timeout < bound) {
    w.params.lookup_timeout = bound;
  }
}

}  // namespace

std::uint32_t WorkloadSpec::fresh_joins() const {
  std::uint32_t n = 0;
  for (std::uint32_t k = 0; k < churn_events(); ++k) {
    n += kChurnCycle[k % std::size(kChurnCycle)] == Op::Kind::kJoin ? 1 : 0;
  }
  return n;
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kBuild: return "build";
    case Phase::kLoad: return "load";
    case Phase::kMain: return "main";
    case Phase::kSettle: return "settle";
  }
  return "unknown";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"lookup_flood", "ring_cached",
                                              "churn_heal"};
  return names;
}

bool find_workload(std::string_view name, WorkloadSpec& out) {
  if (name == "lookup_flood") {
    out = lookup_flood();
  } else if (name == "ring_cached") {
    out = ring_cached();
  } else if (name == "churn_heal") {
    out = churn_heal();
  } else if (name == "churn_batch") {
    out = churn_batch();
  } else {
    return false;
  }
  fit_lookup_timeout(out);
  return true;
}

OpStream make_op_stream(const WorkloadSpec& w, std::uint64_t seed) {
  // Independent sub-streams, so e.g. a different item count never shifts
  // the actor draws.
  SplitMix root{seed ^ 0x70657266'62656e63ULL};
  SplitMix role_rng{root.next()};
  SplitMix item_rng{root.next()};
  SplitMix pick_rng{root.next()};
  SplitMix target_rng{root.next()};

  OpStream s;
  const std::uint32_t n_items = w.load_stores + w.main_stores;
  s.items.reserve(n_items);
  std::unordered_set<std::uint64_t> used;
  while (s.items.size() < n_items) {
    Item it;
    it.id = item_rng.next() & (hp2p::kRingSize - 1);
    if (!used.insert(it.id).second) continue;
    it.value = item_rng.next();
    it.key = "pb-" + std::to_string(s.items.size());
    s.items.push_back(std::move(it));
  }

  // ---- build: exactly round((1 - ps) n) t-peers, the first always one.
  const auto n_t = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(std::lround((1.0 - w.params.ps) * w.peers)),
      1, w.peers);
  std::vector<bool> is_t(w.peers, false);
  for (std::uint32_t i = 0; i < n_t; ++i) is_t[i] = true;
  if (!w.tpeers_first) {
    for (std::uint32_t i = w.peers - 1; i > 1; --i) {  // keep slot 0
      const auto j = 1 + static_cast<std::uint32_t>(role_rng.below(i));
      const bool tmp = is_t[i];
      is_t[i] = is_t[j];
      is_t[j] = tmp;
    }
  }
  // t-peers-first builds issue the s-peers in a second sub-phase whose
  // clock restarts at 0 once the t-network has drained.
  std::int64_t slot = 0;
  for (std::uint32_t i = 0; i < w.peers; ++i) {
    Op op;
    if (w.tpeers_first && i == n_t) {
      slot = 0;
      op.barrier = true;
    }
    op.kind = Op::Kind::kJoin;
    op.tpeer = is_t[i];
    op.at_us = slot++ * w.join_spacing_us;
    s.ops.push_back(op);
  }

  // ---- load: stores of the first load_stores items.
  s.phase_begin[1] = static_cast<std::uint32_t>(s.ops.size());
  for (std::uint32_t i = 0; i < w.load_stores; ++i) {
    Op op;
    op.kind = Op::Kind::kStore;
    op.item = i;
    op.pick = pick_rng.next();
    op.at_us = i * w.op_spacing_us;
    s.ops.push_back(op);
  }

  // ---- main.
  s.phase_begin[2] = static_cast<std::uint32_t>(s.ops.size());
  // Popularity order over the loaded items is itself random, so the Zipf
  // head is not tied to store order.
  std::vector<std::uint32_t> rank_to_item(w.load_stores);
  for (std::uint32_t i = 0; i < w.load_stores; ++i) rank_to_item[i] = i;
  for (std::uint32_t i = w.load_stores; i > 1; --i) {
    std::swap(rank_to_item[i - 1],
              rank_to_item[static_cast<std::size_t>(target_rng.below(i))]);
  }
  const Zipf zipf{w.zipf > 0 ? w.load_stores : 1, w.zipf > 0 ? w.zipf : 1.0};
  const auto lookup_target = [&]() -> std::uint32_t {
    if (w.zipf > 0) return rank_to_item[zipf.sample(target_rng)];
    return static_cast<std::uint32_t>(target_rng.below(w.load_stores));
  };

  std::vector<Op> main;
  if (!w.heartbeats) {
    // Lookups and new-item stores share one fixed-rate slot sequence, the
    // stores spread evenly among the lookups.
    const std::uint64_t total = w.main_lookups + w.main_stores;
    std::uint32_t stored = 0;
    for (std::uint64_t k = 0; k < total; ++k) {
      Op op;
      op.at_us = static_cast<std::int64_t>(k) * w.op_spacing_us;
      op.pick = pick_rng.next();
      if ((k + 1) * w.main_stores / total > k * w.main_stores / total) {
        op.kind = Op::Kind::kStore;
        op.item = w.load_stores + stored++;
      } else {
        op.kind = Op::Kind::kLookup;
        op.item = lookup_target();
      }
      main.push_back(op);
    }
  } else {
    // Membership events from the middle of each spacing slot on; lookups
    // at a constant low rate throughout.
    for (std::uint32_t k = 0; k < w.churn_events(); ++k) {
      Op op;
      op.kind = kChurnCycle[k % std::size(kChurnCycle)];
      op.at_us = (k / w.churn_burst) * w.churn_spacing_us +
                 w.churn_spacing_us / 2 + (k % w.churn_burst) * 1'000;
      if (op.kind == Op::Kind::kJoin) {
        op.tpeer = role_rng.unit() < 1.0 - w.params.ps;
      } else {
        op.pick = pick_rng.next();
      }
      main.push_back(op);
    }
    for (std::uint32_t k = 0; k < w.main_lookups; ++k) {
      Op op;
      op.kind = Op::Kind::kLookup;
      op.at_us = w.main_window_us * k / w.main_lookups;
      op.item = lookup_target();
      op.pick = pick_rng.next();
      main.push_back(op);
    }
    std::stable_sort(main.begin(), main.end(),
                     [](const Op& a, const Op& b) { return a.at_us < b.at_us; });
  }
  s.ops.insert(s.ops.end(), main.begin(), main.end());
  s.phase_begin[3] = static_cast<std::uint32_t>(s.ops.size());
  s.phase_begin[4] = s.phase_begin[3];  // settle issues no ops
  return s;
}

std::string OpStream::serialize() const {
  std::string out;
  out.reserve(items.size() * 32 + ops.size() * 32);
  append_u64(out, items.size());
  for (const Item& it : items) {
    append_u64(out, it.id);
    append_u64(out, it.value);
    append_u64(out, it.key.size());
    out += it.key;
  }
  append_u64(out, ops.size());
  for (const Op& op : ops) {
    append_u64(out, static_cast<std::uint64_t>(op.at_us));
    append_u64(out, (static_cast<std::uint64_t>(op.kind) << 8) |
                        (op.barrier ? 2U : 0U) | (op.tpeer ? 1U : 0U));
    append_u64(out, op.item);
    append_u64(out, op.pick);
  }
  for (const std::uint32_t b : phase_begin) append_u64(out, b);
  return out;
}

std::uint64_t OpStream::digest() const {
  return hp2p::fnv1a64(serialize());
}

}  // namespace perfbench
