// Ablation studies, one design choice the paper argues in prose each, all
// runs through one bench::sweep().  `ablations` runs every study in name
// order, `ablations <study>` one; each writes BENCH_ablation_<study>.json.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/table.hpp"

using namespace hp2p;

namespace {

/// One configuration a study compares.
struct Variant {
  std::string label;  // first cell of the variant's row
  std::string key;    // prefix of the run's full metric export ("": none)
  std::function<void(exp::RunConfig&)> edit;
};

/// One variant's run, as a study's writer sees it.
struct Run {
  const Variant& variant;
  const exp::RunConfig& config;
  const exp::RunResult& result;
};

struct Study {
  const char* name;
  const char* title;
  const char* claim;
  void (*tweak)(bench::Scale&);   // scale edits, may be null
  void (*base)(exp::RunConfig&);  // edits shared by every variant
  std::vector<Variant> variants;
  std::vector<std::string> columns;
  /// Appends the table rows (and extra metrics) of the runs, in order.
  void (*write)(std::span<const Run>, stats::Table&, stats::MetricsRegistry&);
  const char* note = nullptr;  // printed after the table
};

double contacted_per_lookup(const exp::RunResult& r) {
  return static_cast<double>(r.connum()) /
         static_cast<double>(r.lookups.issued);
}

std::uint64_t query_msgs(const exp::RunResult& r) {
  return r.network.class_messages(proto::TrafficClass::kQuery);
}

/// (ring, finger) variant pairs, one pair per p_s.
std::vector<Variant> routing_variants() {
  std::vector<Variant> out;
  for (double ps : {0.0, 0.3, 0.6, 0.9}) {
    for (auto mode : {hybrid::TRouting::kRing, hybrid::TRouting::kFinger}) {
      out.push_back({"", "", [ps, mode](exp::RunConfig& c) {
                       c.hybrid.ps = ps;
                       c.hybrid.t_routing = mode;
                     }});
    }
  }
  return out;
}

std::vector<Study> studies() {
  using hybrid::SNetworkStyle;
  using hybrid::TRouting;
  return {
      // Section 5.5: a tracker answers each lookup with the exact holder --
      // no flooding, no TTL misses -- at the price of tracker state.
      {"bittorrent",
       "Ablation -- Gnutella-style flooding vs BitTorrent-style trackers",
       "tracker mode: near-zero failure, O(1) contacts per lookup, no "
       "flooding traffic",
       nullptr,
       [](auto& c) {
         c.hybrid.ps = 0.9;
         c.hybrid.ttl = 2;
       },
       {{"flooding tree, TTL=2", "tree_ttl2", [](auto&) {}},
        {"flooding tree, TTL=6", "tree_ttl6",
         [](auto& c) { c.hybrid.ttl = 6; }},
        {"tracker (BitTorrent)", "tracker",
         [](auto& c) { c.hybrid.style = SNetworkStyle::kBitTorrent; }}},
       {"style", "latency_ms", "failure", "contacted_per_lookup", "query_msgs"},
       [](auto runs, auto& t, auto&) {
         for (const auto& [v, c, r] : runs) {
           t.row().cell(v.label).cell(r.lookup_latency_ms.mean(), 1);
           t.cell(r.lookups.failure_ratio(), 4);
           t.cell(contacted_per_lookup(r), 2).cell(query_msgs(r));
         }
       }},
      // Section 5.4: bypass links shortcut repeat cross-s-network fetches.
      // They are per-peer caches (at most delta each), so a small fixed
      // origin pool fetches Zipf-1.3 targets, paced so a link installs
      // before its repeat; a short lifetime frees cold links' budget.
      {"bypass_links", "Ablation -- bypass links on/off",
       "bypass links divert repeat cross-network traffic off the t-network "
       "(Section 5.4)",
       [](bench::Scale& s) {  // each key looked up about twice
         s.lookups = std::max<std::size_t>(s.lookups, 2 * s.items);
       },
       [](auto& c) {
         c.hybrid.ps = 0.8;
         c.hybrid.ttl = 6;
         c.num_items = std::min<std::size_t>(c.num_items, 500);
         c.lookup_origin_pool = 8;
         c.zipf_exponent = 1.3;
         c.hybrid.bypass_lifetime = sim::SimTime::seconds(5);
         c.op_spacing = sim::SimTime::millis(50);
       },
       {{"off", "bypass_off", [](auto&) {}},
        {"on", "bypass_on", [](auto& c) { c.hybrid.bypass_links = true; }}},
       {"bypass", "latency_ms", "contacted_per_lookup", "query_msgs",
        "bypass_uses", "failure"},
       [](auto runs, auto& t, auto&) {
         for (const auto& [v, c, r] : runs) {
           t.row().cell(v.label).cell(r.lookup_latency_ms.mean(), 1);
           t.cell(contacted_per_lookup(r), 2).cell(query_msgs(r));
           t.cell(r.bypass_uses).cell(r.lookups.failure_ratio(), 4);
         }
       }},
      // Section 7: every successful requester of a hot item becomes a
      // surrogate, so the host stops answering every request.  A hot
      // catalogue, paced so caches are warm when repeats arrive.
      {"caching",
       "Ablation -- Section 7 caching scheme on/off (Zipf-1.2 workload)",
       "caching spreads a popular item's load across surrogate peers: the "
       "hottest peer answers far fewer requests",
       [](bench::Scale& s) { s.items = std::min<std::size_t>(s.items, 200); },
       [](auto& c) {
         c.hybrid.ps = 0.7;
         c.hybrid.ttl = 6;
         c.hybrid.cache_capacity = 8;
         c.zipf_exponent = 1.2;
         c.op_spacing = sim::SimTime::millis(50);
       },
       {{"off", "caching_off", [](auto&) {}},
        {"on", "caching_on", [](auto& c) { c.hybrid.enable_caching = true; }}},
       {"caching", "max_peer_load", "cache_hits", "latency_ms",
        "contacted_per_lookup"},
       [](auto runs, auto& t, auto&) {
         for (const auto& [v, c, r] : runs) {
           t.row().cell(v.label).cell(r.max_answers_served).cell(r.cache_hits);
           t.cell(r.lookup_latency_ms.mean(), 1);
           t.cell(contacted_per_lookup(r), 2);
         }
       }},
      // Section 4.1: ring forwarding walks ~N_t/2 hops (the paper's Table 2
      // magnitudes), finger tables ~log N_t.  One row per (ring, finger).
      {"finger_routing",
       "Ablation -- t-network routing: ring vs finger tables",
       "ring walk ~ N_t/2 hops; fingers ~ log2 N_t; gap collapses as p_s "
       "shrinks the ring",
       nullptr, [](auto& c) { c.hybrid.ttl = 6; }, routing_variants(),
       {"p_s", "ring_hops", "finger_hops", "ring_connum", "finger_connum"},
       [](auto runs, auto& t, auto& m) {
         for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
           const double ps = runs[i].config.hybrid.ps;
           const exp::RunResult& ring = runs[i].result;
           const exp::RunResult& finger = runs[i + 1].result;
           t.row().cell(ps, 1).cell(ring.lookup_hops.mean(), 1);
           t.cell(finger.lookup_hops.mean(), 1);
           t.cell(ring.connum()).cell(finger.connum());
           const std::string base = "ps_" + bench::metric_num(ps);
           m.set(base + ".ring_hops", ring.lookup_hops.mean());
           m.set(base + ".finger_hops", finger.lookup_hops.mean());
           m.set(base + ".ring_connum", ring.connum());
           m.set(base + ".finger_connum", finger.connum());
         }
       }},
      // Section 5.3: interest-based s-networks keep an interest-local
      // workload inside the issuer's s-network; random assignment cannot.
      // The t-network is admitted first so interest anchors stay owned by
      // the s-network their community joined (see DESIGN.md).
      {"interest", "Ablation -- interest-based s-networks vs random assignment",
       "interest grouping keeps lookups local: fewer hops, fewer peers "
       "disturbed, less ring traffic",
       nullptr,
       [](auto& c) {
         c.hybrid.ps = 0.85;
         c.hybrid.ttl = 10;
         c.hybrid.num_interests = 8;
         c.tpeers_first = true;
         c.interest_locality = 0.9;
       },
       {{"random, uniform ops", "random_uniform",
         [](auto& c) { c.interest_locality = 0.0; }},
        {"random, local ops", "random_local", [](auto&) {}},
        {"interest, local ops", "interest_local",
         [](auto& c) { c.hybrid.interest_based = true; }}},
       {"assignment", "locality", "latency_ms", "contacted_per_lookup",
        "ring+flood_query_msgs"},
       [](auto runs, auto& t, auto&) {
         for (const auto& [v, c, r] : runs) {
           t.row().cell(v.label).cell(c.interest_locality, 1);
           t.cell(r.lookup_latency_ms.mean(), 1);
           t.cell(contacted_per_lookup(r), 2).cell(query_msgs(r));
         }
       }},
      // Section 5.2's motivating metric: overlay message copies per
      // physical link.  HELLO/ack maintenance is intra-s-network traffic,
      // what clustering localizes, so detectors run before the lookups.
      {"link_stress",
       "Ablation -- physical link stress, topology awareness on/off",
       "clustered s-networks keep flood/cp-chain traffic off the transit "
       "core",
       nullptr,
       [](auto& c) {
         c.hybrid.ps = 0.8;
         c.hybrid.ttl = 6;
         c.hybrid.t_routing = TRouting::kFinger;
         c.hybrid.num_landmarks = 8;
         c.track_link_stress = true;
         c.failure_detection = true;
         c.recovery_time = sim::SimTime::seconds(60);
       },
       {{"basic", "basic", [](auto&) {}},
        {"topology aware (8 landmarks)", "aware",
         [](auto& c) { c.hybrid.topology_aware = true; }}},
       {"config", "max_link_stress", "mean_link_stress", "lookup_ms"},
       [](auto runs, auto& t, auto&) {
         for (const auto& [v, c, r] : runs) {
           t.row().cell(v.label).cell(r.max_link_stress);
           t.cell(r.mean_link_stress, 1).cell(r.lookup_latency_ms.mean(), 1);
         }
       }},
      // Section 3.2.2's case for trees: a star overloads its root, a mesh
      // delivers duplicate query copies, a degree-capped tree delivers each
      // flooded query once.  Big s-networks and a short (finger) ring so
      // the s-network topology is what is measured.
      {"snetwork_topology",
       "Ablation -- s-network topology: tree vs star vs mesh",
       "tree: no duplicate query copies; star: shortest floods but maximal "
       "root degree; mesh: duplicates waste bandwidth",
       nullptr,
       [](auto& c) {
         c.hybrid.ps = 0.9;
         c.hybrid.ttl = 6;
         c.hybrid.t_routing = TRouting::kFinger;
       },
       {{"tree (paper)", "tree", [](auto&) {}},
        {"star", "star",
         [](auto& c) { c.hybrid.style = SNetworkStyle::kStar; }},
        {"mesh", "mesh",
         [](auto& c) { c.hybrid.style = SNetworkStyle::kMesh; }}},
       {"style", "latency_ms", "failure", "query_msgs", "contacted",
        "dup_ratio", "max_degree"},
       [](auto runs, auto& t, auto& m) {
         for (const auto& [v, c, r] : runs) {
           const double queries = static_cast<double>(query_msgs(r));
           const double contacted = static_cast<double>(r.connum());
           const double dup_ratio = contacted > 0 ? queries / contacted : 0.0;
           t.row().cell(v.label).cell(r.lookup_latency_ms.mean(), 1);
           t.cell(r.lookups.failure_ratio(), 4);
           t.cell(static_cast<std::uint64_t>(queries));
           t.cell(static_cast<std::uint64_t>(contacted)).cell(dup_ratio, 2);
           t.cell(static_cast<std::uint64_t>(r.max_tree_degree));
           m.set(v.key + ".dup_ratio", dup_ratio);
         }
       },
       "dup_ratio = query messages per distinct peer contacted (the tree "
       "stays near 1,\nthe mesh pays for redundancy); max_degree is the load "
       "the busiest peer carries\n(the star's root serves its whole "
       "s-network).\n"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Study> selected = studies();
  if (argc > 1) {
    const std::string wanted = argv[1];
    std::erase_if(selected, [&](const Study& s) { return s.name != wanted; });
    if (argc > 2 || selected.empty()) {
      std::fprintf(stderr, "error: usage: ablations [study]; studies:");
      for (const Study& s : studies()) std::fprintf(stderr, " %s", s.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  const bench::Scale env_scale = bench::scale_from_env();
  std::vector<bench::Scale> scales;
  std::vector<exp::RunConfig> cells;
  for (const Study& study : selected) {
    bench::Scale& scale = scales.emplace_back(env_scale);
    if (study.tweak != nullptr) study.tweak(scale);
    for (const Variant& v : study.variants) {
      exp::RunConfig& cfg = cells.emplace_back(bench::base_config(scale));
      study.base(cfg);
      v.edit(cfg);
    }
  }
  const auto results = bench::sweep(cells, 1, [](const auto& r) { return r; });

  int status = 0;
  std::size_t cell = 0;
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const Study& study = selected[s];
    const std::string name = std::string{"ablation_"} + study.name;
    bench::Reporter reporter{name, scales[s]};
    bench::print_header(study.title, study.claim, scales[s]);
    std::vector<Run> runs;
    for (const Variant& v : study.variants) {
      const exp::RunResult& r = results[cell][0];
      runs.push_back({v, cells[cell++], r});
      if (!v.key.empty()) exp::collect_run_result(reporter.metrics(), v.key, r);
    }
    stats::Table table{study.columns};
    study.write(runs, table, reporter.metrics());
    table.print(std::cout);
    reporter.add_table(name, table);
    if (study.note != nullptr) std::printf("%s", study.note);
    if (!reporter.write()) status = 1;
  }
  return status;
}
