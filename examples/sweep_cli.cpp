// sweep_cli: run a custom hybrid-P2P experiment from the command line --
// the "I just want to try a parameter combination" entry point, no C++
// required.
//
//   ./sweep_cli --peers 500 --ps 0.7 --ttl 4 --items 1000 --lookups 1000
//   ./sweep_cli --ps 0.8 --placement 1            # paper's scheme 1
//   ./sweep_cli --ps 0.9 --style bt               # tracker s-networks
//   ./sweep_cli --ps 0.6 --routing finger --crash 0.2
//
// Prints one row of every metric the paper reports, plus a CSV line for
// scripting.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "exp/harness.hpp"

using namespace hp2p;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --peers N        total peers (default 400)\n"
      "  --ps X           fraction of s-peers in [0,1] (default 0.5)\n"
      "  --delta N        s-network degree cap (default 3)\n"
      "  --ttl N          flood radius (default 4)\n"
      "  --items N        stored items (default 1000)\n"
      "  --lookups N      lookups (default 1000)\n"
      "  --seed N         RNG seed (default 42)\n"
      "  --placement 1|2  data placement scheme (default 2)\n"
      "  --style tree|star|mesh|bt   s-network topology (default tree)\n"
      "  --routing ring|finger       t-network routing (default ring)\n"
      "  --search flood|walk         s-network search (default flood)\n"
      "  --crash X        crash this fraction before the lookups\n"
      "  --hetero         model access-link transmission delays\n"
      "  --capacity-roles fast hosts become t-peers (Section 5.1)\n"
      "  --topology-aware landmark-binned s-networks (Section 5.2)\n"
      "  --interest       interest-based s-networks + 90%% local ops\n"
      "  --bypass         bypass links (Section 5.4)\n"
      "  --caching        Section 7 caching scheme\n"
      "  --zipf X         Zipf exponent for lookup popularity\n",
      argv0);
}

bool parse_double(const char* s, double& out) {
  if (s == nullptr) return false;
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

/// Matches `s` against `names`; the index of the match, or -1.  Callers
/// list the names in their enum's declaration order, so the index casts.
int parse_choice(const char* s, std::initializer_list<const char*> names) {
  int i = 0;
  for (const char* name : names) {
    if (s != nullptr && std::strcmp(s, name) == 0) return i;
    ++i;
  }
  return -1;
}

/// Digits only: strtoull alone would accept "-3" and wrap it to 2^64 - 3.
bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return *end == '\0' && errno != ERANGE;
}

}  // namespace

int main(int argc, char** argv) {
  exp::RunConfig cfg;
  cfg.num_peers = 400;
  cfg.num_items = 1000;
  cfg.num_lookups = 1000;
  cfg.seed = 42;
  cfg.hybrid.ttl = 4;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t u = 0;
    double d = 0;
    int k = 0;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--peers" && parse_u64(next(), u) &&
               u <= 0xffffffffu) {
      cfg.num_peers = static_cast<std::uint32_t>(u);
    } else if (arg == "--ps" && parse_double(next(), d)) {
      cfg.hybrid.ps = d;
    } else if (arg == "--delta" && parse_u64(next(), u)) {
      cfg.hybrid.delta = static_cast<unsigned>(u);
    } else if (arg == "--ttl" && parse_u64(next(), u)) {
      cfg.hybrid.ttl = static_cast<unsigned>(u);
    } else if (arg == "--items" && parse_u64(next(), u)) {
      cfg.num_items = u;
    } else if (arg == "--lookups" && parse_u64(next(), u)) {
      cfg.num_lookups = u;
    } else if (arg == "--seed" && parse_u64(next(), u)) {
      cfg.seed = u;
    } else if (arg == "--placement" &&
               (k = parse_choice(next(), {"1", "2"})) >= 0) {
      cfg.hybrid.placement = static_cast<hybrid::PlacementScheme>(k);
    } else if (arg == "--style" &&
               (k = parse_choice(next(), {"tree", "star", "mesh", "bt"})) >=
                   0) {
      cfg.hybrid.style = static_cast<hybrid::SNetworkStyle>(k);
    } else if (arg == "--routing" &&
               (k = parse_choice(next(), {"ring", "finger"})) >= 0) {
      cfg.hybrid.t_routing = static_cast<hybrid::TRouting>(k);
    } else if (arg == "--search" &&
               (k = parse_choice(next(), {"flood", "walk"})) >= 0) {
      cfg.hybrid.s_search = static_cast<hybrid::SSearch>(k);
    } else if (arg == "--crash" && parse_double(next(), d)) {
      cfg.crash_fraction = d;
    } else if (arg == "--hetero") {
      cfg.model_transmission_delay = true;
    } else if (arg == "--capacity-roles") {
      cfg.capacity_sorted_roles = true;
      cfg.hybrid.link_usage_connect = true;
      cfg.model_transmission_delay = true;
    } else if (arg == "--topology-aware") {
      cfg.hybrid.topology_aware = true;
    } else if (arg == "--interest") {
      cfg.hybrid.interest_based = true;
      cfg.interest_locality = 0.9;
      cfg.tpeers_first = true;
    } else if (arg == "--bypass") {
      cfg.hybrid.bypass_links = true;
    } else if (arg == "--caching") {
      cfg.hybrid.enable_caching = true;
    } else if (arg == "--zipf" && parse_double(next(), d)) {
      cfg.zipf_exponent = d;
    } else {
      std::fprintf(stderr, "unknown/invalid option: %s\n", arg.c_str());
      usage(argv[0]);
      return 1;
    }
  }

  std::printf("running: %u peers, ps=%.2f, delta=%u, ttl=%u, %zu items, "
              "%zu lookups, seed %llu\n",
              cfg.num_peers, cfg.hybrid.ps, cfg.hybrid.delta, cfg.hybrid.ttl,
              cfg.num_items, cfg.num_lookups,
              static_cast<unsigned long long>(cfg.seed));
  exp::RunResult r;
  try {
    r = exp::run_hybrid_experiment(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sweep_cli: %s\n", e.what());
    return 2;
  }

  std::printf("\n  joins completed      %zu (mean %.1f ms, %.1f hops)\n",
              r.joins_completed, r.join_latency_ms.mean(),
              r.join_hops.mean());
  std::printf("  t-peers / s-peers    %zu / %zu\n", r.num_tpeers,
              r.num_speers);
  std::printf("  lookups              %llu issued, %llu ok, %llu failed "
              "(ratio %.4f)\n",
              static_cast<unsigned long long>(r.lookups.issued),
              static_cast<unsigned long long>(r.lookups.succeeded),
              static_cast<unsigned long long>(r.lookups.failed),
              r.lookups.failure_ratio());
  std::printf("  lookup latency       %.1f ms mean (min %.1f, max %.1f)\n",
              r.lookup_latency_ms.mean(), r.lookup_latency_ms.min(),
              r.lookup_latency_ms.max());
  std::printf("  lookup hops          %.1f mean\n", r.lookup_hops.mean());
  std::printf("  connum               %llu total (%.1f per lookup)\n",
              static_cast<unsigned long long>(r.connum()),
              static_cast<double>(r.connum()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      r.lookups.issued, 1)));
  std::printf("  messages / bytes     %llu / %.1f KiB\n",
              static_cast<unsigned long long>(r.network.messages_sent),
              static_cast<double>(r.network.bytes_sent) / 1024.0);
  if (r.bypass_uses > 0) {
    std::printf("  bypass installs/uses %llu / %llu\n",
                static_cast<unsigned long long>(r.bypass_installs),
                static_cast<unsigned long long>(r.bypass_uses));
  }
  if (r.cache_hits > 0) {
    std::printf("  cache hits           %llu (hottest peer served %llu)\n",
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.max_answers_served));
  }
  std::printf("\ncsv: ps,ttl,failure,latency_ms,connum,messages\n");
  std::printf("csv: %.2f,%u,%.4f,%.1f,%llu,%llu\n", cfg.hybrid.ps,
              cfg.hybrid.ttl, r.lookups.failure_ratio(),
              r.lookup_latency_ms.mean(),
              static_cast<unsigned long long>(r.connum()),
              static_cast<unsigned long long>(r.network.messages_sent));
  return 0;
}
