// perfbench_driver: runs one benchmark workload in this process and prints
// one JSON object (the last stdout line) with every measurement.
//
//   perfbench_driver --workload NAME --seed N [--seconds S] [--trace 0|1]
//                    [--collapsed PATH] [--dump-stream PATH]
//
// Rounds repeat the identical world and op stream until --seconds of host
// time have passed (at least one round).  Host-time metrics are medians over
// rounds (set-up: over separate set-ups taken between rounds); simulated
// metrics come from the first round and every later round must reproduce
// them bit for bit.  With --trace 1 untraced and traced
// rounds alternate, and the traced ones supply the per-layer metrics.
//
// Exit status: 0 on success, 1 when the correctness gate failed (the JSON
// still prints, with "correct": false), 2 on bad arguments or a build
// without NDEBUG.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/proc_stats.hpp"
#include "stats/json.hpp"
#include "util.hpp"
#include "world.hpp"

namespace {

using perfbench::median;
using perfbench::RoundResult;
using Clock = std::chrono::steady_clock;

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench_driver: " << msg << "\n"
            << "usage: perfbench_driver --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--collapsed PATH] "
               "[--dump-stream PATH]\n";
  std::exit(2);
}

/// Whole decimal number with no sign, spaces or trailing characters.
std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v > max) {
    usage_error(flag + ": expected a whole number in [0, " +
                std::to_string(max) + "], got '" + text + "'");
  }
  return v;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string collapsed;
  std::string dump_stream;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_count(flag, value, UINT64_MAX);
      a.have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_count(flag, value, 3600);
    } else if (flag == "--trace") {
      a.trace = parse_count(flag, value, 1) == 1;
    } else if (flag == "--collapsed") {
      a.collapsed = value;
    } else if (flag == "--dump-stream") {
      a.dump_stream = value;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  if (!a.have_seed) usage_error("--seed is required");
  return a;
}

/// Nearest-rank percentile (an observed sample, never interpolated).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

hp2p::stats::JsonValue json_list(const std::vector<double>& v) {
  auto out = hp2p::stats::JsonValue::array();
  for (const double x : v) out.push_back(x);
  return out;
}

double ops_per_s(const RoundResult& r) {
  return ratio(static_cast<double>(r.attempted - r.no_actor), r.window_s);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_driver: refusing to report from a build without "
               "NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif
  const Args args = parse_args(argc, argv);
  perfbench::WorkloadSpec spec;
  if (!perfbench::find_workload(args.workload, spec)) {
    std::string known;
    for (const auto& n : perfbench::workload_names()) known += " " + n;
    usage_error("--workload: unknown workload '" + args.workload +
                "' (known:" + known + ")");
  }
  const perfbench::OpStream stream = perfbench::make_op_stream(spec, args.seed);
  if (!args.dump_stream.empty()) {
    std::ofstream out(args.dump_stream, std::ios::binary | std::ios::trunc);
    out << stream.serialize();
    if (!out.flush()) usage_error("--dump-stream: cannot write '" +
                                  args.dump_stream + "'");
  }
  // The program's own randomness is seeded from the workload seed too.
  const std::uint64_t program_seed = args.seed * 0x9e3779b97f4a7c15ULL + 1;

  // ---- rounds ------------------------------------------------------------
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  constexpr double kHardStopS = 150;  // stay well inside a 180 s budget
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  // Set-up is sampled in batches between rounds, so the samples see the
  // same host conditions as the rounds, and never inside a round: the first
  // construction in a process is cold (page faults on a fresh heap).
  std::vector<double> setups;
  const auto sample_setups = [&] {
    constexpr int kMinBatch = 3;
    constexpr int kMaxBatch = 15;
    constexpr double kBatchS = 0.2;
    double batch = 0;
    for (int k = 0; k < kMaxBatch && (k < kMinBatch || batch < kBatchS); ++k) {
      setups.push_back(perfbench::measure_setup(spec, program_seed));
      batch += setups.back();
    }
  };
  double longest = 0;
  // VmHWM never falls, and repeated worlds fragment the heap: the peak that
  // is reported is the one at the end of the first round.
  double peak_rss_mb = 0;
  for (;;) {
    const bool want_trace =
        args.trace && traced.size() < plain.size();  // alternate, plain first
    perfbench::RoundOptions opts;
    opts.traced = want_trace;
    if (want_trace && traced.empty()) opts.collapsed_path = args.collapsed;
    const double t0 = elapsed();
    (want_trace ? traced : plain)
        .push_back(perfbench::run_round(spec, stream, program_seed, opts));
    if (plain.size() == 1 && traced.empty()) {
      peak_rss_mb = static_cast<double>(hp2p::peak_rss_bytes()) / 1e6;
    }
    sample_setups();
    longest = std::max(longest, elapsed() - t0);
    const bool have_all = !args.trace || !traced.empty();
    if (have_all && elapsed() >= static_cast<double>(args.seconds)) break;
    if (have_all && elapsed() + longest > kHardStopS) break;
  }
  // At least 11 set-up samples, however few rounds fitted.
  while (setups.size() < 11) {
    setups.push_back(perfbench::measure_setup(spec, program_seed));
  }

  const RoundResult& first = plain.front();
  std::vector<std::string> gate = first.gate_errors;
  const auto check_repeat = [&](const RoundResult& r, const char* what) {
    for (const auto& e : r.gate_errors) gate.push_back(std::string(what) + ": " + e);
    if (r.sim_digest != first.sim_digest) {
      gate.push_back(std::string(what) + " sim_digest " + hex(r.sim_digest) +
                     " differs from the first round's " +
                     hex(first.sim_digest));
    }
  };
  for (std::size_t i = 1; i < plain.size(); ++i) check_repeat(plain[i], "repeat round");
  for (const auto& r : traced) check_repeat(r, "traced round");

  std::vector<double> rates;
  std::vector<double> net_setup;
  std::vector<double> refresh;
  for (const auto& r : plain) {
    rates.push_back(ops_per_s(r));
    net_setup.push_back(r.net_setup_ms);
    refresh.push_back(r.refresh_ms);
  }
  const double ops = static_cast<double>(first.attempted - first.no_actor);
  // Failed ops: no eligible actor, a wrong value, a lookup that never
  // completed, or a join that never completed.  A lookup that completes
  // unsuccessfully is an outcome (lookup_success), not a failed op.
  const std::uint64_t joins_stuck = first.joins_issued - first.join_ms.size();
  const std::uint64_t failed = first.no_actor + first.wrong_values +
                               (first.lookups_issued - first.lookups_done) +
                               joins_stuck;

  using hp2p::stats::JsonValue;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  auto e2e = JsonValue::object();
  e2e.set("setup_s", median(setups))
      .set("ops_per_s", median(rates))
      .set("peak_rss_mb", peak_rss_mb)
      .set("lookup_success",
           ratio(count(first.lookups_ok), count(first.lookup_attempts)))
      .set("lookup_p50_ms", percentile(first.lookup_ms, 0.50))
      .set("lookup_p99_ms", percentile(first.lookup_ms, 0.99))
      .set("join_p50_ms", percentile(first.join_ms, 0.50))
      .set("join_p99_ms", percentile(first.join_ms, 0.99))
      .set("msgs_per_op", ratio(count(first.net.messages_sent), ops))
      .set("peers_per_lookup",
           ratio(count(first.contacted), count(first.lookups_done)))
      .set("data_availability",
           ratio(count(first.items_available), count(first.items_stored)));

  auto layers = JsonValue::object();
  if (!traced.empty()) {
    const double events = count(first.sim.events_executed);
    layers.set("sim.events_per_op", ratio(events, ops))
        .set("sim.cancelled_per_op", ratio(count(first.sim.events_cancelled), ops))
        .set("sim.corpses_per_op", ratio(count(first.sim.corpses_skipped), ops))
        .set("sim.ns_per_event", ratio(ops * 1e9, events) / median(rates))
        .set("net.setup_ms", median(net_setup))
        .set("net.routing_mb", count(first.routing_bytes) / 1e6);
    for (std::size_t c = 0; c < hp2p::proto::kNumTrafficClasses; ++c) {
      layers.set(std::string("proto.msgs_per_op.") +
                     hp2p::proto::traffic_class_name(
                         static_cast<hp2p::proto::TrafficClass>(c)),
                 ratio(count(first.net.per_class_messages[c]), ops));
    }
    std::uint64_t drops = 0;
    for (const auto d : first.net.drops_by_reason) drops += d;
    layers.set("proto.bytes_per_op", ratio(count(first.net.bytes_sent), ops))
        .set("proto.drop_ratio", ratio(count(drops), count(first.net.messages_sent)))
        .set("chord.refresh_ms", median(refresh))
        .set("hybrid.cache_hit_ratio",
             ratio(count(first.cache_hits), count(first.lookups_issued)))
        .set("hybrid.bypass_uses", count(first.bypass_uses))
        .set("hybrid.peers_contacted_per_lookup",
             ratio(count(first.contacted), count(first.lookups_done)))
        .set("hybrid.replica_pushes", count(first.replica_pushes))
        .set("hybrid.anti_entropy_repairs", count(first.anti_entropy_repairs))
        .set("hybrid.read_repairs", count(first.read_repairs))
        .set("alloc.per_event", ratio(count(first.allocs), events))
        .set("alloc.bytes_per_op", ratio(count(first.alloc_bytes), ops))
        .set("mem.bytes_per_peer", ratio(count(first.live_bytes), spec.peers));
    for (int p = 0; p < perfbench::kNumPhases; ++p) {
      std::vector<double> wall;
      for (const auto& r : plain) wall.push_back(r.phase_wall_s[p]);
      const std::string base =
          std::string("phase.") + perfbench::phase_name(static_cast<perfbench::Phase>(p));
      layers.set(base + ".wall_s", median(wall))
          .set(base + ".sim_s", first.phase_sim_s[p]);
    }
    std::vector<double> traced_rates;
    for (const auto& r : traced) traced_rates.push_back(ops_per_s(r));
    layers.set("trace.overhead", ratio(median(traced_rates), median(rates)));
    for (const auto& [name, value] : traced.front().layers) layers.set(name, value);
  }

  auto counts = JsonValue::object();
  counts.set("ops_attempted", first.attempted)
      .set("ops_no_actor", first.no_actor)
      .set("lookups_issued", first.lookups_issued)
      .set("lookup_samples", std::uint64_t{first.lookup_ms.size()})
      .set("join_samples", std::uint64_t{first.join_ms.size()})
      .set("joins_stuck", joins_stuck)
      .set("join_retries", first.join_retries)
      .set("degree_cap_excused", first.degree_cap_excused)
      .set("items_stored", first.items_stored)
      .set("events", first.sim.events_executed)
      .set("messages", first.net.messages_sent)
      .set("rounds", std::uint64_t{plain.size()})
      .set("traced_rounds", std::uint64_t{traced.size()})
      .set("setup_samples", std::uint64_t{setups.size()})
      .set("process_peak_rss_mb", count(hp2p::peak_rss_bytes()) / 1e6);

  auto prov = JsonValue::object();
  prov.set("build_type", PERFBENCH_BUILD_TYPE)
      .set("ndebug", true)
      .set("host_threads", std::thread::hardware_concurrency())
      .set("compiler", __VERSION__)
      .set("routing", first.hierarchical ? "hierarchical" : "dense");

  auto gate_json = JsonValue::array();
  for (const auto& e : gate) gate_json.push_back(e);

  auto out = JsonValue::object();
  out.set("workload", spec.name)
      .set("seed", args.seed)
      .set("peers", spec.peers)
      .set("correct", gate.empty())
      .set("attempted", first.attempted)
      .set("failed", failed)
      .set("stream_digest", hex(stream.digest()))
      .set("sim_digest", hex(first.sim_digest))
      .set("traced_sim_digest",
           traced.empty() ? std::string{} : hex(traced.front().sim_digest))
      .set("gate_errors", std::move(gate_json))
      .set("end_to_end", std::move(e2e))
      .set("per_layer", std::move(layers))
      .set("counts", std::move(counts))
      .set("provenance", std::move(prov))
      .set("setup_samples_s", json_list(setups))
      .set("round_ops_per_s", json_list(rates));
  std::cout << out.dump() << std::endl;
  for (const auto& e : gate) std::cerr << "perfbench_driver: gate: " << e << "\n";
  return gate.empty() ? 0 : 1;
}
