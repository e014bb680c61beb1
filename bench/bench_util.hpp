// Shared helpers for the figure/table bench binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/env.hpp"
#include "exp/baselines.hpp"
#include "exp/harness.hpp"
#include "exp/world.hpp"
#include "stats/json.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

namespace hp2p::bench {

/// Experiment scale, overridable from the environment so the same binaries
/// serve both a quick smoke pass and a paper-scale run:
///   HP2P_PEERS=1000 HP2P_ITEMS=5000 HP2P_LOOKUPS=5000 HP2P_REPLICAS=3
struct Scale {
  std::uint32_t peers;
  std::size_t items;
  std::size_t lookups;
  std::size_t replicas;
  std::uint64_t seed;
};

/// A bad knob (unparsable, negative, out of range) exits with status 2 and
/// a message naming the variable.
[[nodiscard]] inline Scale scale_from_env() {
  constexpr std::uint64_t kMaxCount = 0xffffffffu;
  try {
    Scale s{};
    s.peers = static_cast<std::uint32_t>(
        env_count("HP2P_PEERS", 400, exp::kMaxPeers));
    s.items =
        static_cast<std::size_t>(env_count("HP2P_ITEMS", 1000, kMaxCount));
    s.lookups =
        static_cast<std::size_t>(env_count("HP2P_LOOKUPS", 1000, kMaxCount));
    s.replicas =
        static_cast<std::size_t>(env_count("HP2P_REPLICAS", 1, kMaxCount));
    if (s.replicas == 0) {
      throw std::invalid_argument{"HP2P_REPLICAS=0: expected at least 1"};
    }
    s.seed = static_cast<std::uint64_t>(env_or("HP2P_SEED", std::int64_t{42}));
    return s;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

/// HP2P_TRACE=1 turns on causal tracing + gauge sampling in the benches
/// that support it (the run additionally writes TRACE_<name>.json).
[[nodiscard]] inline bool trace_from_env() {
  return env_or("HP2P_TRACE", std::int64_t{0}) != 0;
}

/// HP2P_PROFILE=1 attaches a stats::Profiler to the benches that support it:
/// the report gains a `profile` section and the run writes a collapsed-stack
/// file (PROFILE_<name>.collapsed) for flamegraph.pl / speedscope.
[[nodiscard]] inline bool profile_from_env() {
  return env_or("HP2P_PROFILE", std::int64_t{0}) != 0;
}

[[nodiscard]] inline exp::RunConfig base_config(const Scale& s) {
  exp::RunConfig c;
  c.seed = s.seed;
  c.num_peers = s.peers;
  c.num_items = s.items;
  c.num_lookups = s.lookups;
  c.hybrid.delta = 3;  // as in the paper's simulations
  return c;
}

/// The grid 0, 0.1, ..., `last` (p_s, crash fraction), built by repeated
/// `x += 0.1` so every value is bit-identical across the benches.
[[nodiscard]] inline std::vector<double> tenths(double last) {
  std::vector<double> xs;
  for (double x = 0.0; x <= last + 0.001; x += 0.1) xs.push_back(x);
  return xs;
}

/// What a sweep cell can run: the hybrid harness or a pure baseline.
inline exp::RunResult run(const exp::RunConfig& c) {
  return exp::run_hybrid_experiment(c);
}
inline exp::RunResult run(const exp::ChordRunConfig& c) {
  return exp::run_chord_experiment(c);
}
inline exp::RunResult run(const exp::GnutellaRunConfig& c) {
  return exp::run_gnutella_experiment(c);
}

/// Observers are per-run state that a second thread would race on; only
/// the hybrid harness takes them.
inline bool observed(const exp::RunConfig& c) {
  return c.tracer != nullptr || c.profiler != nullptr || c.flight != nullptr;
}
inline bool observed(const auto&) { return false; }

template <typename T>
inline constexpr bool kIsVariant = false;
template <typename... Ts>
inline constexpr bool kIsVariant<std::variant<Ts...>> = true;

/// Applies `fn` to the runner config a cell holds: the cell itself, or the
/// alternative a std::variant of configs holds.
template <typename Cell, typename Fn>
decltype(auto) on_config(Cell& cell, Fn fn) {
  if constexpr (kIsVariant<std::remove_const_t<Cell>>) {
    return std::visit(fn, cell);
  } else {
    return fn(cell);
  }
}

/// The one way a bench runs its grid: every cell runs `replicas` times
/// (replica r gets seed + r * 1000003) through exp::parallel_map, and
/// `extract` reduces each RunResult on its worker.  A cell is one runner
/// config, or a std::variant of them when a grid mixes runners.  Returns
/// out[cell][r] in config order, so the output never depends on thread
/// scheduling.  A config a runner rejects exits 2 naming the knob.
template <typename Cell, typename Extract>
[[nodiscard]] auto sweep(const std::vector<Cell>& cells,
                         std::size_t replicas, Extract extract) {
  std::vector<Cell> runs;
  for (const Cell& cell : cells) {
    if (on_config(cell, [](const auto& c) { return observed(c); })) {
      throw std::logic_error{"bench::sweep: observed runs must run alone"};
    }
    for (std::size_t r = 0; r < replicas; ++r) {
      on_config(runs.emplace_back(cell),
                [r](auto& c) { c.seed += r * 1000003; });
    }
  }
  try {
    auto flat = exp::parallel_map(runs, [&](const Cell& cell) {
      return extract(on_config(cell, [](const auto& c) { return run(c); }));
    });
    std::vector<decltype(flat)> out(cells.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      out[i / replicas].push_back(std::move(flat[i]));
    }
    return out;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

inline void print_header(const char* figure, const char* claim,
                         const Scale& s) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", figure);
  std::printf("paper claim: %s\n", claim);
  std::printf("scale: %u peers, %zu items, %zu lookups, %zu replica(s), "
              "seed %llu\n",
              s.peers, s.items, s.lookups, s.replicas,
              static_cast<unsigned long long>(s.seed));
  std::printf("==============================================================="
              "=================\n");
}

/// Formats a number for use inside a dotted metric name ('.' would nest, so
/// the decimal point becomes 'p': 0.4 -> "0p4").
[[nodiscard]] inline std::string metric_num(double v, int precision = 1) {
  std::string s = stats::format_fixed(v, precision);
  for (char& c : s) {
    if (c == '.') c = 'p';
  }
  return s;
}

/// Machine-readable run report, written next to the ASCII output as
/// BENCH_<name>.json.  Schema (version 5; v1 fields are unchanged, v2 adds
/// the always-present `timeseries` array, v3 adds the `replication.*`
/// namespace to per-run metrics -- replica/re-replication/anti-entropy/
/// read-repair counters plus items_stored / items_recoverable /
/// data_availability -- emitted by collect_run_result for every run; v4
/// adds the always-present `run_info` provenance object and, on profiled
/// runs (HP2P_PROFILE=1), the optional `profile` section exported by
/// stats::Profiler::to_json(); v5 adds the always-present `scenarios`
/// array -- one ScenarioReport::to_json() object per production-traffic
/// scenario executed by the run, empty for benches that run none):
///
///   {
///     "schema_version": 5,
///     "bench": "<name>",
///     "seed": <int>,
///     "run_info": {                   // provenance, never feeds metrics
///       "wall_unix_s": <int>,         // host clock at write() time
///       "git_describe": "<str>",      // build tree version ("unknown" if
///                                     //   the build ran outside git)
///       "host_threads": <int>,        // std::thread::hardware_concurrency
///       "peers": <int>               // headline scale of this run
///     },
///     "config": { ... },              // nested; scale + bench-specific knobs
///     "metrics": { ... },             // nested MetricsRegistry export
///     "tables": [                     // the ASCII tables, verbatim cells
///       {"title": "...", "columns": ["..."], "rows": [["..."]]}
///     ],
///     "timeseries": [                 // sampled gauges (empty when not run)
///       {"name": "...", "period_ms": ..., "t_ms": [...], "series": {...}}
///     ],
///     "scenarios": [                  // per-scenario verdicts (empty when
///       {"scenario": "...", ...}      //   the bench runs no scenarios)
///     ],
///     "profile": { ... }              // only on HP2P_PROFILE=1 runs
///   }
///
/// Benches populate config()/metrics() through the registry API and mirror
/// each printed stats::Table with add_table(); write() is the last line of
/// main().  Files are written atomically (temp file + rename) so a crashed
/// or concurrent run never leaves a truncated report behind.
class Reporter {
 public:
  static constexpr std::int64_t kSchemaVersion = 5;

  explicit Reporter(std::string name, std::uint64_t seed = 0)
      : name_(std::move(name)), seed_(seed) {}

  Reporter(std::string name, const Scale& s)
      : Reporter(std::move(name), s.seed) {
    peers_ = s.peers;
    config_.set("peers", stats::JsonValue{std::uint64_t{s.peers}});
    config_.set("items", stats::JsonValue{static_cast<std::uint64_t>(s.items)});
    config_.set("lookups",
                stats::JsonValue{static_cast<std::uint64_t>(s.lookups)});
    config_.set("replicas",
                stats::JsonValue{static_cast<std::uint64_t>(s.replicas)});
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  stats::MetricsRegistry& config() { return config_; }
  stats::MetricsRegistry& metrics() { return metrics_; }

  /// Mirrors one printed table into the report (cells verbatim).
  void add_table(const std::string& title, const stats::Table& table) {
    stats::JsonValue t = stats::JsonValue::object();
    t.set("title", stats::JsonValue{title});
    stats::JsonValue columns = stats::JsonValue::array();
    for (const std::string& h : table.headers()) {
      columns.push_back(stats::JsonValue{h});
    }
    t.set("columns", std::move(columns));
    stats::JsonValue rows = stats::JsonValue::array();
    for (std::size_t i = 0; i < table.num_rows(); ++i) {
      stats::JsonValue row = stats::JsonValue::array();
      for (const std::string& c : table.row_cells(i)) {
        row.push_back(stats::JsonValue{c});
      }
      rows.push_back(std::move(row));
    }
    t.set("rows", std::move(rows));
    tables_.push_back(std::move(t));
  }

  /// Embeds one sampled-gauge block (RunResult::timeseries) in the report.
  void add_timeseries(const stats::TimeSeries& ts) {
    timeseries_.push_back(ts.to_json());
  }

  /// Embeds the profiler export (stats::Profiler::to_json()) as the
  /// report's `profile` section (schema v4, HP2P_PROFILE=1 runs only).
  void set_profile(stats::JsonValue profile) { profile_ = std::move(profile); }

  /// Appends one production-traffic scenario verdict
  /// (workload::ScenarioReport::to_json()) to the v5 `scenarios` array.
  void add_scenario(stats::JsonValue scenario) {
    scenarios_.push_back(std::move(scenario));
  }

  [[nodiscard]] stats::JsonValue to_json() const {
    stats::JsonValue root = stats::JsonValue::object();
    root.set("schema_version", stats::JsonValue{kSchemaVersion});
    root.set("bench", stats::JsonValue{name_});
    root.set("seed", stats::JsonValue{seed_});
    // Provenance only: nothing under run_info may feed a metric or a table,
    // so host-dependent values here never threaten run determinism.
    stats::JsonValue run_info = stats::JsonValue::object();
    run_info.set("wall_unix_s",
                 stats::JsonValue{
                     static_cast<std::uint64_t>(std::time(nullptr))});
#ifdef HP2P_GIT_DESCRIBE
    run_info.set("git_describe", stats::JsonValue{std::string{
                                     HP2P_GIT_DESCRIBE}});
#else
    run_info.set("git_describe", stats::JsonValue{std::string{"unknown"}});
#endif
    run_info.set("host_threads",
                 stats::JsonValue{
                     std::uint64_t{std::thread::hardware_concurrency()}});
    run_info.set("peers", stats::JsonValue{std::uint64_t{peers_}});
    root.set("run_info", std::move(run_info));
    root.set("config", config_.to_json());
    root.set("metrics", metrics_.to_json());
    stats::JsonValue tables = stats::JsonValue::array();
    for (const stats::JsonValue& t : tables_) tables.push_back(t);
    root.set("tables", std::move(tables));
    stats::JsonValue timeseries = stats::JsonValue::array();
    for (const stats::JsonValue& ts : timeseries_) timeseries.push_back(ts);
    root.set("timeseries", std::move(timeseries));
    stats::JsonValue scenarios = stats::JsonValue::array();
    for (const stats::JsonValue& sc : scenarios_) scenarios.push_back(sc);
    root.set("scenarios", std::move(scenarios));
    if (profile_) root.set("profile", *profile_);
    return root;
  }

  /// Writes BENCH_<name>.json into the working directory (or `path`),
  /// atomically: the JSON lands in `path + ".tmp"` first and is renamed
  /// over `path` only after a clean close.
  bool write() const { return write("BENCH_" + name_ + ".json"); }
  bool write(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out{tmp};
      if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", tmp.c_str());
        return false;
      }
      out << to_json().dump(2) << '\n';
      out.close();
      if (!out) {
        std::fprintf(stderr, "warning: short write to %s\n", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "warning: cannot rename %s to %s\n", tmp.c_str(),
                   path.c_str());
      std::remove(tmp.c_str());
      return false;
    }
    std::printf("report: %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  std::uint32_t peers_ = 0;
  stats::MetricsRegistry config_;
  stats::MetricsRegistry metrics_;
  std::vector<stats::JsonValue> tables_;
  std::vector<stats::JsonValue> timeseries_;
  std::vector<stats::JsonValue> scenarios_;
  std::optional<stats::JsonValue> profile_;
};

/// Uniform HP2P_PROFILE=1 epilogue for a profiled run: prints the
/// per-component attribution table (mirrored into the report), embeds the
/// `profile` section, and writes the collapsed-stack file next to the JSON.
inline void report_profile(Reporter& reporter, const stats::Profiler& prof) {
  stats::Table table{{"component", "events", "cpu_ms", "allocs", "alloc_KB"}};
  for (std::size_t c = 0; c < sim::kNumComponents; ++c) {
    const auto total =
        prof.component_total(static_cast<sim::Component>(c));
    if (total.enters == 0 && total.cpu_ns == 0) continue;
    table.row()
        .cell(std::string{
            sim::component_name(static_cast<sim::Component>(c))})
        .cell(total.enters)
        .cell(static_cast<double>(total.cpu_ns) / 1e6, 2)
        .cell(total.allocs)
        .cell(static_cast<double>(total.alloc_bytes) / 1024.0, 1);
  }
  table.print(std::cout);
  std::printf("profile: dispatch %.2f ms, attributed %.2f ms (%.1f%%)\n",
              static_cast<double>(prof.dispatch_ns_total()) / 1e6,
              static_cast<double>(prof.attributed_ns()) / 1e6,
              prof.dispatch_ns_total() > 0
                  ? 100.0 * static_cast<double>(prof.attributed_ns()) /
                        static_cast<double>(prof.dispatch_ns_total())
                  : 0.0);
  reporter.add_table("profile_components", table);
  reporter.set_profile(prof.to_json());
  const std::string collapsed = "PROFILE_" + reporter.name() + ".collapsed";
  if (prof.write_collapsed(collapsed)) {
    std::printf("profile: %s\n", collapsed.c_str());
  }
}

}  // namespace hp2p::bench
