// MetricsRegistry: a single named-metric tree for everything a run
// measures.  Producers register values under dotted paths
// ("net.query.messages", "phase.lookup.sim_ms"); consumers serialize the
// whole registry as one nested JSON object or read individual entries back.
//
// The registry is the glue between the counter structs scattered through
// the codebase (SimulatorStats, NetworkStats, LookupStats, RunResult) and
// the machine-readable BENCH_*.json reports -- see exp/metrics_collect.hpp
// for the collectors that flatten those structs into a registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "stats/json.hpp"

namespace hp2p::stats {

class Summary;

/// Flat (sorted) name -> value map with dotted-path nesting on export.
class MetricsRegistry {
 public:
  /// Sets (or overwrites) one metric.  Accepts anything JsonValue does:
  /// numbers, bools, strings, even arrays for per-bucket data.
  void set(std::string name, JsonValue value) {
    entries_[std::move(name)] = std::move(value);
  }

  /// Accumulates into a numeric metric (creates it at 0).
  void add(const std::string& name, double delta);
  void add(const std::string& name, std::uint64_t delta);

  /// Ingests a Summary as <prefix>.count/mean/stddev/min/max.
  void collect_summary(const std::string& prefix, const Summary& s);

  [[nodiscard]] const JsonValue* find(std::string_view name) const;
  /// Numeric metric or `fallback` when absent / non-numeric.
  [[nodiscard]] double number_or(std::string_view name, double fallback) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::map<std::string, JsonValue, std::less<>>& entries()
      const {
    return entries_;
  }

  friend bool operator==(const MetricsRegistry&, const MetricsRegistry&) =
      default;

  /// Nested-object export: "a.b.c" -> {"a": {"b": {"c": ...}}}.  When a name
  /// is both a leaf and a prefix ("a" and "a.b"), the leaf value appears
  /// under the empty key inside the object, which from_json() maps back.
  [[nodiscard]] JsonValue to_json() const;

  /// Inverse of to_json(): flattens a nested object back into dotted names.
  [[nodiscard]] static MetricsRegistry from_json(const JsonValue& tree);

 private:
  std::map<std::string, JsonValue, std::less<>> entries_;
};

}  // namespace hp2p::stats
