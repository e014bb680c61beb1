// Tests for the observability layer: MetricsRegistry aggregation, JSON
// round-trips, and the BENCH_*.json schema emitted by bench::Reporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench/bench_util.hpp"
#include "exp/harness.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/json.hpp"
#include "stats/metrics.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"
#include "stats/trace.hpp"

namespace hp2p::stats {
namespace {

TEST(MetricsRegistry, SetFindAndNumberOr) {
  MetricsRegistry reg;
  reg.set("net.messages", JsonValue{std::int64_t{42}});
  reg.set("net.loss_rate", JsonValue{0.25});
  reg.set("label", JsonValue{"hello"});
  ASSERT_NE(reg.find("net.messages"), nullptr);
  EXPECT_EQ(reg.find("net.messages")->as_int(), 42);
  EXPECT_DOUBLE_EQ(reg.number_or("net.loss_rate", -1.0), 0.25);
  EXPECT_DOUBLE_EQ(reg.number_or("absent", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(reg.number_or("label", -1.0), -1.0);  // non-numeric
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, AddAccumulates) {
  MetricsRegistry reg;
  reg.add("counter", std::uint64_t{3});
  reg.add("counter", std::uint64_t{4});
  EXPECT_DOUBLE_EQ(reg.number_or("counter", 0.0), 7.0);
  reg.add("ratio", 0.5);
  reg.add("ratio", 0.25);
  EXPECT_DOUBLE_EQ(reg.number_or("ratio", 0.0), 0.75);
}

TEST(MetricsRegistry, CollectSummary) {
  Summary s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  MetricsRegistry reg;
  reg.collect_summary("latency", s);
  EXPECT_DOUBLE_EQ(reg.number_or("latency.count", -1), 3.0);
  EXPECT_DOUBLE_EQ(reg.number_or("latency.mean", -1), 2.0);
  EXPECT_DOUBLE_EQ(reg.number_or("latency.min", -1), 1.0);
  EXPECT_DOUBLE_EQ(reg.number_or("latency.max", -1), 3.0);
}

TEST(MetricsRegistry, ToJsonNestsDottedNames) {
  MetricsRegistry reg;
  reg.set("a.b.c", JsonValue{std::int64_t{1}});
  reg.set("a.b.d", JsonValue{std::int64_t{2}});
  reg.set("top", JsonValue{true});
  const JsonValue tree = reg.to_json();
  ASSERT_NE(tree.find_path("a.b.c"), nullptr);
  EXPECT_EQ(tree.find_path("a.b.c")->as_int(), 1);
  EXPECT_EQ(tree.find_path("a.b.d")->as_int(), 2);
  EXPECT_TRUE(tree.find_path("top")->as_bool());
}

TEST(MetricsRegistry, RoundTripPreservesIntDoubleDistinction) {
  MetricsRegistry reg;
  reg.set("count", JsonValue{std::int64_t{7}});
  reg.set("whole_double", JsonValue{7.0});
  reg.set("frac", JsonValue{0.125});
  reg.set("deep.nested.value", JsonValue{"x"});
  const MetricsRegistry back = MetricsRegistry::from_json(reg.to_json());
  EXPECT_EQ(back, reg);
  EXPECT_TRUE(back.find("count")->is_int());
  EXPECT_TRUE(back.find("whole_double")->is_double());
}

TEST(MetricsRegistry, RoundTripSurvivesTextSerialization) {
  MetricsRegistry reg;
  reg.set("a.int", JsonValue{std::int64_t{123456789}});
  reg.set("a.dbl", JsonValue{0.1 + 0.2});
  reg.set("b", JsonValue{"text"});
  const auto parsed = JsonValue::parse(reg.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(MetricsRegistry::from_json(*parsed), reg);
}

TEST(MetricsRegistry, LeafAndPrefixCollisionRoundTrips) {
  MetricsRegistry reg;
  reg.set("a", JsonValue{std::int64_t{1}});
  reg.set("a.b", JsonValue{std::int64_t{2}});
  const MetricsRegistry back = MetricsRegistry::from_json(reg.to_json());
  EXPECT_EQ(back, reg);
}

TEST(MetricsCollect, RunResultAggregatesAllCounterStructs) {
  exp::RunConfig cfg;
  cfg.seed = 9;
  cfg.num_peers = 40;
  cfg.num_items = 60;
  cfg.num_lookups = 60;
  cfg.hybrid.ps = 0.5;
  const auto r = exp::run_hybrid_experiment(cfg);

  MetricsRegistry reg;
  exp::collect_run_result(reg, "run", r);
  EXPECT_DOUBLE_EQ(reg.number_or("run.lookup.issued", -1),
                   static_cast<double>(r.lookups.issued));
  EXPECT_DOUBLE_EQ(reg.number_or("run.lookup.fast_failed", -1),
                   static_cast<double>(r.lookups.fast_failed));
  EXPECT_DOUBLE_EQ(reg.number_or("run.net.messages_sent", -1),
                   static_cast<double>(r.network.messages_sent));
  EXPECT_DOUBLE_EQ(reg.number_or("run.net.class.query.messages", -1),
                   static_cast<double>(r.network.class_messages(
                       proto::TrafficClass::kQuery)));
  EXPECT_DOUBLE_EQ(reg.number_or("run.sim.events_executed", -1),
                   static_cast<double>(r.sim_stats.events_executed));
  EXPECT_GT(reg.number_or("run.sim.events_executed", -1), 0.0);
  // Phase timings came along in simulated time only: host wall time would
  // make two runs of one seed export different trees.
  EXPECT_GE(reg.number_or("run.phase.build.sim_ms", -1), 0.0);
  EXPECT_GE(reg.number_or("run.phase.lookup.sim_ms", -1), 0.0);
  EXPECT_EQ(reg.find("run.phase.lookup.wall_ms"), nullptr);
  // Per-reason drop counters are exported for all enumerated reasons.
  for (std::size_t i = 0; i < proto::kNumDropReasons; ++i) {
    const auto reason = static_cast<proto::DropReason>(i);
    const std::string key =
        std::string{"run.net.drop."} + proto::drop_reason_name(reason);
    EXPECT_DOUBLE_EQ(reg.number_or(key, -1),
                     static_cast<double>(r.network.reason_drops(reason)))
        << key;
  }
  // v3 replication namespace is always exported (counters zero at r = 1).
  EXPECT_DOUBLE_EQ(reg.number_or("run.replication.replica_pushes", -1), 0.0);
  EXPECT_DOUBLE_EQ(reg.number_or("run.replication.items_stored", -1),
                   static_cast<double>(r.items_stored));
  EXPECT_DOUBLE_EQ(reg.number_or("run.replication.data_availability", -1),
                   r.data_availability());
  EXPECT_GT(r.items_stored, 0u);
}

TEST(MetricsCollect, TracedRunExportsCriticalPathAndTimeseries) {
  SpanRecorder recorder;
  exp::RunConfig cfg;
  cfg.seed = 10;
  cfg.num_peers = 40;
  cfg.num_items = 60;
  cfg.num_lookups = 60;
  cfg.hybrid.ps = 0.5;
  cfg.tracer = &recorder;
  cfg.sample_period = sim::SimTime::millis(100);
  const auto r = exp::run_hybrid_experiment(cfg);

  // The tracer saw every lookup the harness issued.
  EXPECT_EQ(recorder.lookup_breakdowns().size(), r.lookups.issued);
  MetricsRegistry reg;
  recorder.collect_critical_path(reg, "trace.lookup_critical_path");
  EXPECT_DOUBLE_EQ(reg.number_or("trace.lookup_critical_path.lookups", -1),
                   static_cast<double>(r.lookups.issued));
  EXPECT_GE(reg.number_or("trace.lookup_critical_path.total_ms.p99", -1),
            reg.number_or("trace.lookup_critical_path.total_ms.p50", 0));

  // The sampler produced a time series covering the whole run.
  ASSERT_TRUE(r.timeseries.has_value());
  EXPECT_GT(r.timeseries->num_samples(), 1u);
  ASSERT_FALSE(r.timeseries->columns.empty());
  for (const auto& col : r.timeseries->columns) {
    EXPECT_EQ(col.values.size(), r.timeseries->num_samples()) << col.name;
  }
}

TEST(DropReasons, NamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < proto::kNumDropReasons; ++i) {
    names.insert(proto::drop_reason_name(static_cast<proto::DropReason>(i)));
  }
  EXPECT_EQ(names.size(), proto::kNumDropReasons);
  EXPECT_EQ(std::string{proto::drop_reason_name(proto::DropReason::kLoss)},
            "loss");
  EXPECT_EQ(std::string{proto::drop_reason_name(
                proto::DropReason::kTtlExhausted)},
            "ttl_exhausted");
}

TEST(Reporter, JsonMatchesSchema) {
  bench::Scale scale{};
  scale.peers = 10;
  scale.items = 20;
  scale.lookups = 30;
  scale.replicas = 1;
  scale.seed = 7;
  bench::Reporter reporter{"selftest", scale};
  reporter.metrics().set("x.y", JsonValue{std::int64_t{5}});
  Table table{{"col_a", "col_b"}};
  table.row().cell(std::uint64_t{1}).cell(2.5, 1);
  reporter.add_table("demo", table);

  const JsonValue root = reporter.to_json();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find_path("schema_version")->as_int(),
            bench::Reporter::kSchemaVersion);
  EXPECT_EQ(bench::Reporter::kSchemaVersion, 5);
  EXPECT_EQ(root.find_path("bench")->as_string(), "selftest");

  // v4: run provenance is always present.
  EXPECT_GT(root.find_path("run_info.wall_unix_s")->as_int(), 0);
  EXPECT_FALSE(root.find_path("run_info.git_describe")->as_string().empty());
  ASSERT_NE(root.find_path("run_info.host_threads"), nullptr);
  EXPECT_EQ(root.find_path("run_info.peers")->as_int(), 10);
  EXPECT_EQ(root.find_path("seed")->as_int(), 7);
  EXPECT_EQ(root.find_path("config.peers")->as_int(), 10);
  EXPECT_EQ(root.find_path("config.lookups")->as_int(), 30);
  EXPECT_EQ(root.find_path("metrics.x.y")->as_int(), 5);

  const JsonValue* tables = root.find_path("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_TRUE(tables->is_array());
  ASSERT_EQ(tables->items().size(), 1u);
  const JsonValue& t = tables->items()[0];
  EXPECT_EQ(t.find_path("title")->as_string(), "demo");
  ASSERT_EQ(t.find_path("columns")->items().size(), 2u);
  EXPECT_EQ(t.find_path("columns")->items()[0].as_string(), "col_a");
  ASSERT_EQ(t.find_path("rows")->items().size(), 1u);
  EXPECT_EQ(t.find_path("rows")->items()[0].items().size(), 2u);

  // v2: the timeseries array is always present, empty when nothing sampled.
  const JsonValue* timeseries = root.find_path("timeseries");
  ASSERT_NE(timeseries, nullptr);
  ASSERT_TRUE(timeseries->is_array());
  EXPECT_TRUE(timeseries->items().empty());

  // v5: the scenarios array is always present, empty when no scenario runs
  // were attached.
  const JsonValue* scenarios = root.find_path("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  EXPECT_TRUE(scenarios->items().empty());
}

TEST(Reporter, TimeseriesBlockEmbedsInReport) {
  bench::Reporter reporter{"ts_selftest"};
  TimeSeries ts;
  ts.name = "gauges";
  ts.period_ms = 250.0;
  ts.t_ms = {0.0, 250.0};
  ts.columns.push_back(TimeSeriesColumn{"live_peers", {10.0, 12.0}});
  reporter.add_timeseries(ts);

  const JsonValue root = reporter.to_json();
  const JsonValue* blocks = root.find_path("timeseries");
  ASSERT_NE(blocks, nullptr);
  ASSERT_EQ(blocks->items().size(), 1u);
  const JsonValue& block = blocks->items()[0];
  EXPECT_EQ(block.find_path("name")->as_string(), "gauges");
  EXPECT_DOUBLE_EQ(block.find_path("period_ms")->as_double(), 250.0);
  ASSERT_EQ(block.find_path("t_ms")->items().size(), 2u);
  const JsonValue* col = block.find_path("series.live_peers");
  ASSERT_NE(col, nullptr);
  ASSERT_EQ(col->items().size(), 2u);
  EXPECT_DOUBLE_EQ(col->items()[1].as_double(), 12.0);
}

TEST(Reporter, WrittenFileParsesBack) {
  bench::Reporter reporter{"unit_selftest"};
  reporter.metrics().set("k", JsonValue{std::int64_t{1}});
  const std::string path = "BENCH_unit_selftest.json";
  ASSERT_TRUE(reporter.write(path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto parsed = stats::JsonValue::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, reporter.to_json());
  // The write was atomic: no temp file may linger next to the report.
  std::ifstream tmp{path + ".tmp"};
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
  std::remove(path.c_str());
}

TEST(MetricNum, ReplacesDecimalPoint) {
  EXPECT_EQ(bench::metric_num(0.4), "0p4");
  EXPECT_EQ(bench::metric_num(1.25, 2), "1p25");
  EXPECT_EQ(bench::metric_num(3.0), "3p0");
}

}  // namespace
}  // namespace hp2p::stats
