// Fig. 3a/3b: the Section 4 analytical curves -- average join latency and
// average lookup latency (in overlay hops) as p_s sweeps 0..1 for several
// degree constraints -- plus a simulated join-latency series to check that
// the simulator reproduces the model's shape.
#include <cstdio>
#include <vector>

#include "analysis/model.hpp"
#include "bench_util.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/table.hpp"

using namespace hp2p;

int main() {
  const auto scale = bench::scale_from_env();
  bench::Reporter reporter{"fig3_analysis", scale};
  bench::print_header(
      "Fig. 3a -- average join latency (hops) vs p_s, per delta",
      "hybrid beats both pure systems; minimum near p_s ~ 0.7-0.8; larger "
      "delta -> shorter joins",
      scale);

  const double deltas[] = {2, 4, 8, 16};
  {
    stats::Table table{{"p_s", "delta=2", "delta=4", "delta=8", "delta=16"}};
    for (double ps = 0.0; ps <= 0.981; ps += 0.05) {
      table.row().cell(ps, 2);
      for (double delta : deltas) {
        analysis::ModelParams p;
        p.n = scale.peers;
        p.ps = ps;
        p.delta = delta;
        table.cell(analysis::average_join_hops(p), 3);
      }
    }
    table.print(std::cout);
    reporter.add_table("fig3a_model_join_hops", table);
    for (double delta : deltas) {
      const double opt = analysis::optimal_ps_for_join(scale.peers, delta);
      std::printf("optimal p_s for join (delta=%g): %.2f\n", delta, opt);
      reporter.metrics().set(
          "optimal_join_ps.delta_" + std::to_string(static_cast<int>(delta)),
          opt);
    }
  }

  bench::print_header(
      "Fig. 3b -- average lookup latency (hops) vs p_s, per delta",
      "flat & highest while p_s < 0.5 (t-network dominates), then drops; "
      "larger delta -> shorter lookups",
      scale);
  {
    stats::Table table{{"p_s", "delta=2", "delta=4", "delta=8", "delta=16",
                        "unconstrained"}};
    for (double ps = 0.0; ps <= 0.981; ps += 0.05) {
      table.row().cell(ps, 2);
      for (double delta : deltas) {
        analysis::ModelParams p;
        p.n = scale.peers;
        p.ps = ps;
        p.delta = delta;
        p.ttl = 4;
        table.cell(analysis::lookup_hops_constrained(p), 3);
      }
      analysis::ModelParams p;
      p.n = scale.peers;
      p.ps = ps;
      table.cell(analysis::lookup_hops_unconstrained(p), 3);
    }
    table.print(std::cout);
    reporter.add_table("fig3b_model_lookup_hops", table);
  }

  bench::print_header(
      "Fig. 3a check -- simulated average join hops vs Eq. (1) shape",
      "simulation matches the theoretic analysis (Section 6)", scale);
  {
    std::vector<exp::RunConfig> cells;
    for (double ps : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
      auto& cfg = cells.emplace_back(bench::base_config(scale));
      cfg.hybrid.ps = ps;
      cfg.num_items = 0;
      cfg.num_lookups = 0;
    }
    const auto runs = bench::sweep(cells, scale.replicas, [](const auto& r) {
      return r.join_hops.mean();
    });
    stats::Table table{{"p_s", "simulated_join_hops", "model_join_hops"}};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double ps = cells[i].hybrid.ps;
      const double sim_hops = exp::mean_of(runs[i]);
      analysis::ModelParams p;
      p.n = scale.peers;
      p.ps = ps;
      p.delta = 3;
      // The simulated t-network routes join requests along the ring
      // (Table 2 mode), so compare against the ring-walk variant of
      // Eq. (1): (1-ps) * (1-ps)N/2 linear term replaced by hops measured.
      table.row().cell(ps, 2).cell(sim_hops, 2).cell(
          analysis::average_join_hops(p), 2);
      reporter.metrics().set("sim_join_hops.ps_" + bench::metric_num(ps),
                             sim_hops);
    }
    table.print(std::cout);
    reporter.add_table("fig3a_sim_check_join_hops", table);
    std::printf("note: simulated joins use ring forwarding, the model's "
                "finger-accelerated term\nis a lower bound; shapes (interior "
                "minimum, rising tail) should agree.\n");
  }

  // HP2P_TRACE=1: one fully traced replica at the paper's operating point.
  // Produces TRACE_fig3_analysis.json (open in chrome://tracing or
  // https://ui.perfetto.dev), the per-lookup critical-path percentiles
  // under metrics.trace.*, and a sampled-gauge timeseries block.
  if (bench::trace_from_env()) {
    bench::print_header(
        "Traced replica -- causal spans, critical path, gauge samples",
        "observability pass; see EXPERIMENTS.md 'Tracing a lookup'", scale);
    stats::SpanRecorder recorder;
    auto cfg = bench::base_config(scale);
    cfg.hybrid.ps = 0.8;
    cfg.tracer = &recorder;
    cfg.sample_period = sim::SimTime::millis(250);
    const auto result = exp::run_hybrid_experiment(cfg);
    recorder.collect_critical_path(reporter.metrics(), "trace");
    // Full result export (incl. traced.audit.* when HP2P_AUDIT=1 is also
    // set -- the audit-smoke ctest fixture validates those).
    exp::collect_run_result(reporter.metrics(), "traced", result);
    if (result.timeseries) reporter.add_timeseries(*result.timeseries);
    const auto breakdowns = recorder.lookup_breakdowns();
    std::printf("traced %zu lookups across %zu spans (%zu dropped)\n",
                breakdowns.size(), recorder.spans().size(),
                recorder.dropped_spans());
    if (recorder.write_catapult("TRACE_fig3_analysis.json")) {
      std::printf("trace: TRACE_fig3_analysis.json\n");
    }
  }

  // HP2P_PROFILE=1: one profiled replica at the same operating point.
  // Adds the schema-v4 `profile` section (per-component CPU/event/alloc
  // attribution, per-message-class time and bytes) and writes
  // PROFILE_fig3_analysis.collapsed for flamegraph.pl / speedscope.
  if (bench::profile_from_env()) {
    bench::print_header(
        "Profiled replica -- per-component CPU/alloc attribution",
        "observability pass; see README 'Profiling a run'", scale);
    stats::Profiler profiler;
    auto cfg = bench::base_config(scale);
    cfg.hybrid.ps = 0.8;
    cfg.profiler = &profiler;
    cfg.sample_period = sim::SimTime::millis(250);
    const auto result = exp::run_hybrid_experiment(cfg);
    exp::collect_run_result(reporter.metrics(), "profiled", result);
    if (result.timeseries) reporter.add_timeseries(*result.timeseries);
    bench::report_profile(reporter, profiler);
  }
  return reporter.write() ? 0 : 1;
}
