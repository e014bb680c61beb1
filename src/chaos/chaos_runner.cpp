#include "chaos/chaos_runner.hpp"

#include <tuple>
#include <utility>

#include "chaos/fault_engine.hpp"
#include "common/rng.hpp"
#include "exp/world.hpp"
#include "workload/workload.hpp"

namespace hp2p::chaos {

hybrid::HybridParams chaos_default_params() {
  hybrid::HybridParams p;
  p.style = hybrid::SNetworkStyle::kTree;
  p.t_routing = hybrid::TRouting::kRing;
  p.placement = hybrid::PlacementScheme::kRandomSpread;
  p.ttl = 10;
  p.delta = 3;
  p.hello_interval = sim::SimTime::millis(500);
  p.hello_timeout = sim::SimTime::millis(1500);
  p.lookup_timeout = sim::SimTime::seconds(10);
  p.reflood_on_timeout = true;
  // A crashed hop needs detection (~hello_timeout) plus the server
  // round-trip before pointers repair, so give retries room to straddle it.
  p.ring_retry_limit = 3;
  p.ring_retry_base = sim::SimTime::seconds(1);
  p.enable_caching = false;
  p.bypass_links = false;
  return p;
}

stats::JsonValue ChaosReport::to_json() const {
  auto v = stats::JsonValue::object();
  v.set("seed", static_cast<std::int64_t>(seed));
  v.set("crashes", static_cast<std::int64_t>(crashes));
  v.set("joins", static_cast<std::int64_t>(joins));
  v.set("items_stored", static_cast<std::int64_t>(items_stored));
  v.set("items_live", static_cast<std::int64_t>(items_live));
  v.set("must_issued", static_cast<std::int64_t>(must_issued));
  v.set("may_issued", static_cast<std::int64_t>(may_issued));
  v.set("must_failed", static_cast<std::int64_t>(must_failed));
  v.set("may_failed", static_cast<std::int64_t>(may_failed));
  v.set("storm_issued", static_cast<std::int64_t>(storm_issued));
  v.set("storm_failed", static_cast<std::int64_t>(storm_failed));
  v.set("audit_violations", static_cast<std::int64_t>(audit_violations));
  v.set("ring_ok", ring_ok);
  v.set("trees_ok", trees_ok);
  auto arr = stats::JsonValue::array();
  for (const Violation& viol : violations) arr.push_back(viol.to_json());
  v.set("violations", std::move(arr));
  return v;
}

ChaosReport run_chaos(const ChaosConfig& cfg) {
  ChaosReport report;
  report.seed = cfg.seed;

  Rng rng(cfg.seed);
  exp::World world({.hosts = cfg.hosts,
                    .num_peers = cfg.num_peers,
                    .ps = cfg.ps,
                    .params = cfg.params,
                    .tie_break = exp::tie_break_or_env(cfg.tie_break)},
                   rng);
  sim::Simulator& sim = world.sim();
  hybrid::HybridSystem& system = world.system();

  // --- Population: forced roles, staged joins so triangles settle. --------
  const std::uint32_t num_t = exp::forced_tpeers(cfg.num_peers, cfg.ps);
  world.stage(num_t, cfg.num_peers - num_t, sim::SimTime::millis(40));
  sim.run();

  // --- Corpus: stores from random live peers, mirrored into the model. ----
  Judge judge(world, cfg.flight);
  const auto corpus = workload::uniform_corpus(cfg.num_items, cfg.seed);
  {
    const auto origins = world.live_nonserver_peers();
    for (const auto& item : corpus) {
      const PeerIndex origin = origins[rng.index(origins.size())];
      system.store_id(origin, item.id, item.key, item.value);
      judge.model().record_store(item.id, origin);
    }
  }
  sim.run();

  // One auditor watches from here to the end, so the post pass also reports
  // flood TTL breaches seen during the chaos window.
  judge.watch(cfg.strict_audit);
  judge.audit("audit_pre");

  // --- Chaos window. ------------------------------------------------------
  system.start_failure_detection();
  FaultScheduleEngine engine(sim, world.network(), system, cfg.schedule,
                             cfg.flight);
  engine.arm([&world] { return world.next_host(); });

  std::vector<TrackedLookup> storms(cfg.storm_lookups);
  // Function scope: the storm events below hold it by reference until
  // run_until returns.
  Rng storm_rng = rng.fork(0x570);
  if (cfg.storm_lookups > 0 && !cfg.schedule.phases.empty()) {
    const sim::SimTime window_start = sim.now() + sim::SimTime::seconds(1);
    const auto span = cfg.schedule.end().as_micros() >
                              window_start.as_micros()
                          ? cfg.schedule.end().as_micros() -
                                window_start.as_micros()
                          : std::int64_t{1};
    for (std::uint32_t k = 0; k < cfg.storm_lookups; ++k) {
      const auto at = window_start + sim::SimTime::micros(
                                         span * k / cfg.storm_lookups);
      TrackedLookup* slot = &storms[k];
      slot->id = corpus[k % corpus.size()].id;
      sim.schedule_at(at, [&world, &judge, &storm_rng, slot] {
        std::vector<PeerIndex> tpeers;
        for (const PeerIndex p : world.live_nonserver_peers()) {
          if (world.system().role_of(p) == hybrid::Role::kTPeer) {
            tpeers.push_back(p);
          }
        }
        if (tpeers.empty()) return;
        judge.issue(*slot, tpeers[storm_rng.index(tpeers.size())]);
      });
    }
  }

  sim.run_until(cfg.schedule.end() + cfg.settle);
  engine.disarm();
  report.crashes = engine.crashes_applied();
  report.joins = engine.joins_applied();

  // --- Quiescent verdicts. ------------------------------------------------
  std::tie(report.ring_ok, report.trees_ok) = judge.check_structure();
  report.audit_violations = judge.audit("audit");

  for (const TrackedLookup& s : storms) {
    if (!s.issued) continue;  // skipped: no live t-peer at issue
    ++report.storm_issued;
    const InRunVerdict verdict = judge.judge_in_run(s, "storm_must_failed");
    if (verdict == InRunVerdict::kFailed ||
        verdict == InRunVerdict::kMustFailed) {
      ++report.storm_failed;
    }
  }

  const ReferenceModel& model = judge.model();
  report.items_stored = static_cast<std::uint32_t>(model.stores().size());
  for (const auto& [id, origin] : model.stores()) {
    if (!model.live_holders(DataId{id}).empty()) ++report.items_live;
  }

  // Oracle wave: each stored item from its storing peer, topped up to
  // num_lookups with corpus items from random origins.
  std::vector<std::pair<PeerIndex, DataId>> wave = judge.stored_pairs();
  {
    const auto origins = world.live_nonserver_peers();
    for (auto k = static_cast<std::uint32_t>(wave.size());
         k < cfg.num_lookups && !origins.empty(); ++k) {
      wave.emplace_back(origins[rng.index(origins.size())],
                        corpus[k % corpus.size()].id);
    }
  }
  const WaveTally tally =
      judge.wave(wave, cfg.params.lookup_timeout + sim::SimTime::seconds(5));
  report.must_issued = tally.must_issued;
  report.may_issued = tally.may_issued;
  report.must_failed = tally.must_failed;
  report.may_failed = tally.may_failed;

  report.violations = judge.take_violations();
  return report;
}

}  // namespace hp2p::chaos
