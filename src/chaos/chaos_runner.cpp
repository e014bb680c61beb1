#include "chaos/chaos_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "audit/overlay_auditor.hpp"
#include "chaos/fault_engine.hpp"
#include "chaos/reference_model.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "sim/tie_break.hpp"
#include "hybrid/hybrid_system.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
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

stats::JsonValue ChaosViolation::to_json() const {
  auto v = stats::JsonValue::object();
  v.set("kind", kind);
  v.set("detail", detail);
  v.set("a", static_cast<std::int64_t>(a));
  v.set("b", static_cast<std::int64_t>(b));
  return v;
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
  for (const ChaosViolation& viol : violations) arr.push_back(viol.to_json());
  v.set("violations", std::move(arr));
  return v;
}

namespace {

struct StormLookup {
  DataId id{};
  PeerIndex origin = kNoPeer;
  bool must_at_issue = false;
  bool done = false;
  bool success = false;
};

void add_violation(ChaosReport& report, const ChaosConfig& cfg,
                   sim::SimTime at, const char* kind, std::string detail,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
  if (cfg.flight != nullptr) {
    cfg.flight->record(at, "chaos_violation", a, b,
                       report.violations.size());
  }
  report.violations.push_back(ChaosViolation{kind, std::move(detail), a, b});
}

std::vector<PeerIndex> live_nonserver_peers(
    const hybrid::HybridSystem& system) {
  std::vector<PeerIndex> out;
  for (std::size_t i = 0; i < system.num_peers(); ++i) {
    const PeerIndex p{static_cast<std::uint32_t>(i)};
    if (system.is_server_peer(p) || !system.is_alive(p) ||
        !system.is_joined(p)) {
      continue;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace

ChaosReport run_chaos(const ChaosConfig& cfg) {
  ChaosReport report;
  report.seed = cfg.seed;

  Rng rng(cfg.seed);
  sim::Simulator sim;

  // Optional randomized tie-break (`shuffle:<seed>`, from the config or the
  // HP2P_TIEBREAK environment variable): equal-timestamp events fire in a
  // seeded random order instead of schedule order, so a soak exercises tie
  // interleavings the FIFO kernel never shows.  The oracle's verdicts are
  // order-independent, so any new failure is a real protocol bug.
  std::unique_ptr<sim::ShuffleTieBreak> shuffler;
  {
    const std::string spec = cfg.tie_break.empty()
                                 ? env_or("HP2P_TIEBREAK", "")
                                 : cfg.tie_break;
    constexpr const char* kPrefix = "shuffle:";
    if (spec.rfind(kPrefix, 0) == 0) {
      const std::uint64_t tb_seed =
          std::strtoull(spec.c_str() + std::string(kPrefix).size(), nullptr,
                        10);
      shuffler = std::make_unique<sim::ShuffleTieBreak>(tb_seed);
      sim.set_tie_break_policy(shuffler.get());
    }
  }

  net::Underlay underlay(
      net::generate_transit_stub(
          net::TransitStubParams::for_total_nodes(cfg.hosts), rng),
      rng);
  proto::OverlayNetwork network(sim, underlay, {});
  hybrid::HybridSystem system(network, cfg.params, HostIndex{0}, rng);

  // --- Population: forced roles, staged joins so triangles settle. --------
  std::uint32_t host_cursor = 0;
  const auto next_host = [&] {
    const HostIndex h{1 + host_cursor % (underlay.num_hosts() - 1)};
    ++host_cursor;
    return h;
  };
  const auto num_t = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::lround((1.0 - cfg.ps) * cfg.num_peers)));
  for (std::uint32_t i = 0; i < cfg.num_peers; ++i) {
    const auto role =
        i < num_t ? hybrid::Role::kTPeer : hybrid::Role::kSPeer;
    const HostIndex host = next_host();
    sim.schedule_at(sim::SimTime::millis(40 * (i + 1)),
                    [&system, host, role] {
                      system.add_peer_with_role(host, role);
                    });
  }
  sim.run();

  // --- Corpus: stores from random live peers, mirrored into the model. ----
  ReferenceModel model(system);
  const auto corpus = workload::uniform_corpus(cfg.num_items, cfg.seed);
  {
    const auto origins = live_nonserver_peers(system);
    for (const auto& item : corpus) {
      const PeerIndex origin = origins[rng.index(origins.size())];
      system.store_id(origin, item.id, item.key, item.value);
      model.record_store(item.id, origin);
    }
  }
  sim.run();

  // The auditor's ctor takes the system's single flood-observer slot.
  audit::AuditOptions audit_opts;
  audit_opts.strict = cfg.strict_audit;
  audit::OverlayAuditor auditor(system, network, sim, audit_opts);
  {
    const auto pre = auditor.run();
    for (const auto& v : pre.violations) {
      add_violation(report, cfg, sim.now(), "audit_pre",
                    std::string(v.invariant) + ": " + v.detail,
                    v.peer.value());
    }
  }

  // --- Chaos window. ------------------------------------------------------
  system.start_failure_detection();
  FaultScheduleEngine engine(sim, network, system, cfg.schedule, cfg.flight);
  engine.arm(next_host);

  std::vector<StormLookup> storms(cfg.storm_lookups);
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
      const DataId id = corpus[k % corpus.size()].id;
      StormLookup* slot = &storms[k];
      sim.schedule_at(at, [&system, &model, &storm_rng, slot, id] {
        std::vector<PeerIndex> tpeers;
        for (const PeerIndex p : live_nonserver_peers(system)) {
          if (system.role_of(p) == hybrid::Role::kTPeer) tpeers.push_back(p);
        }
        if (tpeers.empty()) return;
        slot->origin = tpeers[storm_rng.index(tpeers.size())];
        slot->id = id;
        // At issue time only require the data to be live: a transiently
        // broken ring or severed chain is exactly what the hardening
        // (ring retry, re-flood) must ride out within lookup_timeout.
        // Legitimate permanent losses are filtered by the post-hoc
        // classify() below.
        slot->must_at_issue = !model.live_holders(id).empty();
        system.lookup_id(slot->origin, id, [slot](proto::LookupResult r) {
          slot->done = true;
          slot->success = r.success;
        });
      });
    }
  }

  sim.run_until(cfg.schedule.end() + cfg.settle);
  engine.disarm();
  report.crashes = engine.crashes_applied();
  report.joins = engine.joins_applied();

  // --- Quiescent verdicts. ------------------------------------------------
  report.ring_ok = system.verify_ring();
  report.trees_ok = system.verify_trees();
  if (!report.ring_ok) {
    add_violation(report, cfg, sim.now(), "ring_broken",
                  "verify_ring() failed after settle");
  }
  if (!report.trees_ok) {
    add_violation(report, cfg, sim.now(), "trees_broken",
                  "verify_trees() failed after settle");
  }
  {
    const auto post = auditor.run();
    report.audit_violations =
        static_cast<std::uint32_t>(post.violations.size());
    for (const auto& v : post.violations) {
      add_violation(report, cfg, sim.now(), "audit",
                    std::string(v.invariant) + ": " + v.detail,
                    v.peer.value());
    }
  }

  for (const StormLookup& s : storms) {
    if (s.origin == kNoPeer) continue;  // skipped: no live t-peer at issue
    ++report.storm_issued;
    if (!s.done) {
      add_violation(report, cfg, sim.now(), "lookup_wedged",
                    "storm lookup never completed", s.id.value(),
                    s.origin.value());
      continue;
    }
    if (s.success) continue;
    ++report.storm_failed;
    if (s.must_at_issue && model.classify(s.origin, s.id).must) {
      add_violation(report, cfg, sim.now(), "storm_must_failed",
                    "mid-storm lookup failed; oracle says MUST at issue "
                    "and after recovery",
                    s.id.value(), s.origin.value());
    }
  }

  report.items_stored = static_cast<std::uint32_t>(model.stores().size());
  for (const auto& [id, origin] : model.stores()) {
    if (!model.live_holders(DataId{id}).empty()) ++report.items_live;
  }

  // MUST/MAY wave: classify before issuing (lookups do not mutate
  // membership with caching off, so verdicts stay valid through the wave).
  struct WaveLookup {
    Expectation exp;
    DataId id{};
    PeerIndex origin = kNoPeer;
    bool done = false;
    bool success = false;
  };
  auto wave = std::make_shared<std::vector<WaveLookup>>();
  wave->reserve(cfg.num_lookups);
  const auto issue = [&](PeerIndex origin, DataId id) {
    const std::size_t slot = wave->size();
    wave->push_back(WaveLookup{model.classify(origin, id), id, origin});
    system.lookup_id(origin, id, [wave, slot](proto::LookupResult r) {
      (*wave)[slot].done = true;
      (*wave)[slot].success = r.success;
    });
  };
  for (const auto& [id, origin] : model.stores()) {
    issue(origin, DataId{id});
  }
  {
    const auto origins = live_nonserver_peers(system);
    for (std::uint32_t k = static_cast<std::uint32_t>(wave->size());
         k < cfg.num_lookups && !origins.empty(); ++k) {
      issue(origins[rng.index(origins.size())], corpus[k % corpus.size()].id);
    }
  }
  sim.run_until(sim.now() + cfg.params.lookup_timeout +
                sim::SimTime::seconds(5));

  for (const WaveLookup& w : *wave) {
    if (w.exp.must) {
      ++report.must_issued;
    } else {
      ++report.may_issued;
    }
    if (!w.done) {
      add_violation(report, cfg, sim.now(), "lookup_wedged",
                    "oracle-wave lookup never completed", w.id.value(),
                    w.origin.value());
      continue;
    }
    if (w.success) continue;
    if (w.exp.must) {
      ++report.must_failed;
      add_violation(report, cfg, sim.now(), "must_lookup_failed",
                    std::string("MUST lookup failed (") + w.exp.reason + ")",
                    w.id.value(), w.origin.value());
    } else {
      ++report.may_failed;
    }
  }
  if (system.pending_lookups() != 0) {
    add_violation(report, cfg, sim.now(), "lookup_wedged",
                  "pending_lookups() != 0 after the wave deadline",
                  system.pending_lookups());
  }

  return report;
}

}  // namespace hp2p::chaos
