#include "verify/scenario.hpp"

#include <string>
#include <vector>

#include "chaos/chaos_runner.hpp"
#include "common/rng.hpp"
#include "exp/world.hpp"
#include "verify/state_hash.hpp"
#include "workload/workload.hpp"

namespace hp2p::verify {

hybrid::HybridParams verify_default_params() {
  // The chaos defaults with every rng-drawing protocol path off:
  // deterministic placement at the responsible t-peer (no spread walk) and
  // flood search (no random walks); the scenarios force roles and use tree
  // s-networks (no mesh shuffle).  What remains is a pure function of the
  // event order.
  hybrid::HybridParams p = chaos::chaos_default_params();
  p.placement = hybrid::PlacementScheme::kTPeerStores;
  p.s_search = hybrid::SSearch::kFlood;
  p.lookup_timeout = sim::SimTime::seconds(5);
  return p;
}

std::string ScenarioOutcome::dump() const {
  std::string out = "aborted=" + std::to_string(aborted ? 1 : 0) +
                    " hash=" + std::to_string(state_hash) +
                    " events=" + std::to_string(events_executed);
  for (const chaos::Violation& v : violations) out += "\n" + v.str();
  return out;
}

ScenarioOutcome run_scenario(const ScenarioConfig& cfg,
                             ScenarioPolicy* policy) {
  ScenarioOutcome out;

  const std::uint32_t num_peers = cfg.num_tpeers + cfg.num_speers;
  Rng rng(cfg.seed);
  exp::World world({.hosts = cfg.hosts,
                    .num_peers = num_peers,
                    .ps = static_cast<double>(cfg.num_speers) / num_peers,
                    .params = cfg.params},
                   rng);
  sim::Simulator& sim = world.sim();
  hybrid::HybridSystem& system = world.system();
  if (policy != nullptr) sim.set_tie_break_policy(policy, cfg.window);

  // Canary fault: deterministic heartbeat delay on one directed pair.
  if (cfg.hello_delay_from != 0 && cfg.hello_delay_to != 0) {
    const PeerIndex df{cfg.hello_delay_from};
    const PeerIndex dt{cfg.hello_delay_to};
    world.network().set_fault([&sim, &cfg, df, dt](PeerIndex from,
                                                    PeerIndex to,
                                                    proto::TrafficClass cls,
                                                    std::uint32_t) {
      proto::FaultAction action;
      if (cls == proto::TrafficClass::kHeartbeat && from == df && to == dt &&
          sim.now() >= cfg.hello_delay_start &&
          sim.now() < cfg.hello_delay_end) {
        action.extra_delay = cfg.hello_delay_by;
      }
      return action;
    });
  }

  // --- Deterministic timeline -----------------------------------------------------
  // Joins 100ms apart (t-peers first, forced roles): well clear of any
  // plausible commutation window, so dense peer indices -- and therefore
  // the canonical hash -- are stable across interleavings.
  world.stage(cfg.num_tpeers, cfg.num_speers, sim::SimTime::millis(100));

  // Stores: fixed corpus, fixed origins (round-robin over the join order),
  // mirrored into the reference model as they execute.
  chaos::Judge judge(world);
  chaos::ReferenceModel& model = judge.model();
  const auto corpus = workload::uniform_corpus(cfg.num_items, cfg.seed);
  for (std::uint32_t k = 0; k < cfg.num_items; ++k) {
    const auto& item = corpus[k];
    const PeerIndex origin{1 + k % num_peers};
    sim.schedule_at(sim::SimTime::millis(1500 + 20 * k),
                    [&system, &model, origin, item] {
                      if (!system.is_alive(origin) ||
                          !system.is_joined(origin)) {
                        return;
                      }
                      system.store_id(origin, item.id, item.key, item.value);
                      model.record_store(item.id, origin);
                    });
  }

  sim.schedule_at(sim::SimTime::millis(2000),
                  [&system] { system.start_failure_detection(); });

  if (cfg.crash_peer != 0) {
    const PeerIndex victim{cfg.crash_peer};
    sim.schedule_at(cfg.crash_at, [&system, victim] { system.crash(victim); });
  }

  // In-horizon lookups, judged post-hoc exactly like the chaos storm
  // lookups: a failure only counts when the oracle said MUST both at issue
  // time and after the dust settled.
  std::vector<chaos::TrackedLookup> storm(cfg.num_lookups);
  for (std::uint32_t k = 0; k < cfg.num_lookups; ++k) {
    chaos::TrackedLookup* slot = &storm[k];
    slot->id = corpus.empty() ? DataId{} : corpus[k % corpus.size()].id;
    const PeerIndex origin{1 + (k * 2 + 1) % num_peers};
    sim.schedule_at(cfg.lookup_at + sim::SimTime::millis(150 * k),
                    [&system, &judge, slot, origin] {
                      if (!system.is_alive(origin) ||
                          !system.is_joined(origin)) {
                        return;
                      }
                      judge.issue(*slot, origin);
                    });
  }

  // --- Explored horizon -----------------------------------------------------------
  while (sim.next_event_time() <= cfg.horizon) {
    if (policy != nullptr && policy->aborted()) {
      out.aborted = true;
      return out;
    }
    sim.step();
  }
  if (policy != nullptr && policy->aborted()) {
    out.aborted = true;
    return out;
  }
  sim.run_until(cfg.horizon);
  out.events_executed = sim.stats().events_executed;

  // --- Quiescent verdicts (canonical FIFO order from here on) ---------------------
  sim.set_tie_break_policy(nullptr);
  out.state_hash = canonical_state_hash(system);

  judge.check_structure();
  judge.watch(true);
  judge.audit("audit");

  // Oracle wave: every stored item looked up from its storing origin.
  auto wave = judge.stored_pairs();
  std::erase_if(wave, [&system](const auto& pair) {
    return !system.is_alive(pair.first) || !system.is_joined(pair.first);
  });
  judge.wave(wave, cfg.params.lookup_timeout + sim::SimTime::seconds(2));

  for (const chaos::TrackedLookup& s : storm) {
    if (s.issued) judge.judge_in_run(s, "storm_must_failed");
  }
  out.violations = judge.take_violations();
  return out;
}

}  // namespace hp2p::verify
