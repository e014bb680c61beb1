#include "exp/harness.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <set>

#include "audit/overlay_auditor.hpp"
#include "common/alloc_stats.hpp"
#include "common/env.hpp"
#include "common/proc_stats.hpp"
#include "common/rng.hpp"
#include "exp/world.hpp"
#include "hybrid/hybrid_system.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace hp2p::exp {
namespace {

using hybrid::HybridSystem;
using hybrid::Role;

/// Role sequence with exactly forced_tpeers(n, ps) t-peers, first peer
/// always a t-peer.  With capacity sorting, t-roles are paired with the
/// fastest hosts by construction in the caller.
std::vector<Role> role_sequence(std::uint32_t n, double ps, bool tpeers_first,
                                Rng& rng) {
  std::vector<Role> roles(n, Role::kSPeer);
  std::fill_n(roles.begin(), forced_tpeers(n, ps), Role::kTPeer);
  if (!tpeers_first) {
    std::vector<Role> tail(roles.begin() + 1, roles.end());
    rng.shuffle(tail);
    std::copy(tail.begin(), tail.end(), roles.begin() + 1);
  }
  return roles;
}

}  // namespace

RunResult run_hybrid_experiment(const RunConfig& raw_config) {
  RunConfig config = raw_config;
  // A ring-mode lookup can legitimately walk ~N_t hops at ~100 ms per hop
  // on a transit-stub underlay; a fixed timeout would misclassify long
  // walks as failures (the paper's Table 2 counts full walks).  Scale the
  // deadline with the worst-case walk, never below the configured value.
  const auto walk_bound = sim::SimTime::millis(
      static_cast<std::int64_t>(config.num_peers) * 250 + 15'000);
  if (config.hybrid.lookup_timeout < walk_bound) {
    config.hybrid.lookup_timeout = walk_bound;
  }

  Rng rng{config.seed};
  Rng topo_rng = rng.fork(1);
  Rng build_rng = rng.fork(2);
  Rng op_rng = rng.fork(3);

  // One underlay host per peer plus one for the server, as in the paper's
  // 1,000-node GT-ITM topologies.
  World world{{.hosts = config.num_peers + 1,
               .num_peers = config.num_peers,
               .ps = config.hybrid.ps,
               .params = config.hybrid,
               .network = {.model_transmission_delay =
                               config.model_transmission_delay,
                           .track_link_stress = config.track_link_stress}},
              topo_rng, build_rng};
  sim::Simulator& sim = world.sim();
  const net::Underlay& underlay = world.underlay();
  proto::OverlayNetwork& network = world.network();
  HybridSystem& system = world.system();

  RunResult result;

  // ---- Observability wiring -------------------------------------------------
  if (config.tracer != nullptr) {
    network.set_span_recorder(config.tracer);
    system.set_tracer(config.tracer);
  }
  if (config.flight != nullptr) {
    attach_flight_recorder(*config.flight, sim, network);
  }
  if (config.profiler != nullptr) {
    sim.set_dispatch_probe(config.profiler);
    network.set_profiler(config.profiler);
  }
  std::optional<stats::TimeSeriesSampler> sampler;
  if (config.sample_period > sim::Duration{}) {
    sampler.emplace(sim, config.sample_period);
    sampler->add_gauge("live_peers", [&system] {
      return static_cast<double>(system.live_peers().size());
    });
    sampler->add_gauge("tpeers", [&system] {
      return static_cast<double>(system.num_tpeers());
    });
    sampler->add_gauge("speers", [&system] {
      return static_cast<double>(system.num_speers());
    });
    sampler->add_gauge("pending_lookups", [&system] {
      return static_cast<double>(system.pending_lookups());
    });
    sampler->add_gauge("messages_sent", [&network] {
      return static_cast<double>(network.stats().messages_sent);
    });
    sampler->add_gauge("messages_delivered", [&network] {
      return static_cast<double>(network.stats().messages_delivered);
    });
    sampler->add_gauge("events_pending", [&sim] {
      return static_cast<double>(sim.pending_events());
    });
    if (config.profiler != nullptr) {
      // Occupancy gauges for profiled runs only: heap and RSS values are
      // allocator/wall-clock dependent, and the repro tests compare
      // profiler-off timeseries byte-for-byte across same-seed runs.
      sampler->add_gauge("arena_slots", [&sim] {
        return static_cast<double>(sim.arena_slots());
      });
      sampler->add_gauge("arena_live_slots", [&sim] {
        return static_cast<double>(sim.arena_live_slots());
      });
      sampler->add_gauge("event_backlog", [&sim] {
        return static_cast<double>(sim.queue_depth());
      });
      sampler->add_gauge("heap_live_bytes", [] {
        return static_cast<double>(alloc_stats::live_bytes());
      });
      sampler->add_gauge("vm_rss_bytes", [] {
        return static_cast<double>(current_rss_bytes());
      });
    }
  }
  // Invariant auditing: explicit period from the config, or a 1 s default
  // behind HP2P_AUDIT=1.  Periodic passes run lenient checks mid-churn; a
  // final pass closes every phase at quiescence.  Debug builds always audit
  // phase boundaries, so churn bugs surface in tests without any opt-in.
  sim::Duration audit_period = config.audit_period;
  if (audit_period == sim::Duration{} && env_or("HP2P_AUDIT", std::int64_t{0}) != 0) {
    audit_period = sim::SimTime::seconds(1);
  }
#ifdef NDEBUG
  const bool audit_phases = audit_period > sim::Duration{};
#else
  const bool audit_phases = true;
#endif
  std::optional<audit::OverlayAuditor> auditor;
  if (audit_phases) {
    auditor.emplace(system, network, sim);
    if (config.flight != nullptr) auditor->set_flight_recorder(config.flight);
    if (audit_period > sim::Duration{}) auditor->set_period(audit_period);
  }

  const auto arm_sampler = [&sampler, &auditor] {
    if (sampler) sampler->ensure_running();
    if (auditor) auditor->ensure_running();
  };

  // Phase timing: host wall clock + simulated span since the last mark.
  // Wall time is measurement output only -- it never feeds back into the
  // simulation, so determinism is preserved.
  // lint:allow(wallclock)
  auto wall_mark = std::chrono::steady_clock::now();
  sim::SimTime sim_mark = sim.now();
  const auto end_phase = [&](const char* name) {
    if (auditor) auditor->run();  // quiescent(ish) audit at the boundary
    // lint:allow(wallclock)
    const auto wall_now = std::chrono::steady_clock::now();
    PhaseTiming timing;
    timing.name = name;
    timing.wall_ms =
        std::chrono::duration<double, std::milli>(wall_now - wall_mark)
            .count();
    timing.sim_ms = (sim.now() - sim_mark).as_millis();
    result.phases.push_back(std::move(timing));
    wall_mark = wall_now;
    sim_mark = sim.now();
  };

  // ---- Build phase ----------------------------------------------------------
  const auto roles = role_sequence(config.num_peers, config.hybrid.ps,
                                   config.tpeers_first, build_rng);
  // Host assignment: peer i -> host i+1 by default.  With capacity-sorted
  // roles, t-peers take the highest-capacity hosts (Section 5.1).
  std::vector<HostIndex> hosts;
  hosts.reserve(config.num_peers);
  for (std::uint32_t i = 0; i < config.num_peers; ++i) {
    hosts.push_back(world.next_host());
  }
  if (config.capacity_sorted_roles) {
    std::vector<HostIndex> sorted = hosts;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](HostIndex a, HostIndex b) {
                       return static_cast<int>(underlay.capacity(a)) >
                              static_cast<int>(underlay.capacity(b));
                     });
    // Fast hosts go to the t-roles (in role order), the rest to s-roles.
    std::size_t fast = 0;
    std::size_t slow = sorted.size();
    for (std::uint32_t i = 0; i < config.num_peers; ++i) {
      hosts[i] = roles[i] == Role::kTPeer ? sorted[fast++] : sorted[--slow];
    }
  }

  std::vector<PeerIndex> peers;
  peers.reserve(config.num_peers);
  std::vector<std::uint32_t> interests(config.num_peers);
  for (auto& interest : interests) {
    interest = static_cast<std::uint32_t>(
        build_rng.index(config.hybrid.num_interests));
  }
  const auto schedule_join = [&](std::uint32_t i, std::int64_t slot) {
    // Tag the driver's events as workload: the join itself re-tags to
    // membership inside add_peer_with_interest, so only the experiment
    // bookkeeping stays attributed here.
    sim::ComponentScope prof{sim, sim::Component::kWorkload};
    sim.schedule_after(
        sim::SimTime::micros(slot * config.join_spacing.as_micros()),
        [&, i] {
          peers.push_back(system.add_peer_with_interest(
              hosts[i], roles[i], interests[i],
              [&result](proto::JoinResult r) {
                ++result.joins_completed;
                result.join_latency_ms.add(r.latency.as_millis());
                result.join_hops.add(static_cast<double>(r.request_hops));
              }));
        });
  };
  if (config.tpeers_first) {
    // Two-phase build: the whole t-network settles (ring walks included)
    // before the first s-peer consults the server, so segment boundaries
    // and interest anchors are final.
    std::int64_t slot = 0;
    for (std::uint32_t i = 0; i < config.num_peers; ++i) {
      if (roles[i] == Role::kTPeer) schedule_join(i, slot++);
    }
    arm_sampler();
    sim.run();
    slot = 0;
    for (std::uint32_t i = 0; i < config.num_peers; ++i) {
      if (roles[i] == Role::kSPeer) schedule_join(i, slot++);
    }
    arm_sampler();
    sim.run();
  } else {
    for (std::uint32_t i = 0; i < config.num_peers; ++i) {
      schedule_join(i, static_cast<std::int64_t>(i));
    }
    arm_sampler();
    sim.run();
  }

  // Finger-accelerated routing needs populated tables; the hybrid paper
  // leaves finger construction to Chord-style maintenance, which we fold
  // into one post-build refresh (see HybridSystem::refresh_all_fingers).
  if (config.hybrid.t_routing == hybrid::TRouting::kFinger) {
    system.refresh_all_fingers();
  }
  end_phase("build");

  // ---- Populate phase -------------------------------------------------------
  std::vector<DataId> stored_ids;
  stored_ids.reserve(config.num_items);
  // Interest-tagged content, bucketed by interest so interest-local
  // lookups can target own-interest items (Section 5.3 workload).
  std::vector<std::vector<DataId>> by_interest(config.hybrid.num_interests);
  const auto corpus = workload::uniform_corpus(config.num_items, config.seed);
  for (std::size_t i = 0; i < config.num_items; ++i) {
    sim::ComponentScope prof{sim, sim::Component::kWorkload};
    sim.schedule_after(
        sim::SimTime::micros(static_cast<std::int64_t>(i) *
                             config.op_spacing.as_micros()),
        [&, i] {
          const auto& live = system.live_peers();
          if (live.empty()) return;
          const PeerIndex origin = live[op_rng.index(live.size())];
          DataId id = corpus[i].id;
          if (config.interest_locality > 0.0 &&
              op_rng.chance(config.interest_locality)) {
            // Publish content of the origin's interest: the id falls in the
            // interest's anchor band, regardless of assignment policy.
            const std::uint32_t interest = system.interest_of(origin);
            id = workload::interest_band_id(op_rng, interest,
                                            config.hybrid.num_interests);
            by_interest[interest].push_back(id);
          }
          stored_ids.push_back(id);
          system.store_id(origin, id, corpus[i].key, corpus[i].value);
        });
  }
  arm_sampler();
  sim.run();
  end_phase("populate");

  // ---- Optional crash / maintenance phase ---------------------------------------
  const bool heartbeats = config.crash_fraction > 0.0 ||
                          config.failure_detection;
  if (heartbeats) {
    system.start_failure_detection();
    if (config.crash_fraction > 0.0) {
      // Snapshot by value: crash() invalidates the live_peers() cache the
      // reference points into.
      auto victims = system.live_peers();
      op_rng.shuffle(victims);
      const auto n_crash = static_cast<std::size_t>(
          config.crash_fraction * static_cast<double>(victims.size()));
      for (std::size_t i = 0; i < n_crash && i < victims.size(); ++i) {
        system.crash(victims[i]);
      }
      // Audit straight after the crash batch: the lenient checks must hold
      // even in the most disturbed state of the run.
      if (auditor) auditor->run();
    }
    arm_sampler();
    sim.run_until(sim.now() + config.recovery_time);
    end_phase("maintenance");
  }

  // ---- Lookup phase -----------------------------------------------------------
  std::optional<workload::ZipfSampler> zipf;
  if (config.zipf_exponent > 0.0 && !stored_ids.empty()) {
    zipf.emplace(stored_ids.size(), config.zipf_exponent);
  }
  const sim::SimTime lookup_phase_start = sim.now();
  for (std::size_t i = 0; i < config.num_lookups; ++i) {
    sim::ComponentScope prof{sim, sim::Component::kWorkload};
    sim.schedule_after(
        sim::SimTime::micros(static_cast<std::int64_t>(i) *
                             config.op_spacing.as_micros()),
        [&] {
          const auto& live = system.live_peers();
          if (live.empty() || stored_ids.empty()) return;
          const std::size_t pool =
              config.lookup_origin_pool > 0
                  ? std::min(config.lookup_origin_pool, live.size())
                  : live.size();
          const PeerIndex origin = live[op_rng.index(pool)];
          DataId target =
              zipf ? stored_ids[zipf->sample(op_rng)]
                   : stored_ids[op_rng.index(stored_ids.size())];
          if (config.interest_locality > 0.0 &&
              op_rng.chance(config.interest_locality)) {
            const auto& mine = by_interest[system.interest_of(origin)];
            if (!mine.empty()) target = mine[op_rng.index(mine.size())];
          }
          system.lookup_id(origin, target,
                           [&result, &config](proto::LookupResult r) {
                             result.lookups.record(r);
                             if (r.success) {
                               result.lookup_latency_ms.add(
                                   r.latency.as_millis());
                               result.lookup_hops.add(
                                   static_cast<double>(r.request_hops));
                             } else if (config.flight != nullptr &&
                                        result.lookups.failed == 1) {
                               // First failure of the run: dump the tail so
                               // the final moments are inspectable.
                               config.flight->dump(std::cerr,
                                                   "first lookup failure");
                             }
                           });
        });
  }
  // Drain: with heartbeats running the queue never empties, so bound the
  // phase explicitly (ops + timeout + slack).
  const auto phase_span = sim::SimTime::micros(
      static_cast<std::int64_t>(config.num_lookups) *
      config.op_spacing.as_micros());
  arm_sampler();
  if (heartbeats) {
    sim.run_until(lookup_phase_start + phase_span +
                  config.hybrid.lookup_timeout + sim::SimTime::seconds(5));
  } else {
    sim.run();
  }
  end_phase("lookup");

  // ---- Collection ----------------------------------------------------------------
  result.items_per_peer = system.items_per_peer();
  result.network = network.stats();
  result.sim_stats = sim.stats();
  result.num_tpeers = system.num_tpeers();
  result.num_speers = system.num_speers();
  result.bypass_installs = system.bypass_installs();
  result.bypass_uses = system.bypass_uses();
  result.max_answers_served = system.max_answers_served();
  result.cache_hits = system.cache_hits();
  result.replica_pushes = system.replica_pushes();
  result.re_replication_pushes = system.re_replication_pushes();
  result.anti_entropy_repairs = system.anti_entropy_repairs();
  result.read_repairs = system.read_repairs();
  {
    // Durability census: which stored ids does some live joined peer still
    // hold?  Ordered set keeps the scan deterministic and dedups the corpus
    // (interest-band collisions can store one id twice).
    std::set<std::uint64_t> stored;
    for (const DataId id : stored_ids) stored.insert(id.value());
    std::set<std::uint64_t> recoverable;
    for (const PeerIndex p : system.live_peers()) {
      if (!system.is_joined(p)) continue;
      system.store_of(p).for_each([&](const proto::DataItem& item) {
        if (stored.count(item.id.value()) > 0) {
          recoverable.insert(item.id.value());
        }
      });
    }
    result.items_stored = stored.size();
    result.items_recoverable = recoverable.size();
  }
  if (network.link_stress() != nullptr) {
    result.mean_link_stress = network.link_stress()->mean_stress();
  }
  for (const PeerIndex p : system.live_peers()) {
    std::size_t degree = system.children_of(p).size();
    if (system.role_of(p) == hybrid::Role::kSPeer) ++degree;
    result.max_tree_degree = std::max(result.max_tree_degree, degree);
  }
  {
    double t_traffic = 0;
    double s_traffic = 0;
    std::size_t t_n = 0;
    std::size_t s_n = 0;
    for (const PeerIndex p : system.live_peers()) {
      const double traffic =
          static_cast<double>(network.messages_sent_by(p) +
                              network.messages_received_by(p));
      if (system.role_of(p) == hybrid::Role::kTPeer) {
        t_traffic += traffic;
        ++t_n;
      } else {
        s_traffic += traffic;
        ++s_n;
      }
    }
    result.mean_tpeer_traffic = t_n > 0 ? t_traffic / static_cast<double>(t_n) : 0;
    result.mean_speer_traffic = s_n > 0 ? s_traffic / static_cast<double>(s_n) : 0;
  }
  if (network.link_stress() != nullptr) {
    result.max_link_stress = network.link_stress()->max_stress();
  }
  if (sampler) {
    sampler->sample_now();  // closing sample at the final sim time
    result.timeseries = sampler->take();
  }
  if (auditor) {
    result.audit_runs = auditor->runs();
    result.audit_violations = auditor->total_violations();
    if (result.audit_violations > 0) {
      // Loud even when the caller never exports these counters (figure-curve
      // replicas aggregate only their plotted metrics).
      std::cerr << "warning: overlay audit found " << result.audit_violations
                << " violation(s): "
                << auditor->last_failing_report().to_json().dump() << "\n";
    }
  }
  return result;
}

void attach_flight_recorder(stats::FlightRecorder& flight, sim::Simulator& sim,
                            proto::OverlayNetwork& network) {
  sim.set_trace([&flight, &sim](const sim::TraceEvent& e) {
    const char* kind = "sim:schedule";
    switch (e.kind) {
      case sim::TraceEvent::Kind::kSchedule: kind = "sim:schedule"; break;
      case sim::TraceEvent::Kind::kFire: kind = "sim:fire"; break;
      case sim::TraceEvent::Kind::kCancel: kind = "sim:cancel"; break;
    }
    flight.record(sim.now(), kind, e.seq,
                  static_cast<std::uint64_t>(e.when.as_micros()));
  });
  network.set_trace([&flight, &sim](const proto::NetTraceEvent& e) {
    const char* kind = "net:send";
    switch (e.kind) {
      case proto::NetTraceEvent::Kind::kSend: kind = "net:send"; break;
      case proto::NetTraceEvent::Kind::kDeliver: kind = "net:deliver"; break;
      case proto::NetTraceEvent::Kind::kDropDeadSender:
        kind = "net:drop_dead_sender";
        break;
      case proto::NetTraceEvent::Kind::kDropDeadReceiver:
        kind = "net:drop_dead_receiver";
        break;
      case proto::NetTraceEvent::Kind::kLoss: kind = "net:loss"; break;
      case proto::NetTraceEvent::Kind::kDropTtl: kind = "net:drop_ttl"; break;
      case proto::NetTraceEvent::Kind::kDropNoRoute:
        kind = "net:drop_no_route";
        break;
    }
    flight.record(sim.now(), kind, e.from.value(), e.to.value(), e.bytes);
  });
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

}  // namespace exp
