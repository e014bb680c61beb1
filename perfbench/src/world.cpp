#include "world.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "audit/overlay_auditor.hpp"
#include "common/alloc_stats.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "hybrid/hybrid_system.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "stats/profiler.hpp"
#include "stats/trace.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

namespace hybrid = hp2p::hybrid;
namespace proto = hp2p::proto;
namespace sim = hp2p::sim;
using hp2p::DataId;
using hp2p::HostIndex;
using hp2p::PeerIndex;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Everything one round simulates, built from the public constructors in
/// dependency order (and destroyed in reverse, the Rngs last: the system
/// keeps a reference to its Rng).
struct World {
  World(const WorkloadSpec& spec, std::uint64_t seed)
      : topo_rng(spec.topology_seed), build_rng(seed) {
    const auto t0 = Clock::now();
    // WorkloadSpec::hosts_needed() plus the server's.
    const auto ts =
        hp2p::net::TransitStubParams::for_total_nodes(spec.hosts_needed() + 1);
    underlay = std::make_unique<hp2p::net::Underlay>(
        hp2p::net::generate_transit_stub(ts, topo_rng), topo_rng);
    net_setup_ms = seconds_between(t0, Clock::now()) * 1e3;
    simulator = std::make_unique<sim::Simulator>();
    network = std::make_unique<proto::OverlayNetwork>(*simulator, *underlay);
    system = std::make_unique<hybrid::HybridSystem>(
        *network, spec.params, HostIndex{0}, build_rng);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  hp2p::Rng topo_rng;
  hp2p::Rng build_rng;
  double net_setup_ms = 0;
  std::unique_ptr<hp2p::net::Underlay> underlay;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<proto::OverlayNetwork> network;
  std::unique_ptr<hybrid::HybridSystem> system;
};

/// Drives one op stream through one world and records the outcomes.
class Round {
 public:
  Round(const WorkloadSpec& spec, const OpStream& stream, World& world,
        RoundResult& result)
      : spec_(spec),
        stream_(stream),
        w_(world),
        sim_(*world.simulator),
        sys_(*world.system),
        r_(result),
        stored_(stream.items.size(), false) {}

  void run_phase(Phase phase);
  void gate();
  void census();

 private:
  /// Runs ops [begin, end) on the feeder chain, then lets the simulation
  /// settle: drained when no heartbeats run, else until `until` (relative to
  /// the segment start).
  void run_segment(std::uint32_t begin, std::uint32_t end,
                   std::int64_t until_us);
  void feed(std::uint32_t i, std::uint32_t end, sim::SimTime base);
  void exec(const Op& op);
  /// One attempt of join `slot` (an index into joins_), from a fresh host.
  void start_join(std::size_t slot, bool may_retry);
  PeerIndex pick_live(std::uint64_t pick);
  PeerIndex pick_victim(std::uint64_t pick);
  void refresh_fingers();
  /// Refreshes every finger_refresh_us through the churn window.
  void arm_refreshes(std::int64_t window_us);

  struct Join {
    bool tpeer = false;
    sim::SimTime issued;
    bool done = false;
  };

  const WorkloadSpec& spec_;
  const OpStream& stream_;
  World& w_;
  sim::Simulator& sim_;
  hybrid::HybridSystem& sys_;
  RoundResult& r_;
  std::vector<bool> stored_;
  std::vector<Join> joins_;
  Phase phase_ = Phase::kBuild;
  std::uint32_t next_host_ = 1;  // host 0 is the server's
};

void Round::run_phase(Phase phase) {
  const auto p = static_cast<int>(phase);
  phase_ = phase;
  const auto wall0 = Clock::now();
  const sim::SimTime sim0 = sim_.now();
  const std::uint32_t begin = stream_.phase_begin[p];
  const std::uint32_t end = stream_.phase_begin[p + 1];
  switch (phase) {
    case Phase::kBuild: {
      // A barrier op starts a drained sub-phase (the t-peers-first build
      // admits the whole ring before any s-peer).
      std::uint32_t seg = begin;
      for (std::uint32_t i = begin + 1; i <= end; ++i) {
        if (i == end || stream_.ops[i].barrier) {
          run_segment(seg, i, 0);
          seg = i;
        }
      }
      if (spec_.params.t_routing == hybrid::TRouting::kFinger) {
        refresh_fingers();
      }
      break;
    }
    case Phase::kLoad:
      run_segment(begin, end, 0);
      break;
    case Phase::kMain:
      if (spec_.heartbeats) {
        sys_.start_failure_detection();
        arm_refreshes(spec_.main_window_us);
      }
      run_segment(begin, end, spec_.main_window_us);
      break;
    case Phase::kSettle:
      if (spec_.heartbeats) {
        run_segment(begin, end, spec_.settle_us);
        if (spec_.params.t_routing == hybrid::TRouting::kFinger) {
          refresh_fingers();
        }
      }
      break;
  }
  r_.phase_wall_s[p] = seconds_between(wall0, Clock::now());
  r_.phase_sim_s[p] = (sim_.now() - sim0).as_seconds();
}

void Round::run_segment(std::uint32_t begin, std::uint32_t end,
                        std::int64_t until_us) {
  const sim::SimTime base = sim_.now();
  if (begin < end) {
    sim::ComponentScope tag{sim_, sim::Component::kWorkload};
    sim_.schedule_at(base + sim::SimTime::micros(stream_.ops[begin].at_us),
                     [this, begin, end, base] { feed(begin, end, base); });
  }
  if (spec_.heartbeats && until_us > 0) {
    sim_.run_until(base + sim::SimTime::micros(until_us));
  } else {
    sim_.run();
  }
}

void Round::feed(std::uint32_t i, std::uint32_t end, sim::SimTime base) {
  // Ops due at the same instant run in stream order within one event.
  const std::int64_t at = stream_.ops[i].at_us;
  while (i < end && stream_.ops[i].at_us == at) exec(stream_.ops[i++]);
  if (i < end) {
    sim_.schedule_at(base + sim::SimTime::micros(stream_.ops[i].at_us),
                     [this, i, end, base] { feed(i, end, base); });
  }
}

PeerIndex Round::pick_live(std::uint64_t pick) {
  const auto& live = sys_.live_peers();
  if (live.empty()) return hp2p::kNoPeer;
  return live[pick % live.size()];
}

PeerIndex Round::pick_victim(std::uint64_t pick) {
  // Walk forward from the draw to the first peer not mid-join/leave, so
  // one draw always names the same peer for a given membership.
  const auto& live = sys_.live_peers();
  for (std::size_t k = 0; k < live.size(); ++k) {
    const PeerIndex p = live[(pick + k) % live.size()];
    if (!sys_.is_leaving(p) && !sys_.is_joining(p)) return p;
  }
  return hp2p::kNoPeer;
}

void Round::exec(const Op& op) {
  ++r_.attempted;
  switch (op.kind) {
    case Op::Kind::kJoin: {
      ++r_.joins_issued;
      joins_.push_back(Join{op.tpeer, sim_.now()});
      start_join(joins_.size() - 1,
                 phase_ == Phase::kMain && spec_.join_retry_us > 0);
      return;
    }
    case Op::Kind::kStore: {
      const PeerIndex from = pick_live(op.pick);
      if (from == hp2p::kNoPeer) {
        ++r_.no_actor;
        return;
      }
      const Item& it = stream_.items[op.item];
      stored_[op.item] = true;
      ++r_.items_stored;
      sys_.store_id(from, DataId{it.id}, it.key, it.value);
      return;
    }
    case Op::Kind::kLookup: {
      ++r_.lookup_attempts;
      const PeerIndex from = pick_live(op.pick);
      if (from == hp2p::kNoPeer || !stored_[op.item]) {
        ++r_.no_actor;
        return;
      }
      ++r_.lookups_issued;
      const std::uint64_t expect = stream_.items[op.item].value;
      sys_.lookup_id(from, DataId{stream_.items[op.item].id},
                     [this, expect](proto::LookupResult lr) {
                       ++r_.lookups_done;
                       r_.contacted += lr.peers_contacted;
                       if (!lr.success) return;
                       ++r_.lookups_ok;
                       r_.lookup_ms.push_back(lr.latency.as_millis());
                       if (lr.value != expect) ++r_.wrong_values;
                     });
      return;
    }
    case Op::Kind::kLeave:
    case Op::Kind::kCrash: {
      const PeerIndex victim = pick_victim(op.pick);
      if (victim == hp2p::kNoPeer) {
        ++r_.no_actor;
        return;
      }
      if (op.kind == Op::Kind::kLeave) {
        sys_.leave(victim);
      } else {
        sys_.crash(victim);
      }
      return;
    }
  }
}

void Round::start_join(std::size_t slot, bool may_retry) {
  const auto role =
      joins_[slot].tpeer ? hybrid::Role::kTPeer : hybrid::Role::kSPeer;
  const sim::Duration waited = sim_.now() - joins_[slot].issued;
  sys_.add_peer_with_role(HostIndex{next_host_++}, role,
                          [this, slot, waited](proto::JoinResult jr) {
                            // The first attempt to finish completes the op.
                            if (joins_[slot].done) return;
                            joins_[slot].done = true;
                            r_.join_ms.push_back((waited + jr.latency).as_millis());
                          });
  if (!may_retry) return;
  sim::ComponentScope tag{sim_, sim::Component::kWorkload};
  sim_.schedule_after(sim::SimTime::micros(spec_.join_retry_us),
                      [this, slot] {
                        if (joins_[slot].done) return;
                        ++r_.join_retries;
                        start_join(slot, false);
                      });
}

void Round::refresh_fingers() {
  const auto t0 = Clock::now();
  sys_.refresh_all_fingers();
  r_.refresh_ms += seconds_between(t0, Clock::now()) * 1e3;
  ++r_.refreshes;
}

void Round::arm_refreshes(std::int64_t window_us) {
  if (spec_.params.t_routing != hybrid::TRouting::kFinger ||
      spec_.finger_refresh_us <= 0) {
    return;
  }
  sim::ComponentScope tag{sim_, sim::Component::kWorkload};
  for (std::int64_t at = spec_.finger_refresh_us; at < window_us;
       at += spec_.finger_refresh_us) {
    sim_.schedule_after(sim::SimTime::micros(at),
                        [this] { refresh_fingers(); });
  }
}

void Round::gate() {
  auto& errors = r_.gate_errors;
  if (r_.lookups_done != r_.lookups_issued) {
    errors.push_back(std::to_string(r_.lookups_issued - r_.lookups_done) +
                     " lookup(s) never completed");
  }
  if (r_.wrong_values > 0) {
    errors.push_back(std::to_string(r_.wrong_values) +
                     " successful lookup(s) returned a value other than the "
                     "stored one");
  }
  if (!sys_.verify_ring()) errors.emplace_back("verify_ring() failed");
  if (!sys_.verify_trees()) errors.emplace_back("verify_trees() failed");

  hp2p::audit::AuditOptions strict;
  strict.strict = true;
  auto report = hp2p::audit::OverlayAuditor{sys_, *w_.network, sim_, strict}.run();
  // The strict degree cap is a churn-free contract: a promotion hands the
  // old root's children to the heir, which may then exceed delta (see
  // HybridSystem::verify_trees).  After churn the cap is held to the
  // auditor's own lenient bound (2 x delta) instead; every other strict
  // family stays exact.
  if (spec_.churn_events() > 0 && report.has("tree_degree_cap")) {
    const auto lenient =
        hp2p::audit::OverlayAuditor{sys_, *w_.network, sim_}.run();
    if (!lenient.has("tree_degree_cap")) {
      auto& v = report.violations;
      const auto excused = std::erase_if(v, [](const auto& x) {
        return std::string_view{x.invariant} == "tree_degree_cap";
      });
      r_.degree_cap_excused = excused;
    }
  }
  if (!report.clean()) {
    const auto& v = report.violations.front();
    errors.push_back("strict audit: " +
                     std::to_string(report.violations.size()) +
                     " violation(s), first " + v.invariant + " at peer " +
                     std::to_string(v.peer.value()) + ": expected " +
                     v.expected + ", got " + v.actual);
  }
}

void Round::census() {
  // Stored ids still held by some live joined peer.
  std::unordered_map<std::uint64_t, bool> held;
  for (std::size_t i = 0; i < stream_.items.size(); ++i) {
    if (stored_[i]) held.emplace(stream_.items[i].id, false);
  }
  for (const PeerIndex p : sys_.live_peers()) {
    sys_.store_of(p).for_each([&](const proto::DataItem& item) {
      const auto it = held.find(item.id.value());
      if (it != held.end()) it->second = true;
    });
  }
  r_.items_available = static_cast<std::uint64_t>(
      std::count_if(held.begin(), held.end(),
                    [](const auto& kv) { return kv.second; }));
  r_.net = w_.network->stats();
  r_.sim = sim_.stats();
  r_.cache_hits = sys_.cache_hits();
  r_.bypass_uses = sys_.bypass_uses();
  r_.replica_pushes = sys_.replica_pushes();
  r_.anti_entropy_repairs = sys_.anti_entropy_repairs();
  r_.read_repairs = sys_.read_repairs();
}

std::uint64_t digest_of(const RoundResult& r) {
  std::string b;
  append_u64(b, r.attempted);
  append_u64(b, r.no_actor);
  for (const double s : r.phase_sim_s) append_f64(b, s);
  append_u64(b, r.lookup_ms.size());
  for (const double v : r.lookup_ms) append_f64(b, v);
  append_u64(b, r.join_ms.size());
  for (const double v : r.join_ms) append_f64(b, v);
  for (const std::uint64_t v :
       {r.lookup_attempts, r.lookups_issued, r.lookups_done, r.lookups_ok, r.wrong_values,
        r.contacted, r.joins_issued, r.join_retries, r.items_stored,
        r.items_available,
        r.net.messages_sent, r.net.messages_delivered, r.net.messages_dropped,
        r.net.messages_lost, r.net.messages_in_flight, r.net.bytes_sent,
        r.sim.events_scheduled, r.sim.events_executed, r.sim.events_cancelled,
        r.sim.corpses_skipped, r.cache_hits, r.bypass_uses, r.replica_pushes,
        r.anti_entropy_repairs, r.read_repairs}) {
    append_u64(b, v);
  }
  for (std::size_t c = 0; c < proto::kNumTrafficClasses; ++c) {
    append_u64(b, r.net.per_class_messages[c]);
    append_u64(b, r.net.per_class_bytes[c]);
  }
  for (std::size_t d = 0; d < proto::kNumDropReasons; ++d) {
    append_u64(b, r.net.drops_by_reason[d]);
  }
  return hp2p::fnv1a64(b);
}

/// Median simulated time per lookup stage over the lookups that entered
/// the stage (stage spans are children of a "lookup" root span).
void stage_medians(const hp2p::stats::SpanRecorder& spans,
                   std::map<std::string, double>& out) {
  static constexpr const char* kStages[] = {"climb", "ring", "bypass",
                                            "flood", "reply"};
  std::unordered_set<std::uint64_t> lookup_traces;
  for (const auto& s : spans.spans()) {
    if (s.parent == 0 && std::string_view{s.category} == "lookup") {
      lookup_traces.insert(s.trace_id);
    }
  }
  // (trace, stage) -> summed duration; a lookup may re-enter a stage.
  std::vector<std::unordered_map<std::uint64_t, double>> per_stage(
      std::size(kStages));
  for (const auto& s : spans.spans()) {
    if (s.instant || s.parent == 0 || lookup_traces.count(s.trace_id) == 0) {
      continue;
    }
    for (std::size_t k = 0; k < std::size(kStages); ++k) {
      if (std::string_view{s.name} == kStages[k]) {
        per_stage[k][s.trace_id] += s.duration_ms();
      }
    }
  }
  for (std::size_t k = 0; k < std::size(kStages); ++k) {
    std::vector<double> v;
    v.reserve(per_stage[k].size());
    for (const auto& kv : per_stage[k]) v.push_back(kv.second);
    out[std::string("hybrid.stage.") + kStages[k] + ".p50_ms"] = median(v);
  }
  out["trace.dropped_spans"] = static_cast<double>(spans.dropped_spans());
}

void profile_layers(const hp2p::stats::Profiler& prof,
                    std::map<std::string, double>& out) {
  const double dispatch = static_cast<double>(prof.dispatch_ns_total());
  const auto share = [dispatch](double ns) {
    return dispatch > 0 ? ns / dispatch : 0.0;
  };
  static constexpr std::pair<sim::Component, const char*> kComponents[] = {
      {sim::Component::kMembership, "membership"},
      {sim::Component::kRing, "ring"},
      {sim::Component::kFlood, "flood"},
      {sim::Component::kBypass, "bypass"},
      {sim::Component::kData, "data"},
      {sim::Component::kReplication, "replication"},
  };
  for (const auto& [comp, name] : kComponents) {
    const auto t = prof.component_total(comp);
    const std::string base = std::string("hybrid.") + name;
    const double events = static_cast<double>(t.enters);
    out[base + ".cpu_ms"] = static_cast<double>(t.cpu_ns) / 1e6;
    out[base + ".cpu_share"] = share(static_cast<double>(t.cpu_ns));
    out[base + ".ns_per_event"] =
        events > 0 ? static_cast<double>(t.cpu_ns) / events : 0.0;
    out[base + ".allocs_per_event"] =
        events > 0 ? static_cast<double>(t.allocs) / events : 0.0;
  }
  out["driver.cpu_share"] = share(static_cast<double>(
      prof.component_total(sim::Component::kWorkload).cpu_ns));
  out["profile.attributed_fraction"] =
      share(static_cast<double>(prof.attributed_ns()));
  const auto json = prof.to_json();
  const auto* types = json.find("message_types");
  for (std::size_t c = 0; c < proto::kNumTrafficClasses; ++c) {
    const char* name =
        proto::traffic_class_name(static_cast<proto::TrafficClass>(c));
    double ns = 0;
    if (types != nullptr) {
      if (const auto* entry = types->find(name)) {
        if (const auto* cpu = entry->find("cpu_ns")) ns = cpu->as_double();
      }
    }
    out[std::string("proto.cpu_ns.") + name] = ns;
  }
}

/// Host nanoseconds per Underlay::latency() call over a seeded sample of
/// host pairs (the query every message send makes).
double underlay_latency_ns(const hp2p::net::Underlay& underlay,
                           std::uint64_t seed) {
  constexpr int kQueries = 200'000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(kQueries);
  hp2p::Rng rng{seed ^ 0x1a7e0c1ULL};
  const std::uint32_t n = underlay.num_hosts();
  for (auto& [a, b] : pairs) {
    a = static_cast<std::uint32_t>(rng.index(n));
    b = static_cast<std::uint32_t>(rng.index(n));
  }
  std::int64_t sink = 0;
  const auto t0 = Clock::now();
  for (const auto& [a, b] : pairs) {
    sink += underlay.latency(HostIndex{a}, HostIndex{b}).as_micros();
  }
  const double ns = seconds_between(t0, Clock::now()) * 1e9 / kQueries;
  // Keep the loop observable.
  if (sink == -1) return -1;
  return ns;
}

}  // namespace

RoundResult run_round(const WorkloadSpec& spec, const OpStream& stream,
                      std::uint64_t seed, const RoundOptions& options) {
  RoundResult r;
  const std::uint64_t live0 = hp2p::alloc_stats::live_bytes();
  World world{spec, seed};
  r.net_setup_ms = world.net_setup_ms;
  r.routing_bytes = world.underlay->routing_memory_bytes();
  r.hierarchical =
      world.underlay->routing_mode() == hp2p::net::RoutingMode::kHierarchical;

  std::unique_ptr<hp2p::stats::Profiler> profiler;
  std::unique_ptr<hp2p::stats::SpanRecorder> spans;
  if (options.traced) {
    profiler = std::make_unique<hp2p::stats::Profiler>();
    // Bounded: lookup_flood alone would record ~5M spans; lookups issued
    // after the cap are left out of the stage medians (trace.dropped_spans).
    spans = std::make_unique<hp2p::stats::SpanRecorder>(std::size_t{2} << 20);
    world.simulator->set_dispatch_probe(profiler.get());
    world.network->set_profiler(profiler.get());
    world.network->set_span_recorder(spans.get());
    world.system->set_tracer(spans.get());
  }

  Round round{spec, stream, world, r};
  const std::uint64_t allocs0 = hp2p::alloc_stats::allocation_count();
  const std::uint64_t bytes0 = hp2p::alloc_stats::allocated_bytes();
  const auto window0 = Clock::now();
  for (int p = 0; p < kNumPhases; ++p) round.run_phase(static_cast<Phase>(p));
  r.window_s = seconds_between(window0, Clock::now());
  r.allocs = hp2p::alloc_stats::allocation_count() - allocs0;
  r.alloc_bytes = hp2p::alloc_stats::allocated_bytes() - bytes0;
  r.live_bytes = hp2p::alloc_stats::live_bytes() - live0;

  // Untimed: outcome census, then the correctness gate.
  round.census();
  r.sim_digest = digest_of(r);
  if (options.traced) {
    world.simulator->set_dispatch_probe(nullptr);
    profile_layers(*profiler, r.layers);
    stage_medians(*spans, r.layers);
    r.layers["net.latency_ns"] = underlay_latency_ns(*world.underlay, seed);
    if (!options.collapsed_path.empty() &&
        !profiler->write_collapsed(options.collapsed_path)) {
      r.gate_errors.push_back("cannot write " + options.collapsed_path);
    }
  }
  round.gate();
  return r;
}

double measure_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  const auto t0 = Clock::now();
  const World world{spec, seed};
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
