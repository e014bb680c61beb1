#include "chaos/judge.hpp"

#include <memory>

namespace hp2p::chaos {

stats::JsonValue Violation::to_json() const {
  auto v = stats::JsonValue::object();
  v.set("kind", kind);
  v.set("detail", detail);
  v.set("a", static_cast<std::int64_t>(a));
  v.set("b", static_cast<std::int64_t>(b));
  return v;
}

std::string Violation::str() const { return std::string(kind) + ": " + detail; }

Judge::Judge(exp::World& world, stats::FlightRecorder* flight)
    : world_(world), flight_(flight), model_(world.system()) {}

void Judge::add(const char* kind, std::string detail, std::uint64_t a,
                std::uint64_t b) {
  if (flight_ != nullptr) {
    flight_->record(world_.sim().now(), "violation", a, b,
                    violations_.size());
  }
  violations_.push_back(Violation{kind, std::move(detail), a, b});
}

void Judge::watch(bool strict, sim::Duration period) {
  // emplace() destroys the old auditor first, freeing the system's single
  // flood-observer slot for the new one.
  auditor_.emplace(world_.system(), world_.network(), world_.sim(),
                   audit::AuditOptions{.strict = strict});
  if (period > sim::Duration{}) {
    auditor_->set_period(period);
    auditor_->ensure_running();
  }
}

namespace {

std::string render(const audit::Violation& v) {
  return std::string(v.invariant) + ": expected " + v.expected + ", got " +
         v.actual + " (" + v.detail + ")";
}

}  // namespace

std::uint32_t Judge::audit(const char* kind) {
  const auto report = auditor_->run();
  for (const auto& v : report.violations) add(kind, render(v), v.peer.value());
  return static_cast<std::uint32_t>(report.violations.size());
}

void Judge::audit_periodic(const char* kind) {
  if (auditor_->total_violations() == 0) return;
  for (const auto& v : auditor_->last_failing_report().violations) {
    add(kind, render(v), v.peer.value());
  }
}

std::pair<bool, bool> Judge::check_structure() {
  const bool ring_ok = world_.system().verify_ring();
  const bool trees_ok = world_.system().verify_trees();
  if (!ring_ok) add("ring_broken", "verify_ring() failed after settle");
  if (!trees_ok) add("trees_broken", "verify_trees() failed after settle");
  return {ring_ok, trees_ok};
}

void Judge::note_issue(TrackedLookup& slot, PeerIndex origin) const {
  if (!slot.issued) {
    // Only require the data to be live: a transiently broken ring or
    // severed chain is what the hardening (ring retry, re-flood) must ride
    // out; the second classify() in judge_in_run() filters real losses.
    slot.issued = true;
    slot.must_at_issue = !model_.live_holders(slot.id).empty();
  }
  slot.origin = origin;
}

void Judge::issue(TrackedLookup& slot, PeerIndex origin) {
  note_issue(slot, origin);
  world_.system().lookup_id(origin, slot.id, [&slot](proto::LookupResult r) {
    slot.done = true;
    slot.success = r.success;
  });
}

InRunVerdict Judge::judge_in_run(const TrackedLookup& lookup,
                                 const char* must_kind) {
  if (!lookup.done) {
    add("lookup_wedged", "in-run lookup never completed", lookup.id.value(),
        lookup.origin.value());
    return InRunVerdict::kWedged;
  }
  if (lookup.success) return InRunVerdict::kSucceeded;
  if (!lookup.must_at_issue ||
      !model_.classify(lookup.origin, lookup.id).must) {
    return InRunVerdict::kFailed;
  }
  add(must_kind,
      "in-run lookup failed; oracle says MUST at issue and after recovery",
      lookup.id.value(), lookup.origin.value());
  return InRunVerdict::kMustFailed;
}

std::vector<std::pair<PeerIndex, DataId>> Judge::stored_pairs() const {
  std::vector<std::pair<PeerIndex, DataId>> pairs;
  for (const auto& [id, origin] : model_.stores()) {
    pairs.emplace_back(origin, DataId{id});
  }
  return pairs;
}

WaveTally Judge::wave(const std::vector<std::pair<PeerIndex, DataId>>& pairs,
                      sim::Duration deadline) {
  struct WaveLookup {
    Expectation exp;
    bool done = false;
    bool success = false;
  };
  // Shared with the callbacks: a lookup still pending at the deadline may
  // complete after this returns.
  auto wave = std::make_shared<std::vector<WaveLookup>>();
  wave->reserve(pairs.size());
  for (const auto& [origin, id] : pairs) {
    // Classify before issuing; with caching off a lookup does not mutate
    // membership, so the verdict holds through the wave.
    wave->push_back(WaveLookup{model_.classify(origin, id)});
    world_.system().lookup_id(
        origin, id, [wave, slot = wave->size() - 1](proto::LookupResult r) {
          (*wave)[slot].done = true;
          (*wave)[slot].success = r.success;
        });
  }
  world_.sim().run_until(world_.sim().now() + deadline);

  WaveTally tally;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const WaveLookup& w = (*wave)[i];
    const auto [origin, id] = pairs[i];
    ++(w.exp.must ? tally.must_issued : tally.may_issued);
    if (!w.done) {
      add("lookup_wedged", "oracle-wave lookup never completed", id.value(),
          origin.value());
    } else if (!w.success && !w.exp.must) {
      ++tally.may_failed;
    } else if (!w.success) {
      ++tally.must_failed;
      add("must_lookup_failed",
          std::string("MUST lookup failed (") + w.exp.reason + ")",
          id.value(), origin.value());
    }
  }
  if (world_.system().pending_lookups() != 0) {
    add("lookup_wedged", "pending_lookups() != 0 after the wave deadline",
        world_.system().pending_lookups());
  }
  return tally;
}

}  // namespace hp2p::chaos
