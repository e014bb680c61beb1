// The one way to judge a simulated run: audit passes, ring and tree
// verdicts, post-hoc verdicts on lookups issued mid-run, and the quiescent
// MUST/MAY oracle wave, all feeding one Violation list.  Callers differ
// only in the data they pass (wave pairs, deadline, strict or lenient
// audits), never in how a verdict is reached.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/overlay_auditor.hpp"
#include "chaos/reference_model.hpp"
#include "exp/world.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/json.hpp"

namespace hp2p::chaos {

struct Violation {
  const char* kind = "";  // stable name (string literal)
  std::string detail;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  [[nodiscard]] stats::JsonValue to_json() const;
  [[nodiscard]] std::string str() const;  // "kind: detail"
};

/// A lookup issued while the run is live, judged after it settles.
struct TrackedLookup {
  DataId id{};
  PeerIndex origin = kNoPeer;
  bool issued = false;
  bool must_at_issue = false;  // data was live at the first issue
  bool done = false;
  bool success = false;
};

enum class InRunVerdict { kWedged, kSucceeded, kFailed, kMustFailed };

struct WaveTally {
  std::uint32_t must_issued = 0;
  std::uint32_t may_issued = 0;
  std::uint32_t must_failed = 0;
  std::uint32_t may_failed = 0;
};

class Judge {
 public:
  /// `world` must outlive the Judge; `flight` (optional, not owned) gets
  /// one record per violation.
  explicit Judge(exp::World& world, stats::FlightRecorder* flight = nullptr);

  [[nodiscard]] ReferenceModel& model() { return model_; }
  [[nodiscard]] std::vector<Violation> take_violations() {
    return std::move(violations_);
  }
  void add(const char* kind, std::string detail, std::uint64_t a = 0,
           std::uint64_t b = 0);

  /// Installs a fresh auditor that observes floods from now on and, with a
  /// nonzero `period`, audits every `period` of sim time.
  void watch(bool strict, sim::Duration period = {});
  /// One pass of the installed auditor; findings become `kind` violations.
  std::uint32_t audit(const char* kind);
  /// The periodic passes' last failing report, as `kind` violations.
  void audit_periodic(const char* kind);

  /// {verify_ring(), verify_trees()}; failures record ring/trees_broken.
  std::pair<bool, bool> check_structure();

  /// Marks `slot` issued from `origin`; must_at_issue is pinned on the
  /// first call only, so client retries keep it.
  void note_issue(TrackedLookup& slot, PeerIndex origin) const;
  /// note_issue() plus the lookup, recorded into `slot` (which must stay
  /// put until the lookup completes).
  void issue(TrackedLookup& slot, PeerIndex origin);
  /// A failure is a `must_kind` violation only when the oracle said MUST at
  /// issue and still says MUST now; an unfinished lookup is lookup_wedged.
  InRunVerdict judge_in_run(const TrackedLookup& lookup,
                            const char* must_kind);

  /// (storing peer, id) for every recorded store, in id order.
  [[nodiscard]] std::vector<std::pair<PeerIndex, DataId>> stored_pairs()
      const;
  /// Classifies each (origin, id), issues it, runs the kernel `deadline`
  /// past now, then records wedged lookups, MUST failures and leftover
  /// pending lookups.
  WaveTally wave(const std::vector<std::pair<PeerIndex, DataId>>& pairs,
                 sim::Duration deadline);

 private:
  exp::World& world_;
  stats::FlightRecorder* flight_;
  ReferenceModel model_;
  std::optional<audit::OverlayAuditor> auditor_;
  std::vector<Violation> violations_;
};

}  // namespace hp2p::chaos
