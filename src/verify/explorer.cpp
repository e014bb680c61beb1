#include "verify/explorer.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "chaos/shrinker.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace hp2p::verify {

namespace {

/// DFS tie-break policy with sleep-set pruning.  The explorer keeps one
/// instance across runs: the node stack *is* the DFS frontier, and each run
/// replays stack[0..depth).chosen before diverging into fresh territory.
///
/// Sleep-set bookkeeping (Godefroid): the run-local sleep set is a list of
/// still-enabled events known to lead only to already-explored states.  On
/// every fired event e it is filtered to the entries independent of e; when
/// a branch t is taken at a node, the node's finished siblings join the set
/// first (their subtrees are done, so any execution that could still reach
/// them unreordered is redundant).  An enabled event found sleeping is
/// never taken; a consultation whose every candidate sleeps proves the
/// whole continuation redundant and aborts the run.
class DfsPolicy final : public ScenarioPolicy {
 public:
  explicit DfsPolicy(bool sleep_sets) : sleep_enabled_(sleep_sets) {}

  void begin_run() {
    depth_ = 0;
    counter_ = 0;
    abort_sleeping_ = 0;
    aborted_ = false;
    sleep_.clear();
  }

  std::size_t choose(const sim::CoEnabledEvent* events,
                     std::size_t n) override {
    if (aborted_ || n == 0) return 0;
    if (n == 1) {
      if (sleep_enabled_ && in_sleep(events[0].seq)) {
        // The only runnable event is asleep: every continuation from here
        // is a reordering of an already-explored run.
        aborted_ = true;
        abort_sleeping_ = 1;
        return 0;
      }
      fire_update(events, n, nullptr);
      return 0;
    }

    const std::uint32_t decision = counter_++;
    if (depth_ < stack_.size()) {
      // Replay: deterministic re-execution re-presents the same candidate
      // set, so the stored branch index is valid as-is.
      Node& node = stack_[depth_++];
      fire_update(events, n, &node);
      return node.chosen;
    }

    // Fresh decision point: open a node, skipping sleeping branches.
    Node node;
    node.decision = decision;
    node.cands.assign(events, events + n);
    node.done.assign(n, false);
    node.sleeping.assign(n, false);
    if (sleep_enabled_) {
      for (std::size_t i = 0; i < n; ++i) {
        node.sleeping[i] = in_sleep(events[i].seq);
      }
    }
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!node.sleeping[i]) {
        pick = i;
        break;
      }
    }
    if (pick == n) {
      aborted_ = true;
      abort_sleeping_ = n;
      return 0;
    }
    node.chosen = pick;
    ++decisions_created_;
    stack_.push_back(std::move(node));
    ++depth_;
    fire_update(events, n, &stack_.back());
    return pick;
  }

  [[nodiscard]] bool aborted() const override { return aborted_; }
  [[nodiscard]] std::uint64_t abort_sleeping() const {
    return abort_sleeping_;
  }
  [[nodiscard]] std::size_t stack_size() const { return stack_.size(); }
  [[nodiscard]] std::uint64_t decisions_created() const {
    return decisions_created_;
  }

  /// Sparse trace of the interleaving just run (non-FIFO branches only).
  [[nodiscard]] ChoiceTrace current_trace(std::uint64_t seed) const {
    ChoiceTrace t;
    t.seed = seed;
    for (const Node& node : stack_) {
      if (node.chosen != 0) {
        t.choices.push_back(
            Choice{node.decision, static_cast<std::uint32_t>(node.chosen)});
      }
    }
    return t;
  }

  /// Advances the deepest node with an unexplored, non-sleeping branch and
  /// pops fully-explored nodes (tallying the branches their sleep flags
  /// saved).  Returns false when the whole tree is exhausted.
  bool backtrack(std::uint64_t* sleeping_branches) {
    while (!stack_.empty()) {
      Node& node = stack_.back();
      node.done[node.chosen] = true;
      for (std::size_t i = 0; i < node.cands.size(); ++i) {
        if (!node.done[i] && !node.sleeping[i]) {
          node.chosen = i;
          return true;
        }
      }
      for (std::size_t i = 0; i < node.cands.size(); ++i) {
        if (node.sleeping[i]) ++*sleeping_branches;
      }
      stack_.pop_back();
    }
    return false;
  }

 private:
  struct Node {
    std::uint32_t decision = 0;
    std::vector<sim::CoEnabledEvent> cands;
    std::vector<bool> done;
    std::vector<bool> sleeping;
    std::size_t chosen = 0;
  };

  struct SleepEntry {
    std::uint64_t seq = 0;
    sim::Footprint fp{};
  };

  [[nodiscard]] bool in_sleep(std::uint64_t seq) const {
    for (const SleepEntry& e : sleep_) {
      if (e.seq == seq) return true;
    }
    return false;
  }

  /// sleep := { x in sleep + finished-siblings : independent(x, fired) }.
  void fire_update(const sim::CoEnabledEvent* events, std::size_t n,
                   const Node* node) {
    if (!sleep_enabled_) return;
    const sim::CoEnabledEvent& fired =
        events[node != nullptr ? node->chosen : 0];
    if (node != nullptr) {
      for (std::size_t j = 0; j < n; ++j) {
        if (node->done[j]) sleep_.push_back({events[j].seq, events[j].fp});
      }
    }
    std::size_t keep = 0;
    for (const SleepEntry& e : sleep_) {
      if (independent(e.fp, fired.fp)) sleep_[keep++] = e;
    }
    sleep_.resize(keep);
  }

  bool sleep_enabled_;
  bool aborted_ = false;
  std::uint64_t abort_sleeping_ = 0;
  std::size_t depth_ = 0;
  std::uint32_t counter_ = 0;
  std::uint64_t decisions_created_ = 0;
  std::vector<Node> stack_;
  std::vector<SleepEntry> sleep_;
};

/// Uniform random pick at every decision point, recording the non-FIFO
/// choices so any violating walk replays as a ChoiceTrace.
class RandomWalkPolicy final : public ScenarioPolicy {
 public:
  explicit RandomWalkPolicy(std::uint64_t walk_seed) : rng_(walk_seed) {}

  std::size_t choose(const sim::CoEnabledEvent*, std::size_t n) override {
    if (n <= 1) return 0;
    const std::uint32_t decision = counter_++;
    const std::size_t pick = rng_.index(n);
    if (pick != 0) {
      choices_.push_back(Choice{decision, static_cast<std::uint32_t>(pick)});
    }
    return pick;
  }

  [[nodiscard]] std::uint32_t decisions() const { return counter_; }
  [[nodiscard]] const std::vector<Choice>& choices() const {
    return choices_;
  }

 private:
  Rng rng_;
  std::uint32_t counter_ = 0;
  std::vector<Choice> choices_;
};

/// Replays a recorded trace: listed decisions take their branch (clamped),
/// everything else is FIFO.
class ReplayPolicy final : public ScenarioPolicy {
 public:
  explicit ReplayPolicy(const ChoiceTrace& trace) {
    for (const Choice& c : trace.choices) branch_[c.decision] = c.branch;
  }

  std::size_t choose(const sim::CoEnabledEvent*, std::size_t n) override {
    if (n <= 1) return 0;
    const auto it = branch_.find(counter_++);
    if (it == branch_.end()) return 0;
    return std::min<std::size_t>(it->second, n - 1);
  }

 private:
  std::map<std::uint32_t, std::uint32_t> branch_;
  std::uint32_t counter_ = 0;
};

/// Folds one run that reached the horizon into `res` (terminal-state dedup,
/// first run's violations); true when the run violated.
bool record_completed(ExploreResult& res,
                      std::unordered_set<std::uint64_t>& seen,
                      const ScenarioOutcome& out) {
  ++res.completed_runs;
  if (seen.insert(out.state_hash).second) {
    ++res.distinct_states;
    res.state_hashes.push_back(out.state_hash);
  } else {
    ++res.dedup_hits;
  }
  if (out.clean()) return false;
  if (res.violating_runs++ == 0) {
    for (const auto& v : out.violations) {
      res.violation_details.push_back(v.str());
    }
  }
  return true;
}

}  // namespace

ExploreResult explore(const ScenarioConfig& cfg, const ExploreOptions& opts) {
  ExploreResult res;
  DfsPolicy policy(opts.sleep_sets);
  std::unordered_set<std::uint64_t> seen;  // membership only, never iterated
  for (;;) {
    if (res.runs >= opts.max_runs) {
      res.budget_exhausted = true;
      break;
    }
    policy.begin_run();
    const ScenarioOutcome out = run_scenario(cfg, &policy);
    ++res.runs;
    res.max_depth = std::max(res.max_depth, policy.stack_size());
    if (out.aborted) {
      ++res.pruned_runs;
      res.sleeping_branches += policy.abort_sleeping();
    } else if (record_completed(res, seen, out)) {
      if (res.violating.size() < opts.max_traces) {
        res.violating.push_back(policy.current_trace(cfg.seed));
      }
      if (opts.stop_on_violation) break;
    }
    if (!policy.backtrack(&res.sleeping_branches)) break;
  }
  res.decision_points = policy.decisions_created();
  std::sort(res.state_hashes.begin(), res.state_hashes.end());
  return res;
}

ExploreResult random_walks(const ScenarioConfig& cfg, std::uint64_t walks,
                           std::uint64_t seed0) {
  ExploreResult res;
  std::unordered_set<std::uint64_t> seen;  // membership only, never iterated
  for (std::uint64_t k = 0; k < walks; ++k) {
    RandomWalkPolicy policy(seed0 + k);
    const ScenarioOutcome out = run_scenario(cfg, &policy);
    ++res.runs;
    res.decision_points += policy.decisions();
    res.max_depth = std::max<std::size_t>(res.max_depth, policy.decisions());
    if (record_completed(res, seen, out) && res.violating.size() < 4) {
      res.violating.push_back(ChoiceTrace{cfg.seed, policy.choices()});
    }
  }
  std::sort(res.state_hashes.begin(), res.state_hashes.end());
  return res;
}

ScenarioOutcome replay(const ScenarioConfig& cfg, const ChoiceTrace& trace) {
  ScenarioConfig replay_cfg = cfg;
  replay_cfg.seed = trace.seed;
  ReplayPolicy policy(trace);
  return run_scenario(replay_cfg, &policy);
}

ChoiceTrace shrink_trace(const ScenarioConfig& cfg, ChoiceTrace failing) {
  const auto still_fails = [&](const std::vector<Choice>& reduced) {
    ChoiceTrace candidate{failing.seed, reduced};
    return !replay(cfg, candidate).clean();
  };
  while (chaos::ddmin_list(failing.choices, 0, still_fails)) {
  }
  return failing;
}

}  // namespace hp2p::verify
