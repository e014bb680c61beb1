#include "sim/simulator.hpp"

#include <utility>

namespace hp2p::sim {

const char* component_name(Component c) {
  switch (c) {
    case Component::kKernel: return "kernel";
    case Component::kTransport: return "transport";
    case Component::kMembership: return "membership";
    case Component::kRing: return "ring";
    case Component::kFlood: return "flood";
    case Component::kBypass: return "bypass";
    case Component::kData: return "data";
    case Component::kReplication: return "replication";
    case Component::kChaos: return "chaos";
    case Component::kAudit: return "audit";
    case Component::kWorkload: return "workload";
    case Component::kSampler: return "sampler";
    case Component::kOther: return "other";
    case Component::kCount_: break;
  }
  return "invalid";
}

TimerId Simulator::schedule_reserved(SimTime when, std::uint64_t seq,
                                     Action action) {
  if (when < now_) when = now_;  // never schedule into the past
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.when = when;
  s.seq = seq;
  s.comp = current_component_;
  s.fp = current_footprint_;
  s.action = std::move(action);
  heap_.push(HeapItem{when, seq, slot});
  ++live_events_;
  ++stats_.events_scheduled;
  if (trace_) trace_(TraceEvent{TraceEvent::Kind::kSchedule, seq, when});
  return TimerId{seq, slot};
}

void Simulator::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  s.action.reset();
  free_slots_.push_back(slot);
  --live_events_;
}

bool Simulator::cancel(TimerId id) {
  if (!id.valid()) return false;
  if (id.slot_ >= slots_.size() || slots_[id.slot_].seq != id.seq_) {
    return false;  // already fired or already cancelled
  }
  const SimTime when = slots_[id.slot_].when;
  free_slot(id.slot_);
  ++stats_.events_cancelled;
  if (trace_) trace_(TraceEvent{TraceEvent::Kind::kCancel, id.seq_, when});
  return true;
}

const Simulator::HeapItem* Simulator::peek_live() {
  while (!heap_.empty() && !slot_live(heap_.top())) {
    heap_.pop();  // cancelled; discard the corpse
    ++stats_.corpses_skipped;
  }
  return heap_.empty() ? nullptr : &heap_.top();
}

bool Simulator::pop_live(HeapItem& out, Action& action, Component& comp) {
  while (!heap_.empty()) {
    const HeapItem top = heap_.top();
    if (!slot_live(top)) {
      heap_.pop();  // cancelled; discard the corpse
      ++stats_.corpses_skipped;
      continue;
    }
    heap_.pop();
    out = top;
    comp = slots_[top.slot].comp;
    action = std::move(slots_[top.slot].action);
    free_slot(top.slot);
    return true;
  }
  return false;
}

void Simulator::fire(const HeapItem& item, Action& action, Component comp) {
  // Monotone clock: under a nonzero commutation window a policy can fire an
  // event "early", so now() only ever moves forward.  In FIFO mode the pop
  // order guarantees item.when >= now_, making this the plain assignment it
  // always was.
  if (item.when > now_) now_ = item.when;
  ++stats_.events_executed;
  if (trace_) trace_(TraceEvent{TraceEvent::Kind::kFire, item.seq, item.when});
  // The dispatched action inherits the event's tag, so anything it schedules
  // is attributed to the component that set it in motion.  The probe frame
  // brackets exactly the action's execution.
  current_component_ = comp;
  if (probe_ != nullptr) {
    probe_->enter(comp);
    action();
    probe_->leave();
  } else {
    action();
  }
  current_component_ = Component::kKernel;
}

bool Simulator::step() {
  if (policy_ != nullptr) return step_choice();
  HeapItem item{};
  Action action;
  Component comp = Component::kKernel;
  if (!pop_live(item, action, comp)) return false;
  fire(item, action, comp);
  return true;
}

bool Simulator::step_choice() {
  const HeapItem* first = peek_live();
  if (first == nullptr) return false;
  // Gather the co-enabled set: every live event whose fire time falls within
  // the commutation window of the earliest.  The heap pops in (when, seq)
  // order, so staged_ lists the candidates in FIFO order -- index 0 is the
  // event the default kernel would have fired.
  const SimTime limit = first->when + window_;
  staged_.clear();
  cands_.clear();
  while (!heap_.empty()) {
    const HeapItem top = heap_.top();
    if (!slot_live(top)) {
      heap_.pop();  // cancelled; discard the corpse
      ++stats_.corpses_skipped;
      continue;
    }
    if (top.when > limit) break;
    heap_.pop();
    staged_.push_back(top);
  }
  for (const HeapItem& it : staged_) {
    const Slot& s = slots_[it.slot];
    cands_.push_back(CoEnabledEvent{it.seq, it.when, s.comp, s.fp});
  }
  std::size_t pick = policy_->choose(cands_.data(), cands_.size());
  if (pick >= staged_.size()) pick = 0;
  const HeapItem item = staged_[pick];
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (i != pick) heap_.push(staged_[i]);
  }
  Action action = std::move(slots_[item.slot].action);
  const Component comp = slots_[item.slot].comp;
  free_slot(item.slot);
  fire(item, action, comp);
  return true;
}

SimTime Simulator::next_event_time() {
  const HeapItem* next = peek_live();
  return next == nullptr ? SimTime::never() : next->when;
}

void Simulator::run() {
  if (probe_ != nullptr) probe_->resync();
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  if (probe_ != nullptr) probe_->resync();
  for (const HeapItem* next = peek_live();
       next != nullptr && next->when <= deadline; next = peek_live()) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace hp2p::sim
