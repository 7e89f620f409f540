#include "kernel/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernel/event.hpp"
#include "kernel/object.hpp"
#include "kernel/port.hpp"

namespace minisc {

Simulation::Simulation() = default;

Simulation::~Simulation() {
  // Members are destroyed in reverse declaration order, so objects_ and
  // object_index_ die before processes_ — whose Object destructors would
  // then unregister against freed containers.  Their parent modules
  // (owned by the caller) may be gone by now as well, so full_name() is
  // not safe either.  Nothing can look objects up once the simulation is
  // going away; make unregistration a no-op instead of reordering.
  tearing_down_ = true;
}

void Simulation::register_object(Object& o) {
  objects_.push_back(&o);
  // First registration wins, matching the old linear scan over the
  // registration-ordered list.
  object_index_.emplace(o.full_name(), &o);
}

void Simulation::unregister_object(Object& o) {
  if (tearing_down_) return;
  objects_.erase(std::remove(objects_.begin(), objects_.end(), &o), objects_.end());
  const auto it = object_index_.find(o.full_name());
  if (it == object_index_.end() || it->second != &o) return;
  object_index_.erase(it);
  // Another object may share the name; the earliest-registered survivor
  // takes over the index slot.
  for (Object* other : objects_) {
    if (other->full_name() == o.full_name()) {
      object_index_.emplace(other->full_name(), other);
      break;
    }
  }
}

void Simulation::register_port(PortBase& p) { ports_.push_back(&p); }

Object* Simulation::find_object(const std::string& full_name) const {
  const auto it = object_index_.find(full_name);
  return it == object_index_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Simulation::process_activations()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(processes_.size());
  for (const auto& p : processes_) out.emplace_back(p->full_name(), p->activations);
  return out;
}

ThreadProcess& Simulation::create_thread(Object* parent, std::string name,
                                         std::function<void()> body) {
  auto p = std::make_unique<ThreadProcess>(*this, parent, std::move(name), std::move(body));
  ThreadProcess& ref = *p;
  processes_.push_back(std::move(p));
  return ref;
}

MethodProcess& Simulation::create_method(Object* parent, std::string name,
                                         std::function<void()> body) {
  auto p = std::make_unique<MethodProcess>(*this, parent, std::move(name), std::move(body));
  MethodProcess& ref = *p;
  processes_.push_back(std::move(p));
  return ref;
}

void Simulation::elaborate() {
  if (elaborated_) return;
  elaborated_ = true;
  for (PortBase* p : ports_) {
    if (!p->is_bound())
      throw std::logic_error("unbound port at elaboration: " + p->full_name());
  }
  // Initialisation phase: every process runs once at time zero.
  for (auto& p : processes_) make_runnable(*p);
}

void Simulation::make_runnable(ProcessBase& p) {
  if (p.in_runnable_queue) return;
  if (p.is_thread() && static_cast<ThreadProcess&>(p).terminated()) return;
  p.in_runnable_queue = true;
  runnable_.push_back(&p);
}

void Simulation::request_update(SignalUpdateIF& s) { update_queue_.push_back(&s); }

void Simulation::schedule_delta_fire(Event& e) {
  // Counted here, not in Event::notify_delta, so that signal updates (which
  // schedule their change events directly) are observed as notifications too.
  note_event_notified();
  if (e.in_delta_queue) return;
  e.in_delta_queue = true;
  delta_events_.push_back(&e);
}

void Simulation::schedule_at(Time t, std::function<void()> fn) {
  if (t < now_) throw std::logic_error("schedule_at in the past");
  timed_.push(TimedEntry{t, timed_seq_++, std::move(fn)});
}

void Simulation::evaluate_phase() {
  while (!runnable_.empty()) {
    ProcessBase* p = runnable_.front();
    runnable_.pop_front();
    p->in_runnable_queue = false;
    ++stats_.process_activations;
    ++p->activations;
    if (p->is_thread()) {
      current_thread_ = static_cast<ThreadProcess*>(p);
      p->execute();
      current_thread_ = nullptr;
    } else {
      ++stats_.method_invocations;
      p->execute();
    }
    if (stop_requested_) return;
  }
}

void Simulation::update_phase() {
  std::vector<SignalUpdateIF*> q;
  q.swap(update_queue_);
  for (SignalUpdateIF* s : q) s->apply_update();
}

void Simulation::delta_notify_phase() {
  std::vector<Event*> events;
  events.swap(delta_events_);
  // Clear every membership flag before firing anything: a notify_delta()
  // from within a fire() must re-queue for the next delta cycle.
  for (Event* e : events) e->in_delta_queue = false;
  for (Event* e : events) e->fire();
}

bool Simulation::run_delta_cycles() {
  std::uint64_t deltas_here = 0;
  while (!runnable_.empty() || !update_queue_.empty() || !delta_events_.empty()) {
    ++stats_.delta_cycles;
    if (++deltas_here > max_delta_cycles_)
      throw std::runtime_error("delta cycle limit exceeded (zero-delay loop?)");
    evaluate_phase();
    if (stop_requested_) return false;
    update_phase();
    delta_notify_phase();
  }
  return true;
}

void Simulation::run() { run_until(Time::max()); }

void Simulation::run_until(Time until) {
  elaborate();
  stop_requested_ = false;
  if (!run_delta_cycles()) { finished_ = true; return; }
  while (!timed_.empty()) {
    const Time next = timed_.top().at;
    if (next > until) { now_ = until == Time::max() ? now_ : until; return; }
    now_ = next;
    ++stats_.timed_steps;
    // Release every action scheduled for this instant.
    while (!timed_.empty() && timed_.top().at == now_) {
      auto fn = std::move(const_cast<TimedEntry&>(timed_.top()).fn);
      timed_.pop();
      fn();
    }
    if (!run_delta_cycles()) { finished_ = true; return; }
  }
  finished_ = true;
}

void Simulation::wait_static() {
  ThreadProcess* t = current_thread_;
  if (t == nullptr) throw std::logic_error("wait() outside a thread process");
  if (t->static_sensitivity().empty())
    throw std::logic_error("wait() without static sensitivity in " + t->full_name());
  t->waiting_static = true;
  t->yield_to_scheduler();
}

void Simulation::wait_event(Event& e) { wait_any({&e}); }

void Simulation::wait_any(std::initializer_list<Event*> events) {
  ThreadProcess* t = current_thread_;
  if (t == nullptr) throw std::logic_error("wait(event) outside a thread process");
  const std::uint64_t gen = ++t->wait_generation;
  for (Event* e : events) e->add_dynamic_waiter(*t, gen);
  t->waiting_dynamic = true;
  t->yield_to_scheduler();
}

void Simulation::wait_time(Time delay) {
  ThreadProcess* t = current_thread_;
  if (t == nullptr) throw std::logic_error("wait(time) outside a thread process");
  const std::uint64_t gen = ++t->wait_generation;
  t->waiting_dynamic = true;
  schedule_at(now_ + delay, [this, t, gen] {
    if (t->wait_generation == gen && t->waiting_dynamic) {
      t->waiting_dynamic = false;
      ++t->wait_generation;
      make_runnable(*t);
    }
  });
  t->yield_to_scheduler();
}

}  // namespace minisc
