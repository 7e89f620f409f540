// The minisc discrete-event scheduler (analogue of the SystemC simulation
// kernel): evaluate / update / delta-notify / timed-notify phases.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <ucontext.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kernel/process.hpp"
#include "kernel/time.hpp"

namespace minisc {

class Event;
class Object;
class PortBase;
class SignalUpdateIF;

/// Statistics the benchmarks report (cycles/s needs activation counts to be
/// meaningful across abstraction levels).  Always collected: each is one
/// increment on a path that already does far more work.
struct SimulationStats {
  std::uint64_t delta_cycles = 0;
  std::uint64_t timed_steps = 0;          ///< distinct simulated instants
  std::uint64_t process_activations = 0;  ///< evaluate-phase dispatches
  std::uint64_t context_switches = 0;     ///< fiber swaps (threads only)
  std::uint64_t method_invocations = 0;   ///< activations of method processes
  std::uint64_t signal_updates = 0;       ///< update-phase apply calls
  std::uint64_t events_notified = 0;      ///< notify()/notify_delta()/notify(t)
  std::uint64_t events_fired = 0;         ///< matured notifications (fire())
};

/// One independent simulation context: owns the object registry, the
/// runnable/update/delta/timed queues and the scheduler loop.
class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // --- user API ---
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const SimulationStats& stats() const { return stats_; }
  [[nodiscard]] bool finished() const { return finished_; }

  /// Elaborates (checks port binding) on first use, then runs until there
  /// is no activity left or stop() was called.
  void run();
  /// Runs until simulated time would exceed @p until (events at == until
  /// are executed).
  void run_until(Time until);
  /// Requests the simulation to stop; takes effect at the next phase
  /// boundary.  Callable from inside processes.
  void stop() { stop_requested_ = true; }

  /// Process creation.  The returned pointers stay owned by the kernel.
  ThreadProcess& create_thread(Object* parent, std::string name, std::function<void()> body);
  MethodProcess& create_method(Object* parent, std::string name, std::function<void()> body);

  // --- wait primitives (called from a running thread) ---
  void wait_static();                         ///< wait() on static sensitivity
  void wait_event(Event& e);                  ///< wait(e)
  void wait_any(std::initializer_list<Event*> events);  ///< wait(e1 | e2)
  void wait_time(Time delay);                 ///< wait(10ns)

  [[nodiscard]] ThreadProcess* current_thread() const { return current_thread_; }

  // --- kernel-internal (used by Event/Signal/Object) ---
  void register_object(Object& o);
  void unregister_object(Object& o);
  void register_port(PortBase& p);
  [[nodiscard]] Object* find_object(const std::string& full_name) const;

  void make_runnable(ProcessBase& p);
  /// Queues a signal for the next update phase (once per delta).
  void request_update(SignalUpdateIF& s);
  /// Queues an event to fire in the delta-notification phase.
  void schedule_delta_fire(Event& e);
  /// Schedules a callback at absolute time @p t.
  void schedule_at(Time t, std::function<void()> fn);

  /// Per-process activation counts (full process name -> activations),
  /// for attributing the Fig. 8 activation load to individual processes.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  process_activations() const;

  ucontext_t* scheduler_context() { return &scheduler_context_; }
  void note_context_switch() { ++stats_.context_switches; }
  void note_signal_update() { ++stats_.signal_updates; }
  void note_event_notified() { ++stats_.events_notified; }
  void note_event_fired() { ++stats_.events_fired; }

  /// Delta-cycle limit without time advance, to catch oscillating
  /// zero-delay loops.  Throws std::runtime_error when exceeded.
  void set_max_delta_cycles(std::uint64_t n) { max_delta_cycles_ = n; }

 private:
  struct TimedEntry {
    Time at;
    std::uint64_t seq;  // tie-break for determinism
    std::function<void()> fn;
    bool operator>(const TimedEntry& o) const {
      return at > o.at || (at == o.at && seq > o.seq);
    }
  };

  void elaborate();
  /// Runs evaluate+update+delta phases until quiescent; returns false if
  /// stop was requested.
  bool run_delta_cycles();
  void evaluate_phase();
  void update_phase();
  void delta_notify_phase();

  Time now_;
  bool elaborated_ = false;
  bool stop_requested_ = false;
  bool finished_ = false;
  // Set by ~Simulation so owned processes skip unregistration (see there).
  bool tearing_down_ = false;
  std::uint64_t timed_seq_ = 0;
  std::uint64_t max_delta_cycles_ = 1'000'000;

  std::deque<ProcessBase*> runnable_;
  std::vector<SignalUpdateIF*> update_queue_;
  std::vector<Event*> delta_events_;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<>> timed_;

  std::vector<std::unique_ptr<ProcessBase>> processes_;
  std::vector<Object*> objects_;
  // Name lookup index for find_object; holds the earliest-registered
  // object per full name.
  std::unordered_map<std::string, Object*> object_index_;
  std::vector<PortBase*> ports_;

  ThreadProcess* current_thread_ = nullptr;
  ucontext_t scheduler_context_{};
  SimulationStats stats_;
};

/// Interface a signal implements to take part in the update phase.
class SignalUpdateIF {
 public:
  virtual ~SignalUpdateIF() = default;
  virtual void apply_update() = 0;
  bool update_pending = false;
};

}  // namespace minisc
