// Process abstractions: fiber-backed threads (SC_THREAD) and method
// processes (SC_METHOD).
#pragma once

#include <cstdint>
#include <functional>
#include <ucontext.h>
#include <vector>

#include "kernel/object.hpp"

namespace minisc {

class Event;
class Simulation;

/// Common base for schedulable processes.
class ProcessBase : public Object {
 public:
  ProcessBase(Simulation& sim, Object* parent, std::string name);

  /// Invoked by the scheduler during the evaluate phase.
  virtual void execute() = 0;
  [[nodiscard]] virtual bool is_thread() const = 0;

  /// Adds an event to the static sensitivity list (persistent).
  void add_static_sensitivity(Event& e);
  [[nodiscard]] const std::vector<Event*>& static_sensitivity() const { return static_events_; }

  /// Times this process was dispatched in an evaluate phase.
  std::uint64_t activations = 0;

  // Scheduler bookkeeping.
  bool in_runnable_queue = false;
  /// Threads only: true while suspended in wait() on static sensitivity.
  bool waiting_static = false;
  /// Threads only: true while suspended in any wait().
  bool waiting_dynamic = false;

 private:
  std::vector<Event*> static_events_;
};

/// An SC_METHOD-style process: a plain callable re-invoked on every
/// sensitive event.  Cheap (no stack, no context switch).
class MethodProcess final : public ProcessBase {
 public:
  MethodProcess(Simulation& sim, Object* parent, std::string name,
                std::function<void()> body);

  void execute() override { body_(); }
  [[nodiscard]] bool is_thread() const override { return false; }

 private:
  std::function<void()> body_;
};

/// An SC_THREAD-style process backed by a ucontext fiber, so the body can
/// call wait() from arbitrarily deep call stacks — which is what makes
/// blocking interface-method calls through hierarchical channels possible.
class ThreadProcess final : public ProcessBase {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  ThreadProcess(Simulation& sim, Object* parent, std::string name,
                std::function<void()> body,
                std::size_t stack_bytes = kDefaultStackBytes);

  void execute() override;  // resumes the fiber
  [[nodiscard]] bool is_thread() const override { return true; }

  [[nodiscard]] bool terminated() const { return terminated_; }

  /// Monotonic counter distinguishing the current wait from stale event
  /// registrations left behind by earlier any-of waits.
  std::uint64_t wait_generation = 0;

  // --- kernel-internal ---
  /// Suspends the fiber and returns control to the scheduler context.
  void yield_to_scheduler();

 private:
  static void trampoline(unsigned int hi, unsigned int lo);
  void run_body();

  std::function<void()> body_;
  std::vector<std::uint8_t> stack_;
  ucontext_t context_{};
  bool started_ = false;
  bool terminated_ = false;
};

}  // namespace minisc
