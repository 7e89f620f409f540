// Module base class (analogue of sc_module) with process registration and
// wait() helpers for thread bodies.
#pragma once

#include <functional>
#include <initializer_list>
#include <string>

#include "kernel/event.hpp"
#include "kernel/object.hpp"
#include "kernel/process.hpp"
#include "kernel/simulation.hpp"

namespace minisc {

/// Fluent helper returned by Module::method()/thread() so sensitivity can
/// be declared next to the registration, SystemC-style:
///   method("fsm", [this]{ ... }).sensitive(clk_.posedge_event());
class ProcessBuilder {
 public:
  explicit ProcessBuilder(ProcessBase& p) : process_(&p) {}
  ProcessBuilder& sensitive(Event& e) {
    process_->add_static_sensitivity(e);
    e.add_static_waiter(*process_);
    return *this;
  }
  ProcessBase& process() { return *process_; }

 private:
  ProcessBase* process_;
};

/// Structural building block.  Hierarchical channels (paper Fig. 5/6) are
/// modules that additionally implement interfaces.
class Module : public Object {
 public:
  Module(Simulation& sim, std::string name) : Object(sim, nullptr, std::move(name)) {}
  Module(Module& parent, std::string name) : Object(parent.sim(), &parent, std::move(name)) {}

 protected:
  /// Registers an SC_THREAD-style fiber process.
  ProcessBuilder thread(std::string name, std::function<void()> body) {
    return ProcessBuilder(sim().create_thread(this, std::move(name), std::move(body)));
  }
  /// Registers an SC_METHOD-style process (declare sensitivity on the
  /// returned builder; the method is also run once at simulation start).
  ProcessBuilder method(std::string name, std::function<void()> body) {
    return ProcessBuilder(sim().create_method(this, std::move(name), std::move(body)));
  }

  // wait() helpers, callable from any thread process (including through
  // interface method calls into channel modules).
  void wait() { sim().wait_static(); }
  void wait(Event& e) { sim().wait_event(e); }
  void wait_any(std::initializer_list<Event*> events) { sim().wait_any(events); }
  void wait(Time delay) { sim().wait_time(delay); }
  /// Waits for @p n occurrences of the static sensitivity (clock edges).
  void wait(int n) {
    for (int i = 0; i < n; ++i) wait();
  }
};

}  // namespace minisc
