// Ports: typed interface pointers with elaboration-time binding checks,
// the minisc analogue of sc_port<IF> / sc_in<T> / sc_out<T>.
#pragma once

#include <stdexcept>
#include <string>

#include "kernel/object.hpp"
#include "kernel/signal.hpp"
#include "kernel/simulation.hpp"

namespace minisc {

/// Untyped base so the kernel can verify all ports are bound at elaboration.
class PortBase : public Object {
 public:
  PortBase(Simulation& sim, Object* parent, std::string name)
      : Object(sim, parent, std::move(name)) {
    sim.register_port(*this);
  }
  [[nodiscard]] virtual bool is_bound() const = 0;
};

/// A port requiring an implementation of interface IF.  Interface method
/// calls (IMC, paper §4.2) go through operator-> on the bound channel.
template <class IF>
class Port : public PortBase {
 public:
  using PortBase::PortBase;

  void bind(IF& impl) {
    if (impl_ != nullptr) throw std::logic_error("port '" + full_name() + "' already bound");
    impl_ = &impl;
  }
  void operator()(IF& impl) { bind(impl); }

  [[nodiscard]] bool is_bound() const override { return impl_ != nullptr; }

  IF* operator->() const { return impl_; }
  [[nodiscard]] IF& get() const { return *impl_; }

 private:
  IF* impl_ = nullptr;
};

/// Input port specialised for signals: adds read() and event access.
template <class T>
class InPort : public Port<SignalReadIF<T>> {
 public:
  using Port<SignalReadIF<T>>::Port;
  [[nodiscard]] const T& read() const { return (*this)->read(); }
  Event& value_changed_event() { return (*this)->value_changed_event(); }
};

/// Output port specialised for signals.
template <class T>
class OutPort : public Port<SignalWriteIF<T>> {
 public:
  using Port<SignalWriteIF<T>>::Port;
  void write(const T& v) { (*this)->write(v); }
};

}  // namespace minisc
