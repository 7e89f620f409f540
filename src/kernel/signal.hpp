// Signals: delta-delayed single-driver channels, the minisc analogue of
// sc_signal<T>.  The refinement step from IMC channels to signal-based
// communication (paper §4.3) lands the models on these.
#pragma once

#include <string>
#include <utility>

#include "kernel/event.hpp"
#include "kernel/object.hpp"
#include "kernel/simulation.hpp"

namespace minisc {

/// Read side of a signal (bindable through ports).
template <class T>
class SignalReadIF {
 public:
  virtual ~SignalReadIF() = default;
  [[nodiscard]] virtual const T& read() const = 0;
  virtual Event& value_changed_event() = 0;
};

/// Write side of a signal.
template <class T>
class SignalWriteIF {
 public:
  virtual ~SignalWriteIF() = default;
  virtual void write(const T& v) = 0;
};

/// Single-driver signal with SystemC update semantics: a write becomes
/// visible to readers only after the update phase of the current delta
/// cycle; a change fires value_changed (and pos/negedge for bool).
template <class T>
class Signal : public Object,
               public SignalUpdateIF,
               public SignalReadIF<T>,
               public SignalWriteIF<T> {
 public:
  Signal(Simulation& sim, Object* parent, std::string name, T initial = T{})
      : Object(sim, parent, std::move(name)),
        current_(initial),
        next_(initial),
        value_changed_(sim, Object::name() + ".value_changed"),
        posedge_(sim, Object::name() + ".posedge"),
        negedge_(sim, Object::name() + ".negedge") {}

  [[nodiscard]] const T& read() const override { return current_; }
  /// Last written (pending) value; what the next update will publish.
  [[nodiscard]] const T& pending() const { return next_; }

  void write(const T& v) override {
    next_ = v;
    if (!update_pending) {
      update_pending = true;
      sim().request_update(*this);
    }
  }

  Event& value_changed_event() override { return value_changed_; }
  /// Only meaningful for T == bool.
  Event& posedge_event() { return posedge_; }
  Event& negedge_event() { return negedge_; }

  void apply_update() override {
    update_pending = false;
    if (next_ == current_) return;
    const T old = std::exchange(current_, next_);
    sim().note_signal_update();
    sim().schedule_delta_fire(value_changed_);
    if constexpr (std::is_same_v<T, bool>) {
      if (!old && current_) sim().schedule_delta_fire(posedge_);
      if (old && !current_) sim().schedule_delta_fire(negedge_);
    } else {
      (void)old;
    }
  }

 private:
  T current_;
  T next_;
  Event value_changed_;
  Event posedge_;
  Event negedge_;
};

}  // namespace minisc
