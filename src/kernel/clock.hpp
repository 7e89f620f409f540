// Periodic clock source (analogue of sc_clock), implemented with a
// self-rescheduling method process — no fiber stack needed.
#pragma once

#include <string>

#include "kernel/signal.hpp"

namespace minisc {

class Clock : public Object {
 public:
  /// First posedge occurs at t = period, then every period thereafter;
  /// the falling edge sits at the half-period point.
  Clock(Simulation& sim, std::string name, Time period);

  [[nodiscard]] Time period() const { return period_; }
  [[nodiscard]] bool read() const { return signal_.read(); }
  [[nodiscard]] Signal<bool>& signal() { return signal_; }
  Event& posedge_event() { return signal_.posedge_event(); }
  Event& negedge_event() { return signal_.negedge_event(); }

  /// Number of rising edges generated so far.
  [[nodiscard]] std::uint64_t posedge_count() const { return posedges_; }

 private:
  void tick();

  Time period_;
  Signal<bool> signal_;
  Event tick_event_;
  std::uint64_t posedges_ = 0;
};

}  // namespace minisc
