// Tests for the minisc discrete-event kernel: scheduling phases, events,
// signals, ports, clocks, processes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/clock.hpp"
#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/port.hpp"
#include "kernel/signal.hpp"
#include "kernel/simulation.hpp"
#include "kernel/time.hpp"

namespace minisc {
namespace {

TEST(Time, UnitsAndArithmetic) {
  EXPECT_EQ(Time::ns(1).picoseconds(), 1000u);
  EXPECT_EQ(Time::us(1).picoseconds(), 1000'000u);
  EXPECT_EQ((Time::ns(3) + Time::ns(4)).picoseconds(), 7000u);
  EXPECT_EQ(Time::ns(40) * 3, Time::ns(120));
  EXPECT_EQ(Time::us(1) / Time::ns(40), 25u);
  EXPECT_LT(Time::ns(1), Time::ns(2));
}

// A module that runs a thread writing timestamps of its wake-ups.
class Waiter : public Module {
 public:
  Waiter(Simulation& sim, Event& e) : Module(sim, "waiter"), event_(&e) {
    thread("t", [this] {
      wakeups.push_back(this->sim().now());
      wait(*event_);
      wakeups.push_back(this->sim().now());
      wait(Time::ns(5));
      wakeups.push_back(this->sim().now());
    });
  }
  std::vector<Time> wakeups;

 private:
  Event* event_;
};

TEST(Scheduler, ThreadWaitsOnEventAndTime) {
  Simulation sim;
  Event e(sim, "e");
  Waiter w(sim, e);
  e.notify(Time::ns(10));
  sim.run();
  ASSERT_EQ(w.wakeups.size(), 3u);
  EXPECT_EQ(w.wakeups[0], Time::ps(0));   // initialisation run
  EXPECT_EQ(w.wakeups[1], Time::ns(10));  // timed notification
  EXPECT_EQ(w.wakeups[2], Time::ns(15));  // wait(5ns)
}

TEST(Scheduler, ImmediateNotifyWakesInSameEvaluatePhase) {
  Simulation sim;
  Event e(sim, "e");
  std::vector<std::string> order;

  class M : public Module {
   public:
    M(Simulation& sim, Event& e, std::vector<std::string>& order) : Module(sim, "m") {
      thread("waiter", [this, &e, &order] {
        wait(e);
        order.push_back("woken");
      });
      thread("notifier", [&e, &order] {
        order.push_back("notify");
        e.notify();  // immediate
      });
    }
  } m(sim, e, order);

  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "notify");
  EXPECT_EQ(order[1], "woken");
  EXPECT_EQ(sim.now(), Time::ps(0));
}

TEST(Scheduler, DeltaNotifyTakesOneDeltaCycle) {
  Simulation sim;
  Event e(sim, "e");
  int woken_delta = -1;

  class M : public Module {
   public:
    M(Simulation& sim, Event& e, int& out) : Module(sim, "m") {
      thread("w", [this, &e, &out] {
        wait(e);
        out = static_cast<int>(this->sim().stats().delta_cycles);
      });
      thread("n", [&e] { e.notify_delta(); });
    }
  } m(sim, e, woken_delta);

  sim.run();
  EXPECT_GE(woken_delta, 1);
  EXPECT_EQ(sim.now(), Time::ps(0));  // no simulated time elapsed
}

TEST(Scheduler, CancelSuppressesTimedNotification) {
  Simulation sim;
  Event e(sim, "e");
  bool woken = false;

  class M : public Module {
   public:
    M(Simulation& sim, Event& e, bool& woken) : Module(sim, "m") {
      thread("w", [this, &e, &woken] {
        wait(e);
        woken = true;
      });
      thread("c", [this, &e] {
        wait(Time::ns(1));
        e.cancel();
      });
    }
  } m(sim, e, woken);

  e.notify(Time::ns(10));
  sim.run();
  EXPECT_FALSE(woken);
}

TEST(Scheduler, WaitAnyWakesOnFirstEventOnly) {
  Simulation sim;
  Event a(sim, "a"), b(sim, "b");
  std::vector<Time> wakeups;

  class M : public Module {
   public:
    M(Simulation& sim, Event& a, Event& b, std::vector<Time>& w) : Module(sim, "m") {
      thread("w", [this, &a, &b, &w] {
        wait_any({&a, &b});
        w.push_back(this->sim().now());
        wait_any({&a, &b});
        w.push_back(this->sim().now());
      });
    }
  } m(sim, a, b, wakeups);

  a.notify(Time::ns(3));
  b.notify(Time::ns(7));
  sim.run();
  ASSERT_EQ(wakeups.size(), 2u);
  EXPECT_EQ(wakeups[0], Time::ns(3));
  EXPECT_EQ(wakeups[1], Time::ns(7));  // stale registration must not double-wake
}

TEST(Signal, UpdateIsDeltaDelayed) {
  Simulation sim;
  Signal<int> s(sim, nullptr, "s", 0);
  std::vector<int> seen;

  class M : public Module {
   public:
    M(Simulation& sim, Signal<int>& s, std::vector<int>& seen) : Module(sim, "m") {
      thread("t", [&s, &seen] {
        s.write(42);
        seen.push_back(s.read());  // still old value in this evaluate phase
      });
      thread("r", [this, &s, &seen] {
        wait(s.value_changed_event());
        seen.push_back(s.read());  // new value after update phase
      });
    }
  } m(sim, s, seen);

  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 42);
}

TEST(Signal, NoEventWhenValueUnchanged) {
  Simulation sim;
  Signal<int> s(sim, nullptr, "s", 7);
  bool fired = false;

  class M : public Module {
   public:
    M(Simulation& sim, Signal<int>& s, bool& fired) : Module(sim, "m") {
      thread("w", [this, &s] {
        s.write(7);  // same value: no change event
        wait(Time::ns(1));
        this->sim().stop();
      });
      thread("r", [this, &s, &fired] {
        wait(s.value_changed_event());
        fired = true;
      });
    }
  } m(sim, s, fired);

  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Signal, BoolEdgesFire) {
  Simulation sim;
  Signal<bool> s(sim, nullptr, "s", false);
  std::vector<std::string> edges;

  class M : public Module {
   public:
    M(Simulation& sim, Signal<bool>& s, std::vector<std::string>& edges) : Module(sim, "m") {
      thread("drv", [this, &s] {
        wait(Time::ns(1));
        s.write(true);
        wait(Time::ns(1));
        s.write(false);
      });
      thread("pos", [this, &s, &edges] {
        while (true) {
          wait(s.posedge_event());
          edges.push_back("pos@" + std::to_string(this->sim().now().picoseconds()));
        }
      });
      thread("neg", [this, &s, &edges] {
        while (true) {
          wait(s.negedge_event());
          edges.push_back("neg@" + std::to_string(this->sim().now().picoseconds()));
        }
      });
    }
  } m(sim, s, edges);

  sim.run();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], "pos@1000");
  EXPECT_EQ(edges[1], "neg@2000");
}

TEST(MethodProcessTest, RunsOnceAtInitThenOnEvents) {
  Simulation sim;
  Signal<int> s(sim, nullptr, "s", 0);
  int runs = 0;

  class M : public Module {
   public:
    M(Simulation& sim, Signal<int>& s, int& runs) : Module(sim, "m") {
      method("observer", [&runs] { ++runs; }).sensitive(s.value_changed_event());
      thread("drv", [this, &s] {
        wait(Time::ns(1));
        s.write(1);
        wait(Time::ns(1));
        s.write(2);
      });
    }
  } m(sim, s, runs);

  sim.run();
  EXPECT_EQ(runs, 3);  // init + two changes
}

TEST(ClockTest, GeneratesPeriodicEdges) {
  Simulation sim;
  Clock clk(sim, "clk", Time::ns(40));
  std::vector<std::uint64_t> posedge_times;

  class M : public Module {
   public:
    M(Simulation& sim, Clock& clk, std::vector<std::uint64_t>& t) : Module(sim, "m") {
      thread("mon", [this, &clk, &t] {
        while (t.size() < 5) {
          wait(clk.posedge_event());
          t.push_back(this->sim().now().picoseconds());
        }
        this->sim().stop();
      });
    }
  } m(sim, clk, posedge_times);

  sim.run();
  ASSERT_EQ(posedge_times.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(posedge_times[i], (i + 1) * 40000u);
  EXPECT_GE(clk.posedge_count(), 5u);
}

TEST(ClockTest, RejectsOddPeriods) {
  Simulation sim;
  EXPECT_THROW(Clock(sim, "bad", Time::ps(3)), std::invalid_argument);
}

TEST(Ports, UnboundPortFailsElaboration) {
  Simulation sim;
  class M : public Module {
   public:
    explicit M(Simulation& sim) : Module(sim, "m"), in(sim, this, "in") {}
    InPort<int> in;
  } m(sim);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Ports, BoundPortReadsSignal) {
  Simulation sim;
  Signal<int> s(sim, nullptr, "s", 5);
  int seen = -1;

  class M : public Module {
   public:
    M(Simulation& sim, int& seen) : Module(sim, "m"), in(sim, this, "in") {
      thread("t", [this, &seen] { seen = in.read(); });
    }
    InPort<int> in;
  } m(sim, seen);

  m.in.bind(s);
  sim.run();
  EXPECT_EQ(seen, 5);
}

TEST(Ports, DoubleBindThrows) {
  Simulation sim;
  Signal<int> s(sim, nullptr, "s", 0);
  class M : public Module {
   public:
    explicit M(Simulation& sim) : Module(sim, "m"), in(sim, this, "in") {}
    InPort<int> in;
  } m(sim);
  m.in.bind(s);
  EXPECT_THROW(m.in.bind(s), std::logic_error);
}

TEST(Hierarchy, FullNamesFollowParentChain) {
  Simulation sim;
  class Child : public Module {
   public:
    Child(Module& p) : Module(p, "child"), sig(p.sim(), this, "sig", 0) {}
    Signal<int> sig;
  };
  class Top : public Module {
   public:
    explicit Top(Simulation& sim) : Module(sim, "top"), c(*this) {}
    Child c;
  } top(sim);

  EXPECT_EQ(top.c.full_name(), "top.child");
  EXPECT_EQ(top.c.sig.full_name(), "top.child.sig");
  EXPECT_EQ(sim.find_object("top.child.sig"), &top.c.sig);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Simulation sim;
  Clock clk(sim, "clk", Time::ns(10));
  sim.run_until(Time::ns(105));
  EXPECT_EQ(clk.posedge_count(), 10u);
  EXPECT_FALSE(sim.finished());
  sim.run_until(Time::ns(205));
  EXPECT_EQ(clk.posedge_count(), 20u);
}

TEST(Scheduler, StatsAccumulate) {
  Simulation sim;
  Clock clk(sim, "clk", Time::ns(10));
  sim.run_until(Time::ns(100));
  const auto& st = sim.stats();
  EXPECT_GT(st.delta_cycles, 0u);
  EXPECT_GT(st.process_activations, 0u);
  EXPECT_GT(st.signal_updates, 0u);
}

TEST(Scheduler, ClockedThreadViaStaticSensitivity) {
  Simulation sim;
  Clock clk(sim, "clk", Time::ns(10));
  int cycles = 0;

  class M : public Module {
   public:
    M(Simulation& sim, Clock& clk, int& cycles) : Module(sim, "m") {
      thread("main", [this, &cycles] {
        while (true) {
          wait();  // next posedge
          ++cycles;
        }
      }).sensitive(clk.posedge_event());
    }
  } m(sim, clk, cycles);

  sim.run_until(Time::ns(100));
  EXPECT_EQ(cycles, 10);
}

TEST(Scheduler, WaitWithoutSensitivityThrows) {
  Simulation sim;
  bool threw = false;
  class M : public Module {
   public:
    M(Simulation& sim, bool& threw) : Module(sim, "m") {
      thread("t", [this, &threw] {
        try {
          wait();
        } catch (const std::logic_error&) {
          threw = true;
        }
      });
    }
  } m(sim, threw);
  sim.run();
  EXPECT_TRUE(threw);
}

// Interface-method-call through a hierarchical channel: a blocking FIFO
// channel in the style the paper's SystemC-2.0 refinement step uses.
template <class T>
class FifoReadIF {
 public:
  virtual ~FifoReadIF() = default;
  virtual T read_blocking() = 0;
};
template <class T>
class FifoWriteIF {
 public:
  virtual ~FifoWriteIF() = default;
  virtual void write_blocking(const T& v) = 0;
};

template <class T>
class FifoChannel : public Module, public FifoReadIF<T>, public FifoWriteIF<T> {
 public:
  FifoChannel(Simulation& sim, std::string name, std::size_t capacity)
      : Module(sim, std::move(name)), capacity_(capacity),
        wr_event_(sim, "wr"), rd_event_(sim, "rd") {}

  T read_blocking() override {
    while (buf_.empty()) wait(wr_event_);
    T v = buf_.front();
    buf_.erase(buf_.begin());
    rd_event_.notify();
    return v;
  }
  void write_blocking(const T& v) override {
    while (buf_.size() >= capacity_) wait(rd_event_);
    buf_.push_back(v);
    wr_event_.notify();
  }

 private:
  std::size_t capacity_;
  std::vector<T> buf_;
  Event wr_event_, rd_event_;
};

TEST(Channels, BlockingFifoThroughIMC) {
  Simulation sim;
  FifoChannel<int> fifo(sim, "fifo", 2);
  std::vector<int> got;

  class Producer : public Module {
   public:
    Producer(Simulation& sim, FifoWriteIF<int>& w) : Module(sim, "prod"), port(sim, this, "out") {
      port.bind(w);
      thread("t", [this] {
        for (int i = 0; i < 10; ++i) {
          port->write_blocking(i);
          wait(Time::ns(1));
        }
      });
    }
    Port<FifoWriteIF<int>> port;
  } prod(sim, fifo);

  class Consumer : public Module {
   public:
    Consumer(Simulation& sim, FifoReadIF<int>& r, std::vector<int>& got)
        : Module(sim, "cons"), port(sim, this, "in") {
      port.bind(r);
      thread("t", [this, &got] {
        for (int i = 0; i < 10; ++i) {
          got.push_back(port->read_blocking());
          wait(Time::ns(3));  // slower than producer: exercises back-pressure
        }
      });
    }
    Port<FifoReadIF<int>> port;
  } cons(sim, fifo, got);

  sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
}

// --- instrumentation-counter semantics -----------------------------------
//
// A hand-built two-process design with fully known event counts: a thread
// driving a signal N times on a fixed period and a method observing every
// value change.  This pins down what each SimulationStats field means.
class TwoProcess : public Module {
 public:
  static constexpr int kWrites = 3;
  TwoProcess(Simulation& sim, Signal<int>& s, int& observations)
      : Module(sim, "two") {
    thread("driver", [this, &s] {
      for (int i = 0; i < kWrites; ++i) {
        s.write(i + 1);
        wait(Time::ns(1));
      }
    });
    method("observer", [&observations] { ++observations; })
        .sensitive(s.value_changed_event());
  }
};

TEST(InstrumentationCounters, TwoProcessDesignHasKnownCounts) {
  Simulation sim;
  Signal<int> s(sim, nullptr, "s", 0);
  int observations = 0;
  TwoProcess top(sim, s, observations);
  sim.run();

  const auto& st = sim.stats();
  // Driver: init run + (kWrites - 1) timed wake-ups + final wake-up to
  // fall off the end = kWrites + 1 activations.  Observer: init run +
  // kWrites value changes.
  const std::uint64_t driver_acts = TwoProcess::kWrites + 1;
  const std::uint64_t observer_acts = TwoProcess::kWrites + 1;
  EXPECT_EQ(observations, TwoProcess::kWrites + 1);
  EXPECT_EQ(st.process_activations, driver_acts + observer_acts);
  // Only the method process counts as a method invocation.
  EXPECT_EQ(st.method_invocations, observer_acts);
  // Every thread activation costs a switch in and a switch out — except
  // the terminating one, which returns to the scheduler via uc_link.
  EXPECT_EQ(st.context_switches, 2 * driver_acts - 1);
  EXPECT_EQ(st.signal_updates, static_cast<std::uint64_t>(TwoProcess::kWrites));
  EXPECT_GE(st.delta_cycles, static_cast<std::uint64_t>(TwoProcess::kWrites));
  // One value-changed notification and firing per effective write.
  EXPECT_EQ(st.events_notified, static_cast<std::uint64_t>(TwoProcess::kWrites));
  EXPECT_EQ(st.events_fired, static_cast<std::uint64_t>(TwoProcess::kWrites));

  // Per-process attribution sums to the simulation-wide total.
  std::uint64_t sum = 0;
  bool saw_driver = false, saw_observer = false;
  for (const auto& [name, n] : sim.process_activations()) {
    sum += n;
    if (name == "two.driver") { saw_driver = true; EXPECT_EQ(n, driver_acts); }
    if (name == "two.observer") { saw_observer = true; EXPECT_EQ(n, observer_acts); }
  }
  EXPECT_TRUE(saw_driver);
  EXPECT_TRUE(saw_observer);
  EXPECT_EQ(sum, st.process_activations);
}

TEST(Scheduler, DeltaLimitCatchesOscillation) {
  Simulation sim;
  sim.set_max_delta_cycles(100);
  Signal<bool> a(sim, nullptr, "a", false);

  class M : public Module {
   public:
    M(Simulation& sim, Signal<bool>& a) : Module(sim, "m") {
      // A zero-delay ring oscillator (inverter feeding itself) never
      // settles: each delta toggles the signal again.
      method("inv", [&a] { a.write(!a.read()); }).sensitive(a.value_changed_event());
    }
  } m(sim, a);

  EXPECT_THROW(sim.run(), std::runtime_error);
}

}  // namespace
}  // namespace minisc
