// Ablation: minisc kernel primitive costs — the mechanisms behind the
// Fig. 8 performance ladder.  Thread (fiber) context switches are the
// dominant cost of SC_THREAD-style modelling; method processes and signal
// updates are what the clocked levels pay per cycle.
#include <benchmark/benchmark.h>

#include "bench_json_main.hpp"

#include "kernel/clock.hpp"
#include "kernel/module.hpp"
#include "kernel/signal.hpp"
#include "kernel/simulation.hpp"

namespace {

using namespace minisc;

/// Two threads ping-ponging through events: 2 context switches per round.
void Kernel_ThreadPingPong(benchmark::State& state) {
  std::uint64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    Event ping(sim, "ping"), pong(sim, "pong");
    constexpr int kRounds = 10000;

    class M : public Module {
     public:
      M(Simulation& sim, Event& ping, Event& pong) : Module(sim, "m") {
        thread("a", [this, &ping, &pong] {
          wait(Time::ns(1));  // let the partner reach its first wait
          for (int i = 0; i < kRounds; ++i) {
            ping.notify();
            wait(pong);
          }
        });
        thread("b", [this, &ping, &pong] {
          for (int i = 0; i < kRounds; ++i) {
            wait(ping);
            pong.notify();
          }
        });
      }
    } m(sim, ping, pong);
    state.ResumeTiming();
    sim.run();
    state.PauseTiming();
    total += sim.stats().context_switches;
    state.ResumeTiming();
  }
  state.counters["ctx_switch_per_s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

/// A method process triggered by a self-rescheduling timed event.
void Kernel_MethodActivations(benchmark::State& state) {
  std::uint64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    Event tick(sim, "tick");
    int count = 0;

    class M : public Module {
     public:
      M(Simulation& sim, Event& tick, int& count) : Module(sim, "m") {
        method("m", [&sim, &tick, &count] {
          if (++count < 20000) tick.notify(Time::ns(10));
          // method re-fires through the timed queue
        }).sensitive(tick);
      }
    } m(sim, tick, count);
    state.ResumeTiming();
    sim.run();
    state.PauseTiming();
    total += sim.stats().process_activations;
    state.ResumeTiming();
  }
  state.counters["activation_per_s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

/// Clock generation plus one clocked method — the per-cycle floor every
/// RTL/behavioural model pays.
void Kernel_ClockedMethodCycle(benchmark::State& state) {
  std::uint64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    Clock clk(sim, "clk", Time::ns(40));
    std::uint64_t edges = 0;

    class M : public Module {
     public:
      M(Simulation& sim, Clock& clk, std::uint64_t& edges) : Module(sim, "m") {
        method("fsm", [&edges] { ++edges; }).sensitive(clk.posedge_event());
      }
    } m(sim, clk, edges);
    state.ResumeTiming();
    sim.run_until(Time::us(400));  // 10000 cycles
    state.PauseTiming();
    total += clk.posedge_count();
    state.ResumeTiming();
  }
  state.counters["cyc_per_s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

/// Signal write+update+notification cost.
void Kernel_SignalUpdates(benchmark::State& state) {
  std::uint64_t total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    Signal<int> sig(sim, nullptr, "s", 0);

    class M : public Module {
     public:
      M(Simulation& sim, Signal<int>& sig) : Module(sim, "m") {
        thread("w", [this, &sig] {
          for (int i = 1; i <= 20000; ++i) {
            sig.write(i);
            wait(minisc::Time::ns(1));
          }
        });
      }
    } m(sim, sig);
    state.ResumeTiming();
    sim.run();
    state.PauseTiming();
    total += sim.stats().signal_updates;
    state.ResumeTiming();
  }
  state.counters["update_per_s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}

BENCHMARK(Kernel_ThreadPingPong)->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_MethodActivations)->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_ClockedMethodCycle)->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_SignalUpdates)->Unit(benchmark::kMillisecond);

}  // namespace

SCFLOW_BENCHMARK_MAIN()
