// Simulator observability counters, reported by the Fig. 8/9 benches so
// BENCH_*.json captures the perf trajectory of the interpreted engines.
// One struct serves the gate-level simulator, the RTL interpreter wrapper
// and the cosim bridge; engines leave fields they do not track at zero.
#pragma once

#include <cstdint>

namespace scflow::hdlsim {

struct SimCounters {
  /// Unit (gate / macro-port / RTL-node) evaluations performed.
  std::uint64_t evaluations = 0;
  /// Dirty-queue insertions (event-driven engines only).
  std::uint64_t dirty_pushes = 0;
  /// settle() invocations (one per clock edge plus explicit calls).
  std::uint64_t settle_calls = 0;
  /// Level sweeps that actually found queued work inside settle().
  std::uint64_t settle_passes = 0;
  /// Macro read-port re-evaluations forced by RAM writes.
  std::uint64_t ram_rereads = 0;
  /// High-water mark of units queued dirty at once.  Sampled after each
  /// external mark batch (set_input, flop commit, RAM re-reads) and at
  /// each level boundary inside settle(), never mid-level.
  std::uint64_t peak_queue_depth = 0;
  /// Heap allocations performed by step()/settle() after construction.
  /// The table-driven engine keeps this at zero in steady state.
  std::uint64_t steady_state_allocs = 0;
};

/// One worker's share of a DUT engine's evaluation work — the element
/// type of Dut::worker_stats().  Every in-tree engine evaluates on the
/// calling thread and reports an empty vector; shard sums, where a
/// wrapper supplies shards, reproduce the SimCounters totals.
struct WorkerShardStats {
  std::uint64_t evaluations = 0;
  std::uint64_t dirty_pushes = 0;
  std::uint64_t level_sweeps = 0;
};

}  // namespace scflow::hdlsim
