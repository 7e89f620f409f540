// Simulator observability counters, reported by the Fig. 8/9 benches so
// BENCH_*.json captures the perf trajectory of the interpreted engines.
// One struct serves the gate-level simulator, the RTL interpreter wrapper
// and the cosim bridge; engines leave fields they do not track at zero.
#pragma once

#include <cstdint>
#include <string_view>

namespace scflow::obs {
class Registry;
}

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
  /// each level boundary inside settle() — the per-settle sum across all
  /// sweep shards of a level — so the value is identical for every thread
  /// count, sharded or not.
  std::uint64_t peak_queue_depth = 0;
  /// Heap allocations performed by step()/settle() after construction.
  /// The table-driven engine keeps this at zero in steady state.
  std::uint64_t steady_state_allocs = 0;
};

/// One sweep lane's cumulative share of the parallel level sweep.  The
/// shard split depends only on the dirty-word partition (deterministic);
/// shard sums reproduce the SimCounters totals.
struct WorkerShardStats {
  /// Unit evaluations this lane performed (macro ports it *found* count
  /// here too — the deferred evaluation runs on the calling thread, but
  /// the consuming lane owns the work unit).
  std::uint64_t evaluations = 0;
  /// Fresh dirty-bit transitions this lane caused.  External marks (from
  /// construction, set_input, flop commits, RAM re-reads and deferred
  /// macro-port evaluation) run on the calling thread and count under
  /// lane 0, so the lane sum still reproduces the SimCounters total.
  std::uint64_t dirty_pushes = 0;
  /// Level sweeps this lane took part in (parallel rounds + inline runs
  /// on lane 0).
  std::uint64_t level_sweeps = 0;

  /// Registry mapping: emits "<prefix>.evaluations" etc.  Callers
  /// typically pass a per-lane prefix such as "gate.worker3".
  void record_into(scflow::obs::Registry& reg, std::string_view prefix) const;
};

}  // namespace scflow::hdlsim
