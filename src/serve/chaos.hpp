// Deterministic seeded chaos injection for the streaming SRC service.
//
// A ChaosPlan is a PURE FUNCTION of its seed: every query hashes
// (seed, fault-class salt, coordinates) and compares against a
// per-class firing rate, so the same seed produces the same fault
// schedule on every run, every thread count, and every host.  That
// purity is what makes chaos runs gateable: the soak asserts that
// surviving sessions' output hashes are bit-identical across lane
// counts {1,2,4,8} WITH the faults firing, which only means something
// if the faults themselves are scheduling-invariant.
//
// Five fault classes, mirroring what a hostile/overloaded deployment
// does to the service (ChaosClass):
//  * kLaneStall      — a dispatched conversion job burns its whole
//                      BatchRunner::JobContext wall budget before doing
//                      its work (deadline abuse; semantics preserved,
//                      time wasted).  Injected by SrcService itself.
//  * kDisconnect     — a client vanishes mid-stream (driver closes the
//                      session without draining it).
//  * kOversizedPush  — a client offers far more than the input ring can
//                      hold, preceded by a malformed (null-buffer) push.
//  * kRingStorm      — a client stops pulling, wedging the output ring
//                      full until the storm passes (backpressure path).
//  * kAllocFail      — session-state allocation "fails" at try_open() and
//                      the admission path must reject, not crash.
//                      Injected by SrcService itself.
//
// The service-side injections key on deterministic coordinates (step
// count, slot, open index); the driver-side ones key on the driver's own
// round counter.  Both land in ResilienceStats via SrcService counters
// or note_chaos(), so one ledger entry carries the whole fault census.
#pragma once

#include <cstdint>

namespace scflow::serve {

enum class ChaosClass : std::uint8_t {
  kLaneStall = 0,
  kDisconnect,
  kOversizedPush,
  kRingStorm,
  kAllocFail,
};
inline constexpr int kChaosClassCount = 5;

[[nodiscard]] const char* chaos_class_name(ChaosClass c);

/// Firing rates are probabilities in 1/65536 units (0 disables a class).
/// The defaults are tuned for soak workloads of a few dozen sessions and
/// a few dozen scheduler rounds: every class fires several times per
/// seed without drowning the workload.
struct ChaosOptions {
  std::uint64_t seed = 1;
  std::uint32_t stall_per_dispatch = 1u << 9;    ///< ~0.8% of dispatches
  std::uint32_t disconnect_per_round = 1u << 5;  ///< ~0.05% per (round, session)
  std::uint32_t oversized_per_round = 1u << 8;   ///< ~0.4% per (round, session)
  std::uint32_t storm_per_round = 1u << 7;       ///< ~0.2% per (round, session)
  std::uint32_t alloc_fail_per_open = 1u << 12;  ///< ~6% of opens
  std::uint32_t storm_len_rounds = 12;           ///< how long a storm blocks pulls
  /// Wall budget a stalled job burns (and the BatchRunner per-job budget
  /// SrcService installs while a plan is attached) — keeps every injected
  /// stall bounded: nothing hangs past its deadline.
  std::uint64_t stall_budget_ns = 200'000;
};

class ChaosPlan {
 public:
  explicit ChaosPlan(const ChaosOptions& options) : opt_(options) {}

  [[nodiscard]] const ChaosOptions& options() const { return opt_; }
  [[nodiscard]] std::uint64_t seed() const { return opt_.seed; }

  // Pure decision queries — no internal state, safe from any thread.
  [[nodiscard]] bool stall_lane(std::uint64_t step, std::uint32_t slot) const {
    return fire(opt_.stall_per_dispatch, ChaosClass::kLaneStall, step, slot);
  }
  [[nodiscard]] bool disconnect(std::uint64_t round, std::uint32_t session) const {
    return fire(opt_.disconnect_per_round, ChaosClass::kDisconnect, round, session);
  }
  [[nodiscard]] bool oversized_push(std::uint64_t round, std::uint32_t session) const {
    return fire(opt_.oversized_per_round, ChaosClass::kOversizedPush, round, session);
  }
  [[nodiscard]] bool ring_storm_start(std::uint64_t round, std::uint32_t session) const {
    return fire(opt_.storm_per_round, ChaosClass::kRingStorm, round, session);
  }
  [[nodiscard]] bool fail_allocation(std::uint64_t open_index) const {
    return fire(opt_.alloc_fail_per_open, ChaosClass::kAllocFail, open_index, 0);
  }

  /// The decision hash, exposed for the purity unit test.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t seed, std::uint8_t salt,
                                         std::uint64_t a, std::uint64_t b);

 private:
  [[nodiscard]] bool fire(std::uint32_t rate, ChaosClass salt, std::uint64_t a,
                          std::uint64_t b) const {
    if (rate == 0) return false;
    return (mix(opt_.seed, static_cast<std::uint8_t>(salt), a, b) & 0xffff) < rate;
  }

  ChaosOptions opt_;
};

}  // namespace scflow::serve
