// Streaming SRC service (ROADMAP item 3): session-oriented sample-rate
// conversion for thousands of concurrent streams.  A client opens a
// session with an arbitrary rational input/output rate pair (any ratio
// dsp::plan_ratio accepts — the four paper pairs run bit-exact with the
// golden model), pushes chunked stereo audio and pulls converted audio.
//
// Flow control is watermark-based and explicit: push() returns how many
// samples the bounded input ring accepted, pull() returns how many were
// available — neither blocks and nothing is dropped silently.  A session
// whose output ring is full simply stops being scheduled until the
// client drains it (the unconsumed inputs stay queued).
//
// Scheduling: step() scans the slot table in round-robin rotation,
// collects sessions that are ready (input queued AND enough output
// space for one full input's worth of results) and fans the first
// max_sessions_per_step of them over hdlsim::BatchRunner lanes, each
// dispatch bounded by work_quantum input samples.  The rotation cursor
// restarts after the last dispatched slot, so sessions passed over in
// one step lead the next — their starvation streak is bounded by
// ceil(ready / max_sessions_per_step) steps (asserted in tests).
//
// Determinism: a session is touched by at most one lane per step and the
// runner joins between steps, so each session's output stream — and its
// running FNV-1a output hash — depends only on its own input sequence,
// never on the lane count or claiming order (bit-identical for
// threads in {1,2,4,8}; see tests/test_serve.cpp).
//
// Resilience layer (tests/test_resilience.cpp):
//  * Leases — sessions carry step-based idle/lifetime leases.  A lapsed
//    lease moves the session to kEvicting: pushes are refused (counted),
//    but it keeps being scheduled until its queued inputs drain, then
//    lands in kEvicted — no accepted sample is silently dropped.  The
//    evicted slot's stats stay readable; reclaiming it bumps the
//    generation, invalidating stale handles.
//  * Admission control — try_open() returns a reasoned verdict
//    (kOverloaded / kRateUnsupported / kAllocFailed) with the id; with a shed watermark configured, a full table sheds
//    the lowest-progress session (deterministic victim: min converted
//    inputs, lowest slot breaks ties) to admit the newcomer, counting
//    every dropped sample.
//  * Chaos — an attached serve::ChaosPlan injects deterministic lane
//    stalls (bounded by the runner's per-job budget) and allocation
//    failures; drivers report their own plan-driven faults through
//    note_chaos().  All injections are pure functions of (seed, step /
//    open-index, slot), so the fault schedule — and every surviving
//    session's output hash — is bit-identical across thread counts.
//  * Snapshots — save_state()/load_state() serialize the complete
//    deterministic service state; serve/resilience.hpp wraps them in a
//    checksummed envelope for crash-consistent checkpoint/restore.
//
// Threading contract: try_open/close/step/record_into belong to one control
// thread; push/pull/stats may run concurrently from one client thread
// per session (SampleRing is SPSC).  Client threads stamp lease
// activity through a relaxed atomic the control thread samples at
// step() — no locks on the data path.  Slot lifecycle transitions
// (close, eviction, shed, reclaim) follow the same rule close() always
// had: the driver must not let a session's client calls race the
// control-thread call that retires that same session.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/state_io.hpp"
#include "dsp/rational_src.hpp"
#include "obs/histogram.hpp"
#include "obs/ledger.hpp"
#include "serve/chaos.hpp"
#include "serve/resilience.hpp"
#include "serve/sample_ring.hpp"

namespace scflow::obs {
struct Session;
}
namespace scflow::hdlsim {
class BatchRunner;
}

namespace scflow::serve {

/// Slot-plus-generation handle: reusing a slot after close() bumps the
/// generation, so a stale id held by a client resolves to nothing
/// instead of to the next tenant's stream.
struct SessionId {
  static constexpr std::uint32_t kInvalidSlot = 0xffff'ffffu;
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t generation = 0;
  [[nodiscard]] bool valid() const { return slot != kInvalidSlot; }
  friend bool operator==(const SessionId&, const SessionId&) = default;
};

/// try_open()'s verdict: the id is valid iff status == kAdmitted.
struct AdmitResult {
  SessionId id;
  AdmitStatus status = AdmitStatus::kAdmitted;
};

struct SessionConfig {
  std::uint32_t fs_in_hz = 48'000;
  std::uint32_t fs_out_hz = 48'000;
  dsp::RationalSrc::TimeBase time_base = dsp::RationalSrc::TimeBase::kContinuousPs;
};

/// Per-session accounting.  The conservation laws the backpressure tests
/// pin: accepted == converted_in + (input ring occupancy), and
/// produced == pulled + (output ring occupancy) — nothing ever vanishes.
struct SessionStats {
  std::uint64_t accepted = 0;       ///< inputs the ring took from push()
  std::uint64_t push_rejected = 0;  ///< inputs push() had to turn away
  std::uint64_t converted_in = 0;   ///< inputs consumed by the converter
  std::uint64_t produced = 0;       ///< outputs written to the output ring
  std::uint64_t pulled = 0;         ///< outputs handed back through pull()
  std::uint64_t dispatches = 0;     ///< scheduler grants
  std::uint32_t starve_streak = 0;  ///< consecutive ready-but-skipped steps
  std::uint32_t starve_streak_max = 0;
  std::uint64_t output_hash = 0;    ///< FNV-1a over the produced stream
};

/// External view of a session's lifecycle (SessionStats stays pure
/// sample accounting).
enum class SessionPhase : std::uint8_t {
  kUnknown = 0,  ///< stale or never-issued id
  kOpen,
  kClosing,
  kEvicting,  ///< lease lapsed; draining queued inputs, pushes refused
  kEvicted,   ///< drained; terminal, stats/pull alive until reclaim
};

struct ServiceOptions {
  /// BatchRunner lane semantics: 1 = convert inline on the control
  /// thread, N > 1 = N-1 workers plus the control thread, 0 = one lane
  /// per hardware thread.
  unsigned threads = 1;
  std::size_t max_sessions = 4096;
  std::size_t input_ring = 1024;   ///< per-session input ring capacity
  std::size_t output_ring = 1024;  ///< per-session output ring capacity
  /// Work quantum: at most this many input samples are converted per
  /// session per dispatch, so one deep backlog cannot monopolise a lane.
  std::size_t work_quantum = 256;
  /// 0 = dispatch every ready session each step.
  std::size_t max_sessions_per_step = 0;
  /// Lease timeouts in scheduler steps (0 disables).  Idle = steps since
  /// the session last saw client activity or converted work; lifetime =
  /// steps since open.  Step-based, not wall-clock, so lease decisions
  /// are bit-identical across thread counts.
  std::uint64_t idle_timeout_steps = 0;
  std::uint64_t max_lifetime_steps = 0;
  /// Load shedding: when > 0 and the table is full, try_open() evicts
  /// the lowest-progress session (dropping its queued samples, counted)
  /// once live sessions reach this watermark.  0 = never shed.
  std::size_t shed_high_watermark = 0;
};

class SrcService {
 public:
  explicit SrcService(ServiceOptions options = {});
  SrcService(const SrcService&) = delete;
  SrcService& operator=(const SrcService&) = delete;
  ~SrcService();

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  /// Opens a session with a reasoned verdict; never throws for a
  /// well-formed config.  Rejections are counted in resilience_stats().
  AdmitResult try_open(const SessionConfig& config);
  /// Marks the session closed.  Stats stay readable until the next
  /// step(), which reclaims the slot (no lane can be holding it then).
  bool close(SessionId id);

  /// Client side.  push returns how many of @p n samples were accepted;
  /// pull returns how many converted samples were written to @p out.
  /// A malformed push (null @p samples with n > 0) is refused and
  /// counted, never dereferenced.
  std::size_t push(SessionId id, const dsp::StereoSample* samples, std::size_t n);
  std::size_t pull(SessionId id, dsp::StereoSample* out, std::size_t cap);
  [[nodiscard]] std::size_t in_free(SessionId id) const;
  [[nodiscard]] std::size_t out_available(SessionId id) const;
  /// Null for a stale or never-issued id.
  [[nodiscard]] const SessionStats* stats(SessionId id) const;
  [[nodiscard]] SessionPhase phase(SessionId id) const;

  /// One scheduler round; returns the number of sessions dispatched.
  std::size_t step();
  /// Steps until no session is ready (or @p max_steps); returns steps taken.
  std::size_t run_until_idle(std::size_t max_steps = ~std::size_t{0});
  /// Reclaims every kEvicted slot now (stats become unreadable, stale
  /// handles invalid); returns how many were swept.  Unpulled outputs
  /// are counted into evict_unpulled — never dropped silently.
  std::size_t sweep_evicted();

  /// Attaches (or detaches, nullptr) a chaos plan.  The plan must
  /// outlive the attachment.  While attached, the runner's per-job wall
  /// budget is the plan's stall budget, so injected stalls expire
  /// instead of hanging.
  void set_chaos(const ChaosPlan* plan);
  [[nodiscard]] const ChaosPlan* chaos() const { return chaos_; }
  /// Driver-side fault report: a workload that injected a plan-driven
  /// fault itself (disconnect, oversized push, ring storm) records it
  /// here so the ledger carries the complete census.
  void note_chaos(ChaosClass c);

  [[nodiscard]] std::size_t session_count() const { return open_count_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatch_total_; }
  [[nodiscard]] std::uint32_t starve_streak_max() const { return starve_streak_max_; }
  [[nodiscard]] const obs::Histogram& job_ns_histogram() const { return job_ns_; }
  [[nodiscard]] ResilienceStats resilience_stats() const;

  /// Snapshot support — prefer serve/resilience.hpp's checksummed
  /// snapshot_service()/restore_service() envelope.  save_state writes
  /// the complete deterministic state; load_state (fresh service only)
  /// returns false with a diagnostic on any shape mismatch.
  void save_state(core::StateWriter& w) const;
  [[nodiscard]] bool load_state(core::StateReader& r, std::string* error = nullptr);

  /// Records the service's lifetime aggregates into @p session's ledger:
  /// one "serve.ratio" entry per distinct rate pair (sorted,
  /// deterministic), one "serve.resilience" entry carrying the
  /// eviction/shed/admission/chaos/snapshot census, and one "serve.run"
  /// summary entry (with the per-dispatch "job_ns" histogram) whose input
  /// hash fingerprints the session-count × ratio population.  Everything
  /// except "*_ns" metrics is bit-identical across thread counts.
  void record_into(obs::Session& session, std::string_view run_label = "run") const;

 private:
  // The envelope layer records saves/restores in the census.
  friend std::string snapshot_service(SrcService& service);
  friend bool restore_service(std::string_view image, SrcService& into,
                              std::string* error);

  enum class SlotState : std::uint8_t {
    kFree = 0,
    kOpen,
    kClosing,
    kEvicting,
    kEvicted,
  };

  struct SessionState;

  struct Slot {
    std::uint32_t generation = 1;
    SlotState state = SlotState::kFree;
    std::unique_ptr<SessionState> session;
  };

  /// Aggregate of closed sessions sharing one rate pair; live sessions
  /// are folded in at record_into time.
  struct RatioAgg {
    std::uint64_t sessions = 0;
    std::uint64_t accepted = 0;
    std::uint64_t push_rejected = 0;
    std::uint64_t converted_in = 0;
    std::uint64_t produced = 0;
    std::uint64_t pulled = 0;
  };

  [[nodiscard]] SessionState* resolve(SessionId id, bool allow_closing = false) const;
  void service_one(SessionState& s) const;
  void reclaim();
  void retire_slot(std::uint32_t idx);  ///< fold stats, free, bump generation
  void apply_leases();
  [[nodiscard]] bool shed_one();  ///< evict lowest-progress; true if freed a slot

  ServiceOptions options_;
  std::unique_ptr<hdlsim::BatchRunner> runner_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t rr_cursor_ = 0;
  std::size_t open_count_ = 0;

  std::uint64_t opened_total_ = 0;
  std::uint64_t closed_total_ = 0;
  std::uint64_t admit_attempts_ = 0;  ///< try_open calls (chaos alloc-fail key)
  std::uint64_t steps_ = 0;
  std::uint64_t dispatch_total_ = 0;
  std::uint32_t starve_streak_max_ = 0;
  obs::Histogram job_ns_;  ///< per-dispatch wall time (control-thread merged)

  std::map<std::uint64_t, RatioAgg> closed_ratio_aggs_;  ///< key: fs_in<<32 | fs_out

  const ChaosPlan* chaos_ = nullptr;
  ResilienceStats res_;
  /// Lane-side stall census: lanes increment concurrently during a step,
  /// the control thread folds it into res_.chaos_stalls at the join.
  /// Addition commutes, so the total is scheduling-invariant.
  mutable std::atomic<std::uint64_t> lane_stalls_{0};
  /// Client-side refusal census (pushes to evicting/evicted sessions);
  /// atomic because clients hit it from their own threads.
  std::atomic<std::uint64_t> evict_push_rejected_{0};

  // Step scratch (control thread only).
  std::vector<std::size_t> dispatch_list_;
  std::vector<std::size_t> starved_list_;
};

}  // namespace scflow::serve
