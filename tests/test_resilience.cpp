// Resilience-layer tests for the streaming SRC service: SampleRing edge
// cases (u64 counter wraparound, zero capacity, concurrent SPSC stress),
// session leases and graceful eviction (drain-before-evict, generation
// invalidation), admission control and load shedding, deterministic
// chaos injection (plan purity, thread-invariant fault schedules, the
// 32-seed soak of all five fault classes at threads {1,2,4,8}), and the
// crash-consistent snapshot/restore envelope (bit-identical continuation
// on all eight ratio pairs, thread-invariant images, corruption
// rejection).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/stimulus.hpp"
#include "obs/session.hpp"
#include "serve/chaos.hpp"
#include "serve/resilience.hpp"
#include "serve/sample_ring.hpp"
#include "serve/src_service.hpp"

namespace scflow::serve {
namespace {

using dsp::StereoSample;

// The four paper pairs plus staged ratios, as in the service tests.
constexpr std::uint32_t kRatioTable[][2] = {
    {44'100, 48'000}, {48'000, 44'100}, {48'000, 48'000}, {32'000, 48'000},
    {8'000, 48'000},  {48'000, 8'000},  {22'050, 48'000}, {44'100, 8'000},
};

// --- SampleRing edges ----------------------------------------------------

TEST(SampleRingEdge, ZeroCapacityThrows) {
  EXPECT_THROW(SampleRing ring(0), std::invalid_argument);
}

TEST(SampleRingEdge, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SampleRing(1).capacity(), 2u);
  EXPECT_EQ(SampleRing(2).capacity(), 2u);
  EXPECT_EQ(SampleRing(3).capacity(), 4u);
  EXPECT_EQ(SampleRing(1000).capacity(), 1024u);
}

TEST(SampleRingEdge, CounterWraparoundPreservesFifoOrder) {
  // Seed head/tail 4 below the u64 wrap point, then stream enough
  // samples through to carry both counters across 2^64 -> 0.  The
  // head - tail arithmetic must stay exact through the wrap.
  constexpr std::uint64_t kStart = ~std::uint64_t{0} - 3;
  SampleRing ring(8, kStart);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.free_space(), 8u);

  std::int16_t next_in = 0;
  std::int16_t next_out = 0;
  std::uint64_t streamed = 0;
  while (streamed < 64) {  // well past the wrap at streamed == 4
    StereoSample chunk[5];
    for (auto& s : chunk) {
      s.left = next_in;
      s.right = static_cast<std::int16_t>(-next_in);
      ++next_in;
    }
    const std::size_t took = ring.push(chunk, 5);
    ASSERT_LE(took, 5u);
    next_in = static_cast<std::int16_t>(next_out + static_cast<std::int16_t>(ring.size()));
    streamed += took;
    StereoSample out[3];
    const std::size_t got = ring.pop(out, 3);
    for (std::size_t i = 0; i < got; ++i) {
      EXPECT_EQ(out[i].left, next_out);
      EXPECT_EQ(out[i].right, static_cast<std::int16_t>(-next_out));
      ++next_out;
    }
    EXPECT_LE(ring.size(), ring.capacity());
    EXPECT_EQ(ring.size() + ring.free_space(), ring.capacity());
  }
  StereoSample out[8];
  std::size_t got;
  while ((got = ring.pop(out, 8)) > 0) {
    for (std::size_t i = 0; i < got; ++i) {
      EXPECT_EQ(out[i].left, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SampleRingEdge, ConcurrentSpscStressKeepsEverySample) {
  // One producer, one consumer, tiny ring: maximum contention on the
  // head/tail handoff.  Under TSan this exercises the acquire/release
  // pairing; everywhere it checks nothing is lost or reordered.
  constexpr std::size_t kTotal = 50'000;
  SampleRing ring(4);
  std::thread producer([&] {
    std::uint32_t v = 0;
    StereoSample s;
    while (v < kTotal) {
      s.left = static_cast<std::int16_t>(v & 0x7fff);
      s.right = static_cast<std::int16_t>((v >> 15) & 0x7fff);
      if (ring.push(&s, 1) == 1) ++v;
      else std::this_thread::yield();
    }
  });
  std::uint32_t expect = 0;
  StereoSample out[8];
  while (expect < kTotal) {
    const std::size_t got = ring.pop(out, 8);
    if (got == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i].left, static_cast<std::int16_t>(expect & 0x7fff));
      ASSERT_EQ(out[i].right, static_cast<std::int16_t>((expect >> 15) & 0x7fff));
      ++expect;
    }
  }
  producer.join();
  EXPECT_EQ(ring.size(), 0u);
}

// --- leases & eviction ---------------------------------------------------

ServiceOptions small_service(std::size_t max_sessions = 4) {
  ServiceOptions opt;
  opt.max_sessions = max_sessions;
  opt.input_ring = 64;
  opt.output_ring = 64;
  opt.work_quantum = 32;
  return opt;
}

TEST(Leases, IdleSessionIsEvictedAndCounted) {
  ServiceOptions opt = small_service();
  opt.idle_timeout_steps = 3;
  SrcService service(opt);
  const SessionId id = service.try_open({48'000, 48'000}).id;
  const auto stim = dsp::make_noise_stimulus(40, 7);
  EXPECT_EQ(service.push(id, stim.data(), stim.size()), stim.size());
  service.run_until_idle();
  std::vector<StereoSample> out(64);
  while (service.pull(id, out.data(), out.size()) > 0) {}
  EXPECT_EQ(service.phase(id), SessionPhase::kOpen);

  // No client activity, nothing queued: the lease lapses and the session
  // goes straight to kEvicted (already drained).
  for (int i = 0; i < 5; ++i) service.step();
  EXPECT_EQ(service.phase(id), SessionPhase::kEvicted);
  const ResilienceStats res = service.resilience_stats();
  EXPECT_EQ(res.evict_idle, 1u);
  EXPECT_EQ(res.evict_lifetime, 0u);
  EXPECT_EQ(res.evict_drained, 1u);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST(Leases, LifetimeLeaseEvictsEvenAnActiveSession) {
  ServiceOptions opt = small_service();
  opt.max_lifetime_steps = 4;
  SrcService service(opt);
  const SessionId id = service.try_open({44'100, 48'000}).id;
  const auto stim = dsp::make_noise_stimulus(8, 3);
  std::vector<StereoSample> out(64);
  // The client keeps pushing and pulling every step — idle never trips,
  // but the lifetime lease still does.
  for (int i = 0; i < 8; ++i) {
    (void)service.push(id, stim.data(), stim.size());
    service.step();
    while (service.pull(id, out.data(), out.size()) > 0) {}
    if (service.phase(id) != SessionPhase::kOpen) break;
  }
  // Drain whatever the eviction left queued.
  service.run_until_idle();
  while (service.pull(id, out.data(), out.size()) > 0) {}
  EXPECT_EQ(service.phase(id), SessionPhase::kEvicted);
  EXPECT_EQ(service.resilience_stats().evict_lifetime, 1u);
}

TEST(Leases, EvictionDrainsQueuedInputsBeforeTerminal) {
  // Wedge the output ring so the session stalls with inputs queued, let
  // the idle lease lapse, then verify the drain contract: pushes are
  // refused (counted), queued inputs still convert, and only then does
  // the session reach kEvicted.  No accepted sample is dropped.
  ServiceOptions opt = small_service();
  opt.output_ring = 16;   // rounds to 16; two quanta wedge it
  opt.input_ring = 256;
  opt.work_quantum = 16;
  opt.idle_timeout_steps = 2;
  SrcService service(opt);
  const SessionId id = service.try_open({48'000, 48'000}).id;
  const auto stim = dsp::make_noise_stimulus(64, 11);
  ASSERT_EQ(service.push(id, stim.data(), stim.size()), stim.size());
  // Convert until the output ring is full and the session stalls.
  for (int i = 0; i < 10; ++i) service.step();
  const SessionStats before = *service.stats(id);
  EXPECT_LT(before.converted_in, 64u);  // stalled mid-stream
  EXPECT_GT(before.converted_in, 0u);

  // Stall long enough for the idle lease: the session enters kEvicting
  // with inputs still queued.
  for (int i = 0; i < 4; ++i) service.step();
  EXPECT_EQ(service.phase(id), SessionPhase::kEvicting);

  // Pushes to an evicting session are refused and counted.
  const std::size_t accepted = service.push(id, stim.data(), 8);
  EXPECT_EQ(accepted, 0u);
  EXPECT_GE(service.resilience_stats().evict_push_rejected, 8u);

  // The client drains; the service keeps scheduling the evicting session
  // until its queue is empty, then retires it to kEvicted.
  std::vector<StereoSample> out(64);
  std::uint64_t pulled = 0;
  for (int i = 0; i < 50 && service.phase(id) != SessionPhase::kEvicted; ++i) {
    std::size_t got;
    while ((got = service.pull(id, out.data(), out.size())) > 0) pulled += got;
    service.step();
  }
  while (true) {
    const std::size_t got = service.pull(id, out.data(), out.size());
    if (got == 0) break;
    pulled += got;
  }
  EXPECT_EQ(service.phase(id), SessionPhase::kEvicted);
  const SessionStats* after = service.stats(id);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->accepted, 64u);
  EXPECT_EQ(after->converted_in, 64u);  // everything accepted was converted
  EXPECT_EQ(after->produced, pulled);   // everything produced was pulled
  EXPECT_EQ(service.resilience_stats().evict_drained, 1u);
}

TEST(Leases, SweepReclaimsEvictedSlotAndInvalidatesHandle) {
  ServiceOptions opt = small_service(1);
  opt.idle_timeout_steps = 1;
  SrcService service(opt);
  const SessionId id = service.try_open({48'000, 44'100}).id;
  const auto stim = dsp::make_noise_stimulus(32, 5);
  ASSERT_EQ(service.push(id, stim.data(), stim.size()), stim.size());
  service.run_until_idle();
  for (int i = 0; i < 3; ++i) service.step();
  ASSERT_EQ(service.phase(id), SessionPhase::kEvicted);
  const std::uint64_t produced = service.stats(id)->produced;
  ASSERT_GT(produced, 0u);  // deliberately left unpulled

  EXPECT_EQ(service.sweep_evicted(), 1u);
  EXPECT_EQ(service.resilience_stats().evict_unpulled, produced);
  EXPECT_EQ(service.stats(id), nullptr);
  EXPECT_EQ(service.phase(id), SessionPhase::kUnknown);
  EXPECT_EQ(service.push(id, stim.data(), 4), 0u);

  // The slot is reusable; the stale handle never resolves to the tenant.
  const SessionId next = service.try_open({48'000, 48'000}).id;
  ASSERT_TRUE(next.valid());
  EXPECT_EQ(next.slot, id.slot);
  EXPECT_NE(next.generation, id.generation);
  EXPECT_EQ(service.stats(id), nullptr);
  EXPECT_NE(service.stats(next), nullptr);
}

// --- admission control & shedding ---------------------------------------

TEST(Admission, RejectsUnsupportedRateWithReason) {
  SrcService service(small_service());
  for (const SessionConfig bad :
       {SessionConfig{0, 48'000}, SessionConfig{2'000, 48'000},
        SessionConfig{48'000, 1'000'000}}) {
    const AdmitResult r = service.try_open(bad);
    EXPECT_EQ(r.status, AdmitStatus::kRateUnsupported) << bad.fs_in_hz << "->" << bad.fs_out_hz;
    EXPECT_FALSE(r.id.valid());
    EXPECT_STREQ(admit_status_name(r.status), "rate_unsupported");
  }
  EXPECT_EQ(service.resilience_stats().admit_rate_unsupported, 3u);
  EXPECT_EQ(service.session_count(), 0u) << "rejected opens must not leak slots";
  EXPECT_TRUE(service.try_open({48'000, 48'000}).id.valid());
}

TEST(Admission, FullTableRejectsAsOverloadedWithoutWatermark) {
  SrcService service(small_service(2));
  ASSERT_EQ(service.try_open({48'000, 48'000}).status, AdmitStatus::kAdmitted);
  ASSERT_EQ(service.try_open({48'000, 48'000}).status, AdmitStatus::kAdmitted);
  const AdmitResult r = service.try_open({48'000, 48'000});
  EXPECT_EQ(r.status, AdmitStatus::kOverloaded);
  EXPECT_FALSE(r.id.valid());
  EXPECT_EQ(service.resilience_stats().admit_overloaded, 1u);
  EXPECT_EQ(service.session_count(), 2u);
}

TEST(Admission, WatermarkShedsLowestProgressSession) {
  ServiceOptions opt = small_service(2);
  opt.shed_high_watermark = 2;
  SrcService service(opt);
  const SessionId lagging = service.try_open({48'000, 48'000}).id;
  const SessionId leading = service.try_open({48'000, 48'000}).id;
  const auto stim = dsp::make_noise_stimulus(32, 9);
  // leading converts its inputs; lagging queues 32 and never runs.
  ASSERT_EQ(service.push(leading, stim.data(), stim.size()), stim.size());
  service.run_until_idle();
  ASSERT_EQ(service.push(lagging, stim.data(), stim.size()), stim.size());

  const AdmitResult r = service.try_open({44'100, 48'000});
  EXPECT_EQ(r.status, AdmitStatus::kAdmitted);
  const ResilienceStats res = service.resilience_stats();
  EXPECT_EQ(res.shed_sessions, 1u);
  EXPECT_EQ(res.shed_dropped_inputs, 32u);  // lagging's queue, counted
  EXPECT_EQ(service.stats(lagging), nullptr);   // victim is gone
  EXPECT_NE(service.stats(leading), nullptr);   // survivor untouched
  EXPECT_EQ(service.session_count(), 2u);
}

// --- chaos plan ----------------------------------------------------------

TEST(ChaosPlan, DecisionHashIsPureAndSeedSensitive) {
  const std::uint64_t a = ChaosPlan::mix(1, 0, 10, 3);
  EXPECT_EQ(a, ChaosPlan::mix(1, 0, 10, 3));       // pure
  EXPECT_NE(a, ChaosPlan::mix(2, 0, 10, 3));       // seed matters
  EXPECT_NE(a, ChaosPlan::mix(1, 1, 10, 3));       // class salt matters
  EXPECT_NE(a, ChaosPlan::mix(1, 0, 11, 3));       // coordinates matter
  EXPECT_NE(a, ChaosPlan::mix(1, 0, 10, 4));
}

TEST(ChaosPlan, RatesBoundFiring) {
  ChaosOptions never;
  never.stall_per_dispatch = 0;
  ChaosOptions always;
  always.stall_per_dispatch = 1u << 16;  // 65536/65536
  const ChaosPlan off(never);
  const ChaosPlan on(always);
  for (std::uint64_t step = 0; step < 100; ++step) {
    EXPECT_FALSE(off.stall_lane(step, 0));
    EXPECT_TRUE(on.stall_lane(step, 0));
  }
  // Two plans with identical options agree everywhere.
  const ChaosPlan x{ChaosOptions{}};
  const ChaosPlan y{ChaosOptions{}};
  for (std::uint64_t r = 0; r < 200; ++r) {
    EXPECT_EQ(x.disconnect(r, 3), y.disconnect(r, 3));
    EXPECT_EQ(x.oversized_push(r, 3), y.oversized_push(r, 3));
    EXPECT_EQ(x.fail_allocation(r), y.fail_allocation(r));
  }
}

TEST(ChaosPlan, ClassNamesAreStable) {
  EXPECT_STREQ(chaos_class_name(ChaosClass::kLaneStall), "lane_stall");
  EXPECT_STREQ(chaos_class_name(ChaosClass::kAllocFail), "alloc_fail");
}

// Runs a fixed chaos workload over @p sessions_n sessions of @p samples_n
// samples each and returns every session's (output hash, produced count),
// (0, 0) for a disconnected one, plus the fault census.  SrcService
// injects the plan's lane stalls and allocation failures itself; the
// driver injects the other three classes from the same plan, keyed on its
// own round counter: mid-stream disconnects, a null push followed by an
// oversized one, and ring storms that stop pulling for a while.  Every
// survivor must conserve its samples and the run must not livelock.
struct ChaosRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> outputs;
  ResilienceStats census;
};

ChaosOptions service_side_chaos() {
  ChaosOptions copt;
  copt.seed = 42;
  copt.stall_per_dispatch = 1u << 13;  // ~12%: plenty of stalls
  copt.alloc_fail_per_open = 1u << 13;
  copt.disconnect_per_round = 0;
  copt.oversized_per_round = 0;
  copt.storm_per_round = 0;
  return copt;
}

ChaosRun run_chaos_fixture(unsigned threads, const ChaosOptions& copt = service_side_chaos(),
                           std::size_t sessions_n = 8, std::size_t samples_n = 300) {
  SCOPED_TRACE("chaos seed " + std::to_string(copt.seed) + " threads=" +
               std::to_string(threads));
  const ChaosPlan plan(copt);
  ServiceOptions opt;
  opt.threads = threads;
  opt.max_sessions = sessions_n;
  opt.input_ring = 128;
  opt.output_ring = 512;
  opt.work_quantum = 32;
  SrcService service(opt);
  service.set_chaos(&plan);

  std::vector<SessionId> ids;
  std::vector<std::vector<StereoSample>> stimuli;
  for (std::size_t i = 0; i < sessions_n; ++i) {
    const auto& ratio = kRatioTable[i % std::size(kRatioTable)];
    AdmitResult r{};
    for (int attempt = 0; attempt < 8; ++attempt) {
      r = service.try_open({ratio[0], ratio[1]});
      if (r.status != AdmitStatus::kAllocFailed) break;
    }
    EXPECT_EQ(r.status, AdmitStatus::kAdmitted);
    ids.push_back(r.id);
    stimuli.push_back(dsp::make_noise_stimulus(samples_n, copt.seed * 1'000 + i));
  }

  constexpr std::size_t kChunk = 64;
  constexpr std::uint64_t kRoundCap = 100'000;  // livelock guard, far above need
  std::vector<std::size_t> fed(sessions_n, 0);
  std::vector<std::uint64_t> pulled(sessions_n, 0);
  std::vector<std::uint64_t> storm_until(sessions_n, 0);
  std::vector<bool> gone(sessions_n, false);
  std::vector<StereoSample> out(256);
  std::uint64_t round = 0;
  for (bool progress = true; progress && round < kRoundCap;) {
    ++round;
    progress = false;
    for (std::size_t i = 0; i < sessions_n; ++i) {
      const auto si = static_cast<std::uint32_t>(i);
      if (gone[i]) continue;
      if (plan.disconnect(round, si)) {
        service.close(ids[i]);
        service.note_chaos(ChaosClass::kDisconnect);
        gone[i] = true;
        progress = true;
        continue;
      }
      if (plan.ring_storm_start(round, si) && storm_until[i] <= round) {
        storm_until[i] = round + copt.storm_len_rounds;
        service.note_chaos(ChaosClass::kRingStorm);
      }
      std::size_t offer = std::min(kChunk, samples_n - fed[i]);
      if (offer > 0 && plan.oversized_push(round, si)) {
        (void)service.push(ids[i], nullptr, 3);
        offer = samples_n - fed[i];
        service.note_chaos(ChaosClass::kOversizedPush);
      }
      fed[i] += service.push(ids[i], stimuli[i].data() + fed[i], offer);
      progress |= fed[i] < samples_n;
    }
    progress |= service.step() > 0;
    for (std::size_t i = 0; i < sessions_n; ++i) {
      if (gone[i]) continue;
      if (storm_until[i] > round) {
        progress = true;
        continue;
      }
      std::size_t got;
      while ((got = service.pull(ids[i], out.data(), out.size())) > 0) {
        pulled[i] += got;
        progress = true;
      }
    }
  }
  EXPECT_LT(round, kRoundCap) << "livelock";

  ChaosRun run;
  for (std::size_t i = 0; i < sessions_n; ++i) {
    const SessionStats* stats = gone[i] ? nullptr : service.stats(ids[i]);
    EXPECT_TRUE(gone[i] || stats != nullptr) << "survivor " << i << " lost its slot";
    if (stats == nullptr) {
      run.outputs.emplace_back(0, 0);
      continue;
    }
    // Chaos may refuse samples (push_rejected) but never lose one.
    EXPECT_EQ(stats->accepted, samples_n) << "session " << i;
    EXPECT_EQ(stats->converted_in, samples_n) << "session " << i;
    EXPECT_EQ(stats->produced, stats->pulled) << "session " << i;
    EXPECT_EQ(pulled[i], stats->pulled) << "session " << i;
    run.outputs.emplace_back(stats->output_hash, stats->produced);
  }
  run.census = service.resilience_stats();
  return run;
}

/// The census fields that must not depend on the lane count; the first
/// kChaosClassCount are the chaos classes in ChaosClass order.
std::array<std::uint64_t, 9> census_key(const ResilienceStats& c) {
  return {c.chaos_stalls,     c.chaos_disconnects,    c.chaos_oversized_pushes,
          c.chaos_ring_storms, c.chaos_alloc_failures, c.evict_idle,
          c.evict_lifetime,   c.admit_overloaded,     c.admit_rate_unsupported};
}

TEST(ChaosDeterminism, FaultScheduleAndHashesAreThreadInvariant) {
  const ChaosRun base = run_chaos_fixture(1);
  EXPECT_GT(base.census.chaos_stalls, 0u);         // the plan actually fired
  EXPECT_GT(base.census.chaos_alloc_failures, 0u);
  for (unsigned threads : {2u, 4u}) {
    const ChaosRun other = run_chaos_fixture(threads);
    EXPECT_EQ(other.outputs, base.outputs) << "threads=" << threads;
    EXPECT_EQ(census_key(other.census), census_key(base.census)) << "threads=" << threads;
  }
}

// The chaos soak: 32 seeds of 48 sessions x 400 samples with all five
// classes armed, each seed at threads {1,2,4,8}.  A single seed may skip
// a class; over the soak every class must fire.
TEST(ChaosDeterminism, SoakOfAllFiveClassesIsLosslessAndThreadInvariant) {
  std::array<std::uint64_t, kChaosClassCount> fired{};
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    ChaosOptions copt;
    copt.seed = seed;
    copt.disconnect_per_round = 1u << 7;
    copt.storm_len_rounds = 6;
    const ChaosRun base = run_chaos_fixture(1, copt, 48, 400);
    for (unsigned threads : {2u, 4u, 8u}) {
      const ChaosRun other = run_chaos_fixture(threads, copt, 48, 400);
      EXPECT_EQ(other.outputs, base.outputs) << "seed " << seed << " threads=" << threads;
      EXPECT_EQ(census_key(other.census), census_key(base.census))
          << "seed " << seed << " threads=" << threads;
    }
    const auto key = census_key(base.census);
    for (std::size_t c = 0; c < fired.size(); ++c) fired[c] += key[c];
  }
  for (std::size_t c = 0; c < fired.size(); ++c) {
    EXPECT_GT(fired[c], 0u) << chaos_class_name(static_cast<ChaosClass>(c))
                            << " never fired";
  }
}

// --- snapshot / restore --------------------------------------------------

TEST(Snapshot, RoundTripContinuesBitIdentically) {
  constexpr std::size_t kSessions = std::size(kRatioTable);  // all 8 ratio pairs
  ServiceOptions opt = small_service(kSessions);
  opt.input_ring = 128;
  opt.output_ring = 128;
  opt.work_quantum = 32;

  std::vector<std::vector<StereoSample>> stim;
  for (std::size_t i = 0; i < kSessions; ++i)
    stim.push_back(dsp::make_noise_stimulus(200, 21 + i));

  // Run halfway: open every ratio pair, push half of each stimulus and
  // step twice, leaving the rings non-empty for the snapshot.
  const auto run_to_snapshot = [&](SrcService& s) {
    std::vector<SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i) {
      ids.push_back(s.try_open({kRatioTable[i][0], kRatioTable[i][1]}).id);
      EXPECT_EQ(s.push(ids[i], stim[i].data(), 100), 100u);
    }
    s.step();
    s.step();
    return ids;
  };
  SrcService golden(opt);
  const std::vector<SessionId> ids = run_to_snapshot(golden);
  const std::string image = snapshot_service(golden);
  ASSERT_GT(image.size(), 32u);
  EXPECT_EQ(golden.resilience_stats().snapshot_saves, 1u);

  // The image is a pure function of the workload: the same run at four
  // lanes snapshots to the same bytes.
  {
    ServiceOptions opt4 = opt;
    opt4.threads = 4;
    SrcService other(opt4);
    (void)run_to_snapshot(other);
    EXPECT_EQ(snapshot_service(other), image) << "image differs at threads=4";
  }

  const auto finish = [&](SrcService& s, std::vector<std::vector<StereoSample>>& outs) {
    outs.assign(kSessions, {});
    std::vector<StereoSample> buf(256);
    std::vector<std::size_t> fed(kSessions, 100);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (fed[i] < 200) {
          fed[i] += s.push(ids[i], stim[i].data() + fed[i], 200 - fed[i]);
          progress = true;
        }
      }
      if (s.step() > 0) progress = true;
      for (std::size_t i = 0; i < kSessions; ++i) {
        std::size_t got;
        while ((got = s.pull(ids[i], buf.data(), buf.size())) > 0) {
          outs[i].insert(outs[i].end(), buf.begin(),
                         buf.begin() + static_cast<std::ptrdiff_t>(got));
          progress = true;
        }
      }
    }
  };
  std::vector<std::vector<StereoSample>> gold;
  finish(golden, gold);

  // Restore at a different lane count and drive the identical schedule.
  ServiceOptions opt2 = opt;
  opt2.threads = 2;
  SrcService restored(opt2);
  std::string err;
  ASSERT_TRUE(restore_service(image, restored, &err)) << err;
  EXPECT_EQ(restored.resilience_stats().snapshot_restores, 1u);
  EXPECT_EQ(restored.phase(ids[0]), SessionPhase::kOpen);
  std::vector<std::vector<StereoSample>> cont;
  finish(restored, cont);

  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_EQ(cont[i].size(), gold[i].size()) << "session " << i;
    EXPECT_EQ(std::memcmp(cont[i].data(), gold[i].data(),
                          gold[i].size() * sizeof(StereoSample)), 0)
        << "session " << i;
    EXPECT_EQ(restored.stats(ids[i])->output_hash, golden.stats(ids[i])->output_hash);
    EXPECT_EQ(restored.stats(ids[i])->accepted, golden.stats(ids[i])->accepted);
    EXPECT_EQ(restored.stats(ids[i])->converted_in, golden.stats(ids[i])->converted_in);
  }
}

TEST(Snapshot, CorruptImagesAreRejectedWithDiagnostics) {
  SrcService source(small_service());
  const SessionId id = source.try_open({48'000, 48'000}).id;
  const auto stim = dsp::make_noise_stimulus(50, 1);
  (void)source.push(id, stim.data(), stim.size());
  source.step();
  const std::string image = snapshot_service(source);

  const auto expect_rejected = [&](std::string img, const char* what) {
    SrcService victim(small_service());
    std::string err;
    EXPECT_FALSE(restore_service(img, victim, &err)) << what;
    EXPECT_FALSE(err.empty()) << what;
    // The failed restore left the service fresh and usable.
    EXPECT_TRUE(victim.try_open({48'000, 48'000}).id.valid()) << what;
  };
  expect_rejected(image.substr(0, 7), "shorter than the magic");
  expect_rejected(image.substr(0, 20), "header cut short");
  expect_rejected(image.substr(0, image.size() / 2), "payload truncated");
  std::string flipped = image;
  flipped[image.size() / 2] ^= 0x10;
  expect_rejected(flipped, "bit flip in the payload");
  std::string magic = image;
  magic[0] = 'Z';
  expect_rejected(magic, "bad magic");
  expect_rejected(image + "x", "trailing bytes");
  expect_rejected(std::string(), "empty image");
}

TEST(Snapshot, RestoreRequiresFreshService) {
  SrcService source(small_service());
  (void)source.try_open({48'000, 48'000}).id;
  const std::string image = snapshot_service(source);

  SrcService used(small_service());
  (void)used.try_open({44'100, 48'000}).id;
  std::string err;
  EXPECT_FALSE(restore_service(image, used, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Snapshot, VersionFieldIsChecked) {
  SrcService source(small_service());
  const std::string image = snapshot_service(source);
  std::string wrong = image;
  wrong[8] = static_cast<char>(0x7f);  // version u32 little-endian LSB
  SrcService victim(small_service());
  std::string err;
  EXPECT_FALSE(restore_service(wrong, victim, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

// --- observability -------------------------------------------------------

TEST(ResilienceObs, CensusLandsInLedger) {
  ServiceOptions opt = small_service(2);
  opt.idle_timeout_steps = 1;
  SrcService service(opt);
  const SessionId id = service.try_open({48'000, 48'000}).id;
  (void)id;
  for (int i = 0; i < 4; ++i) service.step();     // idle-evict it
  (void)service.try_open({0, 48'000});            // one rate rejection
  service.note_chaos(ChaosClass::kDisconnect);    // one driver-side fault
  const std::string image = snapshot_service(service);

  obs::Session session;
  service.record_into(session, "resilience_test");
  std::size_t found = 0;
  for (const auto& e : session.ledger.entries()) {
    if (e.phase != "serve.resilience") continue;
    ++found;
    EXPECT_EQ(e.design, "resilience_test");
    EXPECT_EQ(e.counter("evict_idle"), 1u);
    EXPECT_EQ(e.counter("evict_drained"), 1u);
    EXPECT_EQ(e.counter("admit_rate_unsupported"), 1u);
    EXPECT_EQ(e.counter("chaos_disconnects"), 1u);
    EXPECT_EQ(e.counter("snapshot_saves"), 1u);
    EXPECT_EQ(e.counter("snapshot_bytes_last"), image.size());
  }
  EXPECT_EQ(found, 1u) << "expected one serve.resilience ledger entry";
}

}  // namespace
}  // namespace scflow::serve
