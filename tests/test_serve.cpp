// Tests for the streaming SRC service: session lifecycle and stale-id
// safety, watermark backpressure (conservation laws, no silent drops),
// round-robin fairness with a bounded starvation streak across >1000
// sessions, thread-count bit-identity of every session's output stream
// (up to the 1000-session, eight-ratio soak at threads {1,2,4,8}), the
// work-quantum bound, concurrent client push/pull against a stepping
// service (the TSan target), and deterministic obs/ledger recording.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <thread>
#include <tuple>
#include <vector>

#include "dsp/stimulus.hpp"
#include "obs/session.hpp"
#include "serve/src_service.hpp"

namespace scflow::serve {
namespace {

using dsp::StereoSample;

constexpr std::uint32_t kRatioTable[][2] = {
    {44'100, 48'000}, {48'000, 44'100}, {48'000, 48'000}, {32'000, 48'000},
    {8'000, 48'000},  {48'000, 8'000},  {22'050, 48'000}, {44'100, 8'000},
};

// Drives one session to completion: pushes the whole stimulus through
// the service (stepping whenever the ring fills), draining outputs into
// @p sink, then converts the tail.
void pump_session(SrcService& service, SessionId id,
                  const std::vector<StereoSample>& stimulus,
                  std::vector<StereoSample>* sink = nullptr) {
  std::vector<StereoSample> out(256);
  std::size_t fed = 0;
  while (fed < stimulus.size()) {
    fed += service.push(id, stimulus.data() + fed, stimulus.size() - fed);
    service.step();
    std::size_t got;
    while ((got = service.pull(id, out.data(), out.size())) > 0) {
      if (sink != nullptr) sink->insert(sink->end(), out.begin(), out.begin() + got);
    }
  }
  // Tail drain: keep alternating pull and step until neither makes
  // progress (a full output ring gates the scheduler, so pull first).
  bool progress = true;
  while (progress) {
    progress = false;
    std::size_t got;
    while ((got = service.pull(id, out.data(), out.size())) > 0) {
      progress = true;
      if (sink != nullptr) sink->insert(sink->end(), out.begin(), out.begin() + got);
    }
    if (service.step() > 0) progress = true;
  }
}

TEST(ServeLifecycle, OpenPushPullClose) {
  SrcService service;
  const SessionId id = service.try_open({44'100, 48'000}).id;
  ASSERT_TRUE(id.valid());
  EXPECT_EQ(service.session_count(), 1u);

  const auto stimulus = dsp::make_noise_stimulus(2'000, 1);
  std::vector<StereoSample> sink;
  pump_session(service, id, stimulus, &sink);

  const SessionStats* stats = service.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->accepted, stimulus.size());
  EXPECT_EQ(stats->converted_in, stimulus.size());
  EXPECT_EQ(stats->produced, stats->pulled);  // fully drained
  EXPECT_EQ(sink.size(), stats->pulled);
  // ~48/44.1 outputs per input.
  EXPECT_NEAR(static_cast<double>(sink.size()),
              2'000.0 * 48'000.0 / 44'100.0, 32.0);

  EXPECT_TRUE(service.close(id));
  EXPECT_EQ(service.session_count(), 0u);
  EXPECT_FALSE(service.close(id)) << "double close must fail";
  EXPECT_EQ(service.push(id, stimulus.data(), 1), 0u) << "push after close";
}

TEST(ServeLifecycle, ReopenBumpsGenerationAndInvalidatesStaleIds) {
  ServiceOptions opt;
  opt.max_sessions = 1;
  SrcService service(opt);
  const SessionId first = service.try_open({48'000, 48'000}).id;
  ASSERT_TRUE(first.valid());
  EXPECT_FALSE(service.try_open({48'000, 48'000}).id.valid()) << "capacity is 1";

  ASSERT_TRUE(service.close(first));
  service.step();  // reclaim happens at the step boundary
  const SessionId second = service.try_open({48'000, 44'100}).id;
  ASSERT_TRUE(second.valid());
  EXPECT_EQ(second.slot, first.slot) << "slot is reused";
  EXPECT_NE(second.generation, first.generation);

  // The stale id must not alias the new tenant.
  EXPECT_EQ(service.stats(first), nullptr);
  StereoSample s{100, -100};
  EXPECT_EQ(service.push(first, &s, 1), 0u);
  EXPECT_NE(service.stats(second), nullptr);
}

TEST(ServeLifecycle, OpenRejectsUnsupportedRates) {
  SrcService service;
  for (const SessionConfig bad : {SessionConfig{2'000, 48'000}, SessionConfig{48'000, 1'000'000}}) {
    const AdmitResult r = service.try_open(bad);
    EXPECT_EQ(r.status, AdmitStatus::kRateUnsupported) << bad.fs_in_hz << "->" << bad.fs_out_hz;
    EXPECT_FALSE(r.id.valid());
  }
  EXPECT_EQ(service.session_count(), 0u) << "failed opens must not leak slots";
  EXPECT_TRUE(service.try_open({48'000, 48'000}).id.valid());
}

TEST(ServeBackpressure, ConservationUnderBurstyArrivalsWithSlowConsumer) {
  ServiceOptions opt;
  opt.input_ring = 64;
  opt.output_ring = 64;
  opt.work_quantum = 32;
  SrcService service(opt);
  const SessionId id = service.try_open({44'100, 48'000}).id;
  ASSERT_TRUE(id.valid());

  // Seeded bursty arrivals, consumer pulling only every 4th burst.
  const auto stimulus = dsp::make_noise_stimulus(4'096, 99);
  std::vector<StereoSample> out(48);
  std::uint64_t offered = 0;
  std::uint64_t pulled = 0;
  std::size_t cursor = 0;
  std::uint64_t burst_no = 0;
  while (cursor < stimulus.size()) {
    const std::size_t burst = std::min<std::size_t>(
        13 + (burst_no * 7) % 50, stimulus.size() - cursor);
    const std::size_t accepted = service.push(id, stimulus.data() + cursor, burst);
    offered += burst;
    cursor += accepted;  // unaccepted samples are re-offered next round
    service.step();
    if (++burst_no % 4 == 0) {
      pulled += service.pull(id, out.data(), out.size());
    }
  }
  const SessionStats* stats = service.stats(id);
  ASSERT_NE(stats, nullptr);
  // Backpressure actually engaged (the rings are tiny) ...
  EXPECT_GT(stats->push_rejected, 0u);
  // ... and was reported, not silently dropped: offered splits exactly
  // into accepted + rejected, accepted into converted + still-queued,
  // produced into pulled + still-buffered.
  EXPECT_EQ(stats->accepted + stats->push_rejected, offered);
  EXPECT_EQ(stats->accepted, stimulus.size());
  EXPECT_EQ(stats->converted_in + (opt.input_ring - service.in_free(id)),
            stats->accepted);
  EXPECT_EQ(stats->pulled + service.out_available(id), stats->produced);
  EXPECT_EQ(stats->pulled, pulled);

  // Drain the tail: every accepted sample must come out converted.
  std::vector<StereoSample> sink;
  pump_session(service, id, {}, &sink);
  EXPECT_EQ(service.stats(id)->converted_in, stimulus.size());
  EXPECT_EQ(service.stats(id)->pulled, service.stats(id)->produced);
}

TEST(ServeFairness, StarvationStreakBoundedAcrossThousandSessions) {
  constexpr std::size_t kSessions = 1'200;
  constexpr std::size_t kCap = 64;
  ServiceOptions opt;
  opt.threads = 4;
  opt.max_sessions = kSessions;
  opt.max_sessions_per_step = kCap;
  opt.input_ring = 256;
  opt.output_ring = 512;
  opt.work_quantum = 64;
  SrcService service(opt);

  std::vector<SessionId> ids;
  ids.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& ratio = kRatioTable[i % 4];  // cheap direct ratios
    const SessionId id = service.try_open({ratio[0], ratio[1]}).id;
    ASSERT_TRUE(id.valid());
    ids.push_back(id);
  }
  const auto stimulus = dsp::make_noise_stimulus(192, 5);
  for (const SessionId id : ids) {
    ASSERT_EQ(service.push(id, stimulus.data(), stimulus.size()), stimulus.size());
  }

  // All sessions are ready and only kCap run per step: starvation is
  // expected — but bounded by the rotation: ceil(N / cap) steps.
  std::vector<StereoSample> out(256);
  for (int round = 0; round < 256; ++round) {
    if (service.step() == 0) break;
    for (const SessionId id : ids) {
      while (service.pull(id, out.data(), out.size()) > 0) {
      }
    }
  }
  EXPECT_GT(service.starve_streak_max(), 0u) << "the counter must engage";
  const std::uint32_t bound =
      static_cast<std::uint32_t>((kSessions + kCap - 1) / kCap) + 1;
  EXPECT_LE(service.starve_streak_max(), bound);
  for (const SessionId id : ids) {
    const SessionStats* stats = service.stats(id);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->converted_in, stimulus.size());
    EXPECT_LE(stats->starve_streak_max, bound);
  }
}

// Runs a deterministic multi-ratio workload at the given lane count (at
// most @p step_cap sessions dispatched per step, 0 = all ready ones) and
// returns every session's (ratio, output hash, produced count).  Checks
// the zero-loss contract for every session and, with a step cap, the
// round-robin starvation bound ceil(sessions / cap) + 1.
std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t>>
run_identity_workload(unsigned threads, std::size_t sessions_n, std::size_t samples_n,
                      std::size_t step_cap, std::string* ledger_image = nullptr) {
  ServiceOptions opt;
  opt.threads = threads;
  opt.max_sessions = sessions_n;
  opt.input_ring = 256;
  opt.output_ring = 1'024;
  opt.work_quantum = 128;
  opt.max_sessions_per_step = step_cap;
  SrcService service(opt);

  std::vector<SessionId> ids;
  std::vector<std::vector<StereoSample>> stimuli;
  for (std::size_t i = 0; i < sessions_n; ++i) {
    const auto& ratio = kRatioTable[i % std::size(kRatioTable)];
    ids.push_back(service.try_open({ratio[0], ratio[1]}).id);
    EXPECT_TRUE(ids.back().valid());
    stimuli.push_back(dsp::make_noise_stimulus(samples_n, 0xabc000 + i));
  }

  // Identical push/step/pull interleaving for every thread count.
  std::vector<std::size_t> fed(sessions_n, 0);
  std::vector<std::uint64_t> pulled(sessions_n, 0);
  std::vector<StereoSample> out(512);
  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (std::size_t i = 0; i < sessions_n; ++i) {
      if (fed[i] < samples_n) {
        fed[i] += service.push(ids[i], stimuli[i].data() + fed[i], samples_n - fed[i]);
        if (fed[i] < samples_n) work_left = true;
      }
    }
    if (service.step() > 0) work_left = true;
    for (std::size_t i = 0; i < sessions_n; ++i) {
      std::size_t got;
      while ((got = service.pull(ids[i], out.data(), out.size())) > 0) {
        pulled[i] += got;
        work_left = true;
      }
    }
  }
  if (step_cap > 0) {
    EXPECT_LE(service.starve_streak_max(), (sessions_n + step_cap - 1) / step_cap + 1)
        << "threads=" << threads;
  }

  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t>> result;
  for (std::size_t i = 0; i < sessions_n; ++i) {
    const SessionStats* stats = service.stats(ids[i]);
    EXPECT_NE(stats, nullptr);
    if (stats == nullptr) continue;
    EXPECT_EQ(stats->accepted, samples_n) << "session " << i;
    EXPECT_EQ(stats->converted_in, samples_n) << "session " << i;
    EXPECT_EQ(stats->produced, stats->pulled) << "session " << i;
    EXPECT_EQ(pulled[i], stats->pulled) << "session " << i;
    const auto& ratio = kRatioTable[i % std::size(kRatioTable)];
    result.emplace_back(ratio[0], ratio[1], stats->output_hash, stats->produced);
  }
  if (ledger_image != nullptr) {
    obs::Session session;
    service.record_into(session, "identity");
    *ledger_image = session.ledger.to_jsonl(/*strip_timing=*/true);
  }
  return result;
}

TEST(ServeDeterminism, OutputStreamsBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kSessions = 64;  // all 8 ratios, 8 sessions each
  constexpr std::size_t kSamples = 600;
  std::string baseline_ledger;
  const auto baseline =
      run_identity_workload(1, kSessions, kSamples, 0, &baseline_ledger);
  for (unsigned threads : {2u, 4u, 8u}) {
    std::string ledger;
    const auto got = run_identity_workload(threads, kSessions, kSamples, 0, &ledger);
    ASSERT_EQ(got.size(), baseline.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], baseline[i])
          << "session " << i << " diverged at threads=" << threads;
    }
    // The deterministic ledger projection (timing stripped) must also be
    // bit-identical — scheduling may not leak into recorded semantics.
    EXPECT_EQ(ledger, baseline_ledger) << "threads=" << threads;
  }
}

// The service soak: 1000 sessions over all eight ratios, 1200 samples
// each, with a step cap so the round-robin rotation decides who runs.
TEST(ServeDeterminism, ThousandSessionSoakIsLosslessFairAndThreadInvariant) {
  constexpr std::size_t kSessions = 1'000;
  constexpr std::size_t kSamples = 1'200;
  constexpr std::size_t kStepCap = 128;
  const auto baseline = run_identity_workload(1, kSessions, kSamples, kStepCap);
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run_identity_workload(threads, kSessions, kSamples, kStepCap), baseline)
        << "threads=" << threads;
  }
}

TEST(ServeScheduler, WorkQuantumBoundsPerDispatchWork) {
  ServiceOptions opt;
  opt.work_quantum = 32;
  opt.input_ring = 2'048;
  opt.output_ring = 4'096;
  SrcService service(opt);
  const SessionId id = service.try_open({48'000, 48'000}).id;
  const auto stimulus = dsp::make_noise_stimulus(1'000, 3);
  ASSERT_EQ(service.push(id, stimulus.data(), stimulus.size()), stimulus.size());

  service.step();
  const SessionStats* stats = service.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->dispatches, 1u);
  EXPECT_EQ(stats->converted_in, opt.work_quantum)
      << "one dispatch converts exactly one quantum when work abounds";
  service.step();
  EXPECT_EQ(stats->converted_in, 2 * opt.work_quantum);
}

TEST(ServeConcurrency, ClientThreadsPushPullWhileServiceSteps) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kSamples = 20'000;
  ServiceOptions opt;
  opt.threads = 4;
  opt.input_ring = 512;
  opt.output_ring = 512;
  SrcService service(opt);

  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < kClients; ++i) {
    ids.push_back(service.try_open({kRatioTable[i][0], kRatioTable[i][1]}).id);
    ASSERT_TRUE(ids.back().valid());
  }

  std::vector<std::uint64_t> client_pulled(kClients, 0);
  std::atomic<std::size_t> active{kClients};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&service, &client_pulled, &active, id = ids[i], i] {
      const auto stimulus = dsp::make_noise_stimulus(kSamples, 0xc11e47 + i);
      std::vector<StereoSample> out(256);
      std::size_t fed = 0;
      while (fed < kSamples) {
        fed += service.push(id, stimulus.data() + fed, kSamples - fed);
        std::size_t got;
        while ((got = service.pull(id, out.data(), out.size())) > 0) {
          client_pulled[i] += got;
        }
      }
      active.fetch_sub(1, std::memory_order_release);
    });
  }
  // The control thread keeps stepping while the clients hammer the rings.
  while (active.load(std::memory_order_acquire) > 0) {
    service.step();
  }
  for (auto& t : clients) t.join();
  // After the join the control thread takes over each session's client
  // side (SPSC hand-off is ordered by the join) and drains the tail —
  // alternating pull and step, since a full output ring gates scheduling.
  std::vector<StereoSample> out(256);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < kClients; ++i) {
      std::size_t got;
      while ((got = service.pull(ids[i], out.data(), out.size())) > 0) {
        client_pulled[i] += got;
        progress = true;
      }
    }
    if (service.step() > 0) progress = true;
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    const SessionStats* stats = service.stats(ids[i]);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->accepted, kSamples);
    EXPECT_EQ(stats->converted_in, kSamples);
    EXPECT_EQ(stats->produced, stats->pulled);
    EXPECT_EQ(stats->pulled, client_pulled[i]);
  }
}

TEST(ServeObs, RecordsRatioEntriesAndRunSummary) {
  ServiceOptions opt;
  SrcService service(opt);
  const SessionId a = service.try_open({44'100, 48'000}).id;
  const SessionId b = service.try_open({44'100, 48'000}).id;
  const SessionId c = service.try_open({8'000, 48'000}).id;
  const auto stimulus = dsp::make_noise_stimulus(500, 11);
  for (const SessionId id : {a, b, c}) pump_session(service, id, stimulus);
  ASSERT_TRUE(service.close(c));
  service.step();  // fold the closed session into the ratio aggregates

  obs::Session session;
  service.record_into(session, "unit");
  // Two ratios + the resilience census + the run summary.
  ASSERT_EQ(session.ledger.size(), 4u);

  const auto& entries = session.ledger.entries();
  const obs::LedgerEntry* ratio_a = nullptr;
  const obs::LedgerEntry* ratio_c = nullptr;
  const obs::LedgerEntry* run = nullptr;
  for (const auto& e : entries) {
    if (e.phase == "serve.ratio" && e.design == "44100->48000") ratio_a = &e;
    if (e.phase == "serve.ratio" && e.design == "8000->48000") ratio_c = &e;
    if (e.phase == "serve.run") run = &e;
  }
  ASSERT_NE(ratio_a, nullptr);
  ASSERT_NE(ratio_c, nullptr);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(ratio_a->counter("sessions"), 2u);
  EXPECT_EQ(ratio_a->counter("samples_in"), 1'000u);
  EXPECT_EQ(ratio_c->counter("sessions"), 1u);
  EXPECT_EQ(ratio_c->counter("converted_in"), 500u);
  EXPECT_EQ(run->design, "unit");
  EXPECT_EQ(run->counter("sessions_opened"), 3u);
  EXPECT_EQ(run->counter("sessions_closed"), 1u);
  EXPECT_EQ(run->counter("ratios"), 2u);
  EXPECT_EQ(run->counter("samples_in"), 1'500u);
  EXPECT_NE(run->input_hash, 0u);
  EXPECT_GT(run->counter("dispatches"), 0u);
  ASSERT_EQ(run->histograms.size(), 1u);
  EXPECT_EQ(run->histograms[0].first, "job_ns");
  EXPECT_EQ(run->histograms[0].second.count(), run->counter("dispatches"));
}

}  // namespace
}  // namespace scflow::serve
