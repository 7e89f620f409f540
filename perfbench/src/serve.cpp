// The serve workload: a 4096-session closed loop over serve::SrcService,
// driven from one thread.  Sessions spread over bench_serve's eight rate
// pairs (four paper pairs that convert directly, four staged).  Each round
// a seeded subset of sessions pushes seeded bursts from a pre-generated
// input pool while a few always-busy sessions keep their input rings full;
// the service steps once; the driver drains every output ring; and a
// seeded few sessions, once drained, close and reopen.  The loop saturates
// the service, so burst latency is mostly queueing in the 256-sample input
// rings.  Microsecond jobs on BatchRunner lanes, the O(slots) ready-scan,
// the per-step join, the SPSC rings and the RationalSrc stages do the work.
//
// Rounds are grouped into epochs.  Throughput and the latency percentiles
// are taken per measured epoch and reported as their median over the run,
// so one epoch that a descheduled lane stretched does not move them.
#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/rational_src.hpp"
#include "dsp/stimulus.hpp"
#include "harness.hpp"
#include "obs/histogram.hpp"
#include "obs/ledger.hpp"
#include "serve/src_service.hpp"

namespace perfbench {
namespace {

using namespace scflow;
using dsp::StereoSample;

constexpr std::uint32_t kRatios[][2] = {
    {44'100, 48'000}, {48'000, 44'100}, {48'000, 48'000}, {32'000, 48'000},
    {8'000, 48'000},  {48'000, 8'000},  {22'050, 48'000}, {44'100, 8'000},
};
constexpr std::size_t kRatioCount = std::size(kRatios);
constexpr std::size_t kSessions = 4096;
constexpr std::size_t kPool = std::size_t{1} << 16;
constexpr std::size_t kInputRing = 256;
constexpr std::size_t kOutputRing = 1024;
constexpr std::size_t kBusyOneIn = 64;             // always-busy share of sessions
constexpr std::size_t kBurstsPerRound = kSessions / 8;
constexpr std::size_t kMinBurst = 16;
constexpr std::size_t kMaxBurst = 256;
constexpr std::size_t kRetireEvery = 8;            // rounds between retire picks
constexpr std::size_t kRoundsPerEpoch = 250;
constexpr std::size_t kMinEpochs = 3;              // one warm-up, two measured

struct Pending {
  std::uint64_t target;  // accepted count the burst ends at
  std::uint64_t t_push;
};

struct Session {
  serve::SessionId id;
  std::uint32_t ratio = 0;
  std::uint32_t base = 0;  // stream offset into the input pool
  std::uint64_t fed = 0;   // samples the service accepted
  std::size_t in_capacity = 0;
  bool busy = false;
  bool retiring = false;  // no more bursts; closes and reopens once drained
  std::vector<Pending> pending;
  std::size_t head = 0;
};

/// One input stream to verify: session k's input is pool[(base + j) % kPool].
struct Stream {
  std::uint32_t ratio = 0;
  std::uint32_t base = 0;
  std::uint64_t samples = 0;
  std::uint64_t produced = 0;
  std::uint64_t hash = 0;
};

struct Setup {
  std::vector<StereoSample> pool;
  std::unique_ptr<serve::SrcService> service;
  std::vector<Session> sessions;
  std::vector<std::size_t> busy;
  std::mt19937_64 rng;
};

void open_session(serve::SrcService& svc, Session& x, Report& rep) {
  serve::SessionConfig config;
  config.fs_in_hz = kRatios[x.ratio][0];
  config.fs_out_hz = kRatios[x.ratio][1];
  const serve::AdmitResult r = svc.try_open(config);
  rep.check(r.status == serve::AdmitStatus::kAdmitted, "session open is admitted");
  x.id = r.id;
  x.fed = 0;
  x.in_capacity = svc.in_free(r.id);
  x.retiring = false;
  x.pending.clear();
  x.head = 0;
}

Setup make_setup(std::uint64_t seed, unsigned lanes, Report& rep) {
  Setup s;
  s.rng.seed(seed);
  s.pool = dsp::make_noise_stimulus(kPool, seed);
  serve::ServiceOptions opt;
  opt.threads = lanes;
  opt.max_sessions = kSessions;
  opt.input_ring = kInputRing;
  opt.output_ring = kOutputRing;
  opt.work_quantum = 128;
  opt.max_sessions_per_step = 128;
  s.service = std::make_unique<serve::SrcService>(opt);
  s.sessions.resize(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    Session& x = s.sessions[i];
    x.ratio = static_cast<std::uint32_t>(i % kRatioCount);
    x.base = static_cast<std::uint32_t>(s.rng() % kPool);
    x.busy = s.rng() % kBusyOneIn == 0;
    if (x.busy) s.busy.push_back(i);
    open_session(*s.service, x, rep);
  }
  return s;
}

std::size_t push_stream(serve::SrcService& svc, Session& x, const std::vector<StereoSample>& pool,
                        std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const std::size_t pos = (x.base + x.fed) % pool.size();
    const std::size_t chunk = std::min(n - done, pool.size() - pos);
    const std::size_t got = svc.push(x.id, pool.data() + pos, chunk);
    x.fed += got;
    done += got;
    if (got < chunk) break;
  }
  return done;
}

struct Loop {
  Dist latency;        // measured epochs, ns
  Dist warm_latency;   // warm-up epoch
  Dist epoch_latency;  // the current measured epoch
  Dist step_ns;
  std::uint64_t step_total_ns = 0;
  std::uint64_t ring_ns = 0, ring_samples = 0;  // traced epochs
  std::uint64_t reopen_ns = 0, reopens = 0;
  std::uint64_t bursts = 0;
  std::uint64_t closed_converted = 0;
  std::vector<Stream> closed;
  std::size_t rounds = 0;
};

void run_round(Setup& s, Loop& L, bool measured, bool traced, Tracer& tracer,
               std::vector<StereoSample>& buf, Report& rep) {
  serve::SrcService& svc = *s.service;
  const Tracer::Scope round_span(tracer, "serve.round");
  {
    const Tracer::Scope span(tracer, "serve.SrcService.push");
    const auto push = [&](Session& x, std::size_t n) {
      const std::uint64_t t0 = traced ? now_ns() : 0;
      const std::size_t got = push_stream(svc, x, s.pool, n);
      const std::uint64_t t1 = now_ns();
      if (traced) {
        L.ring_ns += t1 - t0;
        L.ring_samples += got;
      }
      if (got > 0) {
        x.pending.push_back({x.fed, t1});
        ++L.bursts;
      }
    };
    for (std::size_t b = 0; b < kBurstsPerRound; ++b) {
      Session& x = s.sessions[s.rng() % s.sessions.size()];
      const std::size_t len = kMinBurst + s.rng() % (kMaxBurst - kMinBurst + 1);
      if (!x.busy && !x.retiring) push(x, len);
    }
    for (const std::size_t i : s.busy) push(s.sessions[i], kInputRing);
    if (L.rounds % kRetireEvery == 0) {
      Session& x = s.sessions[s.rng() % s.sessions.size()];
      if (!x.busy) x.retiring = true;
    }
  }
  std::uint64_t step_end = 0;
  {
    const Tracer::Scope span(tracer, "serve.SrcService.step");
    const std::uint64_t t0 = now_ns();
    svc.step();
    step_end = now_ns();
    L.step_ns.record(step_end - t0);
    L.step_total_ns += step_end - t0;
  }
  std::vector<std::size_t> drained;
  {
    const Tracer::Scope span(tracer, "serve.SrcService.pull");
    for (std::size_t i = 0; i < s.sessions.size(); ++i) {
      Session& x = s.sessions[i];
      const std::uint64_t t0 = traced ? now_ns() : 0;
      const std::size_t got = svc.pull(x.id, buf.data(), buf.size());
      if (traced) {
        L.ring_ns += now_ns() - t0;
        L.ring_samples += got;
      }
      if (x.head < x.pending.size() || x.retiring) {
        const std::uint64_t converted = svc.stats(x.id)->converted_in;
        while (x.head < x.pending.size() && x.pending[x.head].target <= converted) {
          const std::uint64_t waited = step_end - x.pending[x.head].t_push;
          if (measured) {
            L.latency.record(waited);
            L.epoch_latency.record(waited);
          } else {
            L.warm_latency.record(waited);
          }
          ++x.head;
        }
        if (x.head == x.pending.size()) {
          x.pending.clear();
          x.head = 0;
          if (x.retiring && converted == x.fed && svc.out_available(x.id) == 0)
            drained.push_back(i);
        }
      }
    }
  }
  if (!drained.empty()) {
    const Tracer::Scope span(tracer, "serve.SrcService.close_open");
    for (const std::size_t i : drained) {
      Session& x = s.sessions[i];
      const serve::SessionStats* st = svc.stats(x.id);
      rep.check(st->accepted == x.fed && st->produced == st->pulled,
                "a retired session's accounting balances");
      L.closed.push_back({x.ratio, x.base, x.fed, st->produced, st->output_hash});
      L.closed_converted += st->converted_in;
      const std::uint64_t t0 = now_ns();
      svc.close(x.id);
      x.base = static_cast<std::uint32_t>(s.rng() % kPool);
      open_session(svc, x, rep);
      L.reopen_ns += now_ns() - t0;
      ++L.reopens;
    }
  }
  ++L.rounds;
}

std::uint64_t converted_total(const Setup& s, const Loop& L) {
  std::uint64_t sum = L.closed_converted;
  for (const Session& x : s.sessions) sum += s.service->stats(x.id)->converted_in;
  return sum;
}

std::uint64_t fold_hashes(const Setup& s, const Loop& L) {
  obs::Fnv1a h;
  for (const Session& x : s.sessions) h.update_u64(s.service->stats(x.id)->output_hash);
  for (const Stream& c : L.closed) h.update_u64(c.hash);
  return h.digest();
}

struct ReplayCost {
  std::uint64_t direct_ns = 0, direct_samples = 0, staged_ns = 0, staged_samples = 0;
};

// Every stream replayed through a standalone dsp::RationalSrc must hash as
// the service's per-session output hash did.
ReplayCost verify_streams(const std::vector<Stream>& streams,
                          const std::vector<StereoSample>& pool, unsigned lanes, Report& rep) {
  std::array<bool, kRatioCount> direct{};
  for (std::size_t r = 0; r < kRatioCount; ++r)
    direct[r] = dsp::plan_ratio(kRatios[r][0], kRatios[r][1]).direct();
  std::vector<char> ok(streams.size(), 0);
  std::vector<ReplayCost> cost(lanes);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < lanes; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < streams.size(); i += lanes) {
          const Stream& st = streams[i];
          const std::uint64_t t0 = now_ns();
          dsp::RationalSrc src(kRatios[st.ratio][0], kRatios[st.ratio][1],
                               dsp::RationalSrc::TimeBase::kContinuousPs);
          std::vector<StereoSample> out(src.plan().max_outputs_per_input());
          obs::Fnv1a h;
          std::uint64_t produced = 0;
          for (std::uint64_t j = 0; j < st.samples; ++j) {
            const std::size_t n = src.push(pool[(st.base + j) % pool.size()], out.data(), out.size());
            for (std::size_t k = 0; k < n; ++k) h.update_u64(sample_word(out[k]));
            produced += n;
          }
          const std::uint64_t dt = now_ns() - t0;
          ReplayCost& c = cost[t];
          (direct[st.ratio] ? c.direct_ns : c.staged_ns) += dt;
          (direct[st.ratio] ? c.direct_samples : c.staged_samples) += st.samples;
          ok[i] = produced == st.produced && (produced == 0 ? 0 : h.digest()) == st.hash;
        }
      });
    }
  }
  for (const char v : ok) rep.check(v != 0, "session output hash equals a standalone RationalSrc replay");
  ReplayCost total;
  for (const ReplayCost& c : cost) {
    total.direct_ns += c.direct_ns;
    total.direct_samples += c.direct_samples;
    total.staged_ns += c.staged_ns;
    total.staged_samples += c.staged_samples;
  }
  return total;
}

}  // namespace

void run_serve(const RunConfig& cfg, Scale scale, Tracer& tracer, Report& rep) {
  const bool full = scale == Scale::kFull;
  const std::uint64_t seed = derive_seed(cfg.seed, 3);
  std::optional<Setup> setup;
  const double setup_s = repeated_setup(full ? kSetupReps : 1, setup,
                                        [&] { return make_setup(seed, cfg.serve_lanes, rep); });
  Setup& s = *setup;
  serve::SrcService& svc = *s.service;

  tracer.begin_run("serve");
  Loop L;
  std::vector<StereoSample> buf(kOutputRing);
  std::vector<double> rates, p50s, p99s, untraced_s, traced_s;
  std::uint64_t converted_before = 0;
  std::uint64_t epoch1_dispatches = 0;
  std::size_t epochs = 0;
  // A probe runs the whole window too: in 2-4 s windows the host's slow
  // spells of a few seconds moved the p99 latency by 15-20 % between
  // seeded runs of one build.
  const std::uint64_t t_start = now_ns();
  while (epochs < kMinEpochs || 1e-9 * static_cast<double>(now_ns() - t_start) < cfg.seconds) {
    const bool traced = cfg.traced && epochs % 2 == 1;
    const bool measured = epochs > 0;
    tracer.set_active(traced);
    const std::uint64_t t0 = now_ns();
    for (std::size_t r = 0; r < kRoundsPerEpoch; ++r)
      run_round(s, L, measured, traced, tracer, buf, rep);
    const std::uint64_t t1 = now_ns();
    tracer.set_active(false);
    const std::uint64_t converted = converted_total(s, L);
    const double secs = 1e-9 * static_cast<double>(t1 - t0);
    if (measured && !traced) {
      rates.push_back(static_cast<double>(converted - converted_before) / secs);
      p50s.push_back(1e-6 * static_cast<double>(L.epoch_latency.beyond(2)));
      p99s.push_back(1e-6 * static_cast<double>(L.epoch_latency.beyond(100)));
    }
    L.epoch_latency = Dist{};
    if (measured) (traced ? traced_s : untraced_s).push_back(secs);
    if (epochs == 0) {
      // Work counts of the first epoch: exact for a seed, at any lane count.
      rep.count("serve.steps", svc.steps());
      epoch1_dispatches = svc.dispatches();
      rep.count("serve.dispatches", epoch1_dispatches);
      rep.count("serve.samples_converted", converted);
      rep.count("serve.bursts", L.bursts);
      rep.count("serve.latency_samples", L.warm_latency.count());
      rep.count("serve.reopens", L.reopens);
      rep.hash("serve.session_outputs", fold_hashes(s, L));
    }
    converted_before = converted;
    ++epochs;
  }
  const double rss = peak_rss_mb();
  const std::uint64_t loop_steps = svc.steps();
  const obs::Histogram jobs = svc.job_ns_histogram();

  // Conservation laws on every live session, then drain and verify each
  // stream (live and retired) against a standalone replay.
  for (const Session& x : s.sessions) {
    const serve::SessionStats* st = svc.stats(x.id);
    const std::uint64_t queued = x.in_capacity - svc.in_free(x.id);
    rep.check(st->accepted == x.fed && st->accepted == st->converted_in + queued &&
                  st->produced == st->pulled + svc.out_available(x.id),
              "accepted == converted_in + queued and produced == pulled + unpulled");
  }
  for (std::size_t guard = 0; guard < 100'000; ++guard) {
    svc.step();
    bool idle = true;
    for (const Session& x : s.sessions) {
      while (svc.pull(x.id, buf.data(), buf.size()) > 0) {
      }
      if (svc.stats(x.id)->converted_in != x.fed) idle = false;
    }
    if (idle) break;
  }
  std::vector<Stream> streams = L.closed;
  for (const Session& x : s.sessions) {
    const serve::SessionStats* st = svc.stats(x.id);
    rep.check(st->converted_in == x.fed && st->produced == st->pulled,
              "every accepted sample converts and every output is pulled");
    streams.push_back({x.ratio, x.base, x.fed, st->produced, st->output_hash});
  }
  const ReplayCost replay = verify_streams(streams, s.pool, cfg.lanes, rep);  // untimed
  const serve::ResilienceStats res = svc.resilience_stats();
  rep.check(res.admit_overloaded == 0 && res.shed_sessions == 0,
            "no admission overload and no shed sessions");

  const DistSummary latency = summarize(L.latency, 1e-6);
  rep.dist("serve.latency", latency, "ms");
  rep.dist("serve.step_ns", summarize(L.step_ns), "ns");
  {
    DistSummary j;
    j.n = jobs.count();
    j.p50 = static_cast<double>(jobs.p50());
    const std::uint64_t div = tail_divisor(j.n);
    j.tail_pct = percentile_of_divisor(div);
    j.tail = static_cast<double>(jobs.quantile(1.0 - 1.0 / static_cast<double>(div)));
    rep.dist("serve.job_ns", j, "ns");
  }

  if (!cfg.traced) {
    rep.metric("serve_samples_per_s", median(rates), "samples/s");
    rep.metric("serve_latency_p50_ms", median(p50s), "ms");
    rep.metric("serve_latency_p99_ms", median(p99s), "ms");
    if (full) {
      rep.metric("setup_s", setup_s, "s");
      rep.metric("peak_rss_mb", rss, "MB");
    }
    return;
  }

  const double lanes = static_cast<double>(svc.options().threads == 0 ? 1 : cfg.serve_lanes);
  const double job_sum = static_cast<double>(jobs.sum());
  const double step_sum = static_cast<double>(L.step_total_ns);
  rep.metric("serve.step_ns.p50", static_cast<double>(L.step_ns.beyond(2)), "ns");
  rep.metric("serve.step_ns.p99", static_cast<double>(L.step_ns.beyond(100)), "ns");
  rep.metric("serve.job_ns.p50", static_cast<double>(jobs.p50()), "ns");
  rep.metric("serve.job_ns.p99", static_cast<double>(jobs.p99()), "ns");
  rep.metric("serve.steps", static_cast<double>(kRoundsPerEpoch), "count");
  rep.metric("serve.dispatches", static_cast<double>(epoch1_dispatches), "count");
  rep.metric("serve.sched_ns_per_step",
             ratio(step_sum - job_sum / lanes, static_cast<double>(loop_steps)), "ns");
  rep.metric("serve.ring_ns_per_sample",
             ratio(static_cast<double>(L.ring_ns), static_cast<double>(L.ring_samples)), "ns");
  rep.metric("serve.open_close_ns",
             ratio(static_cast<double>(L.reopen_ns), static_cast<double>(L.reopens)), "ns");
  rep.metric("serve.lane_efficiency", ratio(job_sum, lanes * step_sum), "ratio");
  rep.metric("serve.starve_streak_max", static_cast<double>(svc.starve_streak_max()), "count");
  rep.metric("dsp.direct_ns_per_sample",
             ratio(static_cast<double>(replay.direct_ns), static_cast<double>(replay.direct_samples)),
             "ns");
  rep.metric("dsp.staged_ns_per_sample",
             ratio(static_cast<double>(replay.staged_ns), static_cast<double>(replay.staged_samples)),
             "ns");
  if (full) report_overhead(rep, tracer, "serve", untraced_s, traced_s);
}

}  // namespace perfbench
