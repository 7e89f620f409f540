// Seeded workload driver for the streaming SRC service: opens N sessions
// across a ratio table (the four paper pairs plus staged ratios), pushes
// seeded noise in chunks, steps the scheduler, pulls converted audio,
// closes everything, and verifies the service's zero-loss contract.
// Exit status is non-zero on any violation.
//
// The service's soak gates live in ctest: the 1000-session thread-sweep
// soak in tests/test_serve.cpp, the seeded chaos soak and the snapshot
// round-trip in tests/test_resilience.cpp.
//
// `--ledger FILE` writes the service's run ledger (serve.ratio /
// serve.resilience / serve.run entries) — `scflow_report show FILE`
// renders it as a dashboard.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "dsp/stimulus.hpp"
#include "obs/session.hpp"
#include "serve/src_service.hpp"

namespace {

using scflow::dsp::StereoSample;
using scflow::serve::ServiceOptions;
using scflow::serve::SessionId;
using scflow::serve::SessionStats;
using scflow::serve::SrcService;

constexpr std::uint32_t kRatioTable[][2] = {
    {44'100, 48'000}, {48'000, 44'100}, {48'000, 48'000}, {32'000, 48'000},
    {8'000, 48'000},  {48'000, 8'000},  {22'050, 48'000}, {44'100, 8'000},
};
constexpr std::size_t kRatioCount = std::size(kRatioTable);

struct WorkloadResult {
  std::size_t sessions = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t samples_in = 0;
  std::uint32_t starve_streak_max = 0;
  std::uint64_t job_ns_p99 = 0;
  std::uint64_t steps = 0;
  bool drained_clean = true;
};

// Runs the seeded workload with a FIXED push/step/pull interleaving —
// identical for every thread count, so per-session hashes are too.
WorkloadResult run_workload(std::size_t n_sessions, std::size_t n_samples,
                            unsigned threads, std::uint64_t seed,
                            std::size_t step_cap, scflow::obs::Session* obs_out) {
  ServiceOptions opt;
  opt.threads = threads;
  opt.max_sessions = n_sessions;
  opt.input_ring = 256;
  opt.output_ring = 1'024;
  opt.work_quantum = 128;
  opt.max_sessions_per_step = step_cap;
  SrcService service(opt);

  std::vector<SessionId> ids(n_sessions);
  std::vector<std::vector<StereoSample>> stimuli(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    const auto& ratio = kRatioTable[i % kRatioCount];
    ids[i] = service.try_open({ratio[0], ratio[1]}).id;
    if (!ids[i].valid()) {
      std::fprintf(stderr, "error: try_open() failed for session %zu\n", i);
      std::exit(1);
    }
    stimuli[i] = scflow::dsp::make_noise_stimulus(n_samples, seed + i);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::size_t> fed(n_sessions, 0);
  std::vector<std::uint64_t> pulled(n_sessions, 0);
  std::vector<StereoSample> out(512);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      if (fed[i] < n_samples) {
        fed[i] += service.push(ids[i], stimuli[i].data() + fed[i],
                               n_samples - fed[i]);
        if (fed[i] < n_samples) progress = true;
      }
    }
    if (service.step() > 0) progress = true;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      std::size_t got;
      while ((got = service.pull(ids[i], out.data(), out.size())) > 0) {
        pulled[i] += got;
        progress = true;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  WorkloadResult result;
  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  result.samples_in = static_cast<std::uint64_t>(n_sessions) * n_samples;
  result.starve_streak_max = service.starve_streak_max();
  result.job_ns_p99 = service.job_ns_histogram().p99();
  result.steps = service.steps();
  for (std::size_t i = 0; i < n_sessions; ++i) {
    const SessionStats* stats = service.stats(ids[i]);
    if (stats == nullptr) {
      result.drained_clean = false;
      continue;
    }
    ++result.sessions;
    // Zero-loss contract for this run.
    if (stats->accepted != n_samples || stats->converted_in != n_samples ||
        stats->produced != stats->pulled || pulled[i] != stats->pulled) {
      result.drained_clean = false;
    }
    service.close(ids[i]);
  }
  service.step();  // reclaim, folding the closed sessions into the aggregates
  if (obs_out != nullptr) service.record_into(*obs_out, "soak");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_sessions = 64;
  std::size_t n_samples = 1'200;
  unsigned threads = 4;
  std::uint64_t seed = 1;
  std::size_t step_cap = 0;
  std::string ledger_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      n_sessions = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      n_samples = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--step-cap") == 0 && i + 1 < argc) {
      step_cap = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--samples N] [--threads N] "
                   "[--seed S] [--step-cap N] [--ledger FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  scflow::obs::Session obs;
  const WorkloadResult r = run_workload(n_sessions, n_samples, threads, seed, step_cap,
                                        ledger_path.empty() ? nullptr : &obs);
  const double wall_s = static_cast<double>(r.wall_ns) / 1e9;
  std::printf("sessions:            %zu (over %zu ratios)\n", r.sessions,
              std::min(n_sessions, kRatioCount));
  std::printf("input samples:       %llu\n",
              static_cast<unsigned long long>(r.samples_in));
  std::printf("wall time:           %.1f ms\n", wall_s * 1e3);
  std::printf("throughput:          %.0f sessions x samples/s\n",
              static_cast<double>(r.samples_in) / wall_s);
  std::printf("scheduler steps:     %llu\n",
              static_cast<unsigned long long>(r.steps));
  std::printf("dispatch p99:        %.1f us\n",
              static_cast<double>(r.job_ns_p99) / 1e3);
  std::printf("starve streak max:   %u\n", r.starve_streak_max);
  std::printf("zero-loss contract:  %s\n", r.drained_clean ? "ok" : "VIOLATED");

  if (!ledger_path.empty()) {
    obs.ledger.meta = scflow::obs::collect_run_metadata(argv[0]);
    if (!obs.ledger.write(ledger_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", ledger_path.c_str());
      return 1;
    }
    std::printf("run ledger: %s\n", ledger_path.c_str());
  }
  return r.drained_clean ? 0 : 1;
}
