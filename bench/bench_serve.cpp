// Streaming SRC service throughput: a fixed seeded workload (sessions
// spread over eight rate pairs, the four paper pairs included) is pushed
// through SrcService with a bounded step cap, and the aggregate
// conversion rate is reported as sessions x samples/s — input samples
// converted per wall second across all concurrent sessions.
//
// `--gbench-json FILE` emits a Google-Benchmark-shaped JSON with one
// "serve_soak" entry per repeat carrying `sessions_samples_per_s` — the
// trajectory metric scripts/bench_compare.py ratchets; `--repeat N`
// reruns the workload so the ratchet can take the max.  `--sessions`,
// `--samples` and `--threads` resize the workload (the pinned trajectory
// run uses the defaults).
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
#include "serve/src_service.hpp"

namespace {

using scflow::dsp::StereoSample;
using scflow::serve::ServiceOptions;
using scflow::serve::SessionId;
using scflow::serve::SrcService;

constexpr std::uint32_t kRatioTable[][2] = {
    {44'100, 48'000}, {48'000, 44'100}, {48'000, 48'000}, {32'000, 48'000},
    {8'000, 48'000},  {48'000, 8'000},  {22'050, 48'000}, {44'100, 8'000},
};
constexpr std::size_t kRatioCount = std::size(kRatioTable);

struct RunResult {
  std::uint64_t wall_ns = 0;
  std::uint64_t samples_in = 0;
};

RunResult run_workload(std::size_t n_sessions, std::size_t n_samples,
                       unsigned threads, std::uint64_t seed) {
  ServiceOptions opt;
  opt.threads = threads;
  opt.max_sessions = n_sessions;
  opt.input_ring = 256;
  opt.output_ring = 1'024;
  opt.work_quantum = 128;
  opt.max_sessions_per_step = 128;
  SrcService service(opt);

  std::vector<SessionId> ids(n_sessions);
  std::vector<std::vector<StereoSample>> stimuli(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    const auto& ratio = kRatioTable[i % kRatioCount];
    ids[i] = service.try_open({ratio[0], ratio[1]}).id;
    stimuli[i] = scflow::dsp::make_noise_stimulus(n_samples, seed + i);
  }

  std::vector<std::size_t> fed(n_sessions, 0);
  std::vector<StereoSample> out(512);
  const auto t0 = std::chrono::steady_clock::now();
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
      while (service.pull(ids[i], out.data(), out.size()) > 0) progress = true;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.samples_in = static_cast<std::uint64_t>(n_sessions) * n_samples;
  return r;
}

// One gbench "iteration" entry per repeat, name "serve_soak", counter
// sessions_samples_per_s.  Shape matches scripts/bench_compare.py
// (best-of-repeats per name, then pin comparison).
bool write_gbench_json(const std::string& path,
                       const std::vector<RunResult>& runs,
                       std::size_t sessions, unsigned threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"context\": {\"sessions\": %zu, \"threads\": %u},\n",
               sessions, threads);
  std::fprintf(f, "  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& r : runs) {
    if (r.wall_ns == 0) continue;
    const double rate =
        static_cast<double>(r.samples_in) / (static_cast<double>(r.wall_ns) / 1e9);
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"name\": \"serve_soak\", \"run_type\": \"iteration\", "
                 "\"iterations\": 1, \"real_time\": %.1f, \"cpu_time\": %.1f, "
                 "\"time_unit\": \"ns\", \"sessions_samples_per_s\": %.3f}",
                 static_cast<double>(r.wall_ns), static_cast<double>(r.wall_ns),
                 rate);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_sessions = 512;
  std::size_t n_samples = 2'000;
  unsigned threads = 4;
  std::uint64_t seed = 1;
  int repeat = 1;
  std::string gbench_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      n_sessions = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--sessions=", 11) == 0) {
      n_sessions = std::strtoul(argv[i] + 11, nullptr, 10);
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      n_samples = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--samples=", 10) == 0) {
      n_samples = std::strtoul(argv[i] + 10, nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--gbench-json") == 0 && i + 1 < argc) {
      gbench_path = argv[++i];
    } else if (std::strncmp(argv[i], "--gbench-json=", 14) == 0) {
      gbench_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, static_cast<int>(std::strtol(argv[++i], nullptr, 10)));
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::max(1, static_cast<int>(std::strtol(argv[i] + 9, nullptr, 10)));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--samples N] [--threads N] "
                   "[--seed S] [--gbench-json FILE] [--repeat N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<RunResult> runs;
  for (int rep = 0; rep < repeat; ++rep) {
    runs.push_back(run_workload(n_sessions, n_samples, threads, seed));
    const auto& r = runs.back();
    std::printf("repeat %d: %zu sessions x %zu samples in %.1f ms -> "
                "%.0f sessions x samples/s\n",
                rep, n_sessions, n_samples,
                static_cast<double>(r.wall_ns) / 1e6,
                static_cast<double>(r.samples_in) /
                    (static_cast<double>(r.wall_ns) / 1e9));
  }

  if (!gbench_path.empty()) {
    if (!write_gbench_json(gbench_path, runs, n_sessions, threads)) {
      std::fprintf(stderr, "error: cannot write %s\n", gbench_path.c_str());
      return 1;
    }
    std::printf("gbench json: %s\n", gbench_path.c_str());
  }
  return 0;
}
