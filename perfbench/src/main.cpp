// perfbench: the scflow benchmark driver.  Runs one workload, either in
// full for its measurement window or as a probe (smaller inputs or windows,
// one set-up).  run.py runs the named workload in full and the other two as
// probes, each in a process of its own, and merges their results, so every
// run reports every end-to-end metric (traced: every per-layer metric).
// Prints the host stamp, exact work counts, output hashes and timing
// distributions, then the one-line JSON result.
//
//   perfbench --workload refine|signoff|serve --seed N --seconds S
//             --trace 0|1 [--scale full|probe] [--lanes N] [--trace-out FILE]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

// Timing an unoptimised or sanitizer build would pin numbers no user sees.
// This file is compiled with the same flags as the scflow libraries.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload refine|signoff|serve --seed N --seconds S "
               "--trace 0|1 [--scale full|probe] [--lanes N] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scale = "full";
  std::string trace_out;
  RunConfig cfg;
  int trace = 0;
  unsigned long lanes = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") cfg.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::atoi(value);
    else if (key == "--scale") scale = value;
    else if (key == "--lanes") lanes = std::strtoul(value, nullptr, 10);
    else if (key == "--trace-out") trace_out = value;
    else return usage();
  }
  if (argc % 2 != 1 || (workload != "refine" && workload != "signoff" && workload != "serve") ||
      (scale != "full" && scale != "probe") || !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) ||
      (trace != 0 && trace != 1) || lanes > 256) {
    return usage();
  }
  if (!kTimingBuild) {
    std::fprintf(stderr, "perfbench: refusing to time an unoptimised or sanitizer build\n");
    return 3;
  }
  // The service's per-step join over microsecond jobs measured the host's
  // scheduler more than the service at 4 lanes on a shared 4-core host, so
  // it defaults to 2; the millisecond campaign jobs keep up to 4.
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.lanes = lanes != 0 ? static_cast<unsigned>(lanes) : std::clamp(hw, 1u, 4u);
  cfg.serve_lanes = lanes != 0 ? static_cast<unsigned>(lanes) : std::clamp(hw, 1u, 2u);
  cfg.traced = trace == 1;

  using scflow::obs::json_escape;
  const auto quoted = [](const std::string& s) { return "\"" + json_escape(s) + "\""; };
  Report rep;
  const scflow::obs::RunMetadata meta = scflow::obs::collect_run_metadata("perfbench");
  rep.info("rev", quoted(meta.rev));
  rep.info("hw_threads", std::to_string(meta.hw_threads));
  rep.info("cpu_model", quoted(cpu_model()));
  rep.info("compiler", quoted(compiler()));
  rep.info("build_type", quoted(PERFBENCH_BUILD_TYPE));
  rep.info("lanes", std::to_string(cfg.lanes));
  rep.info("serve_lanes", std::to_string(cfg.serve_lanes));
  rep.info("workload", quoted(workload));
  rep.info("scale", quoted(scale));
  rep.info("seed", std::to_string(cfg.seed));
  rep.info("seconds", scflow::obs::json_number(cfg.seconds));
  rep.info("traced", cfg.traced ? "true" : "false");

  try {
    Tracer tracer;
    using Fn = void (*)(const RunConfig&, Scale, Tracer&, Report&);
    const std::pair<const char*, Fn> all[] = {
        {"refine", run_refine}, {"signoff", run_signoff}, {"serve", run_serve}};
    // Wall time, set-up and checks included, for budgeting runs.
    const std::uint64_t t0 = now_ns();
    for (const auto& [name, fn] : all)
      if (workload == name) fn(cfg, scale == "full" ? Scale::kFull : Scale::kProbe, tracer, rep);
    rep.info("wall_s." + workload,
             scflow::obs::json_number(1e-9 * static_cast<double>(now_ns() - t0)));
    if (cfg.traced && !trace_out.empty()) {
      const std::filesystem::path path(trace_out);
      if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
      rep.check(tracer.write(trace_out), "trace file is written");
      rep.info("trace_file." + workload, quoted(trace_out));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.print(stdout);
  return 0;
}
