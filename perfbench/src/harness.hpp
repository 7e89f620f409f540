// Benchmark harness: run configuration, the span tracer, result collection
// and the three workload entry points.
//
// A benchmark run is three perfbench processes: the named workload for the
// whole measurement window (Scale::kFull), then each of the other two as a
// probe (Scale::kProbe: smaller inputs or windows, one set-up), so every
// run reports every end-to-end metric — or, traced, every per-layer metric.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dsp/src_params.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;     ///< measurement window of the named workload
  unsigned lanes = 1;        ///< lanes of the fault campaigns and the untimed replays
  unsigned serve_lanes = 1;  ///< BatchRunner lanes of the service
  bool traced = false;       ///< per-layer metrics instead of end-to-end ones
};

enum class Scale { kFull, kProbe };

/// Set-up repetitions of a full run; setup_s is their median.  Set-ups take
/// milliseconds, and single ones spread by a third between runs.
inline constexpr int kSetupReps = 15;

/// Span recorder for the traced run: one span around each call into a
/// layer's public functions, kept in memory and written at exit through
/// obs::SpanSet / obs::TraceWriter.  Every span of one workload run carries
/// that run's id as its category.  While inactive a Scope costs one branch.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool active() const { return active_; }
  /// Traced runs interleave traced and untraced units of the same work;
  /// the difference between them is the tracing overhead.
  void set_active(bool on) { active_ = on; }
  /// Starts a workload run: its spans carry the category "<workload>#<n>".
  void begin_run(const std::string& workload);

  /// RAII span around one call (no-op while inactive).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    scflow::obs::Span span_;
  };

  /// Adds a finished span [@p start_ns, @p end_ns) (now_ns() clock) under
  /// @p parent, or under the innermost open Scope when parent is 0.
  /// Returns its id (0 while inactive).
  std::uint64_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t parent = 0);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Per span name, over the current workload run: span count, summed
  /// duration and summed self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes every span as Chrome/Perfetto trace JSON; false on I/O failure.
  bool write(const std::string& path);

 private:
  bool active_ = false;
  scflow::obs::TraceWriter writer_;
  std::uint64_t epoch_ns_;  // now_ns() at the writer's epoch
  scflow::obs::SpanSet spans_;
  std::vector<std::uint64_t> open_;  // ids of open Scopes, innermost last
  std::map<std::string, unsigned> runs_;
  std::string category_ = "none";
};

/// Result collection for one benchmark process.  Exact work counts and
/// output hashes must repeat bit-for-bit across runs of one seed and across
/// lane counts, so a later delta reads as a change in work or in cost per
/// unit.  print() emits the detail lines, then the one-line JSON result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void count(const std::string& name, std::uint64_t value) { counts_[name] = value; }
  void hash(const std::string& name, std::uint64_t value) { hashes_[name] = value; }
  void dist(const std::string& name, const DistSummary& s, const std::string& unit);
  /// @p json is a rendered JSON value.
  void info(const std::string& key, const std::string& json) { info_[key] = json; }
  /// One checked operation; failures are named on stderr.
  void check(bool ok, const std::string& what);
  void print(std::FILE* out) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  std::map<std::string, std::uint64_t> hashes_;
  std::map<std::string, std::string> dists_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void run_refine(const RunConfig& cfg, Scale scale, Tracer& tracer, Report& rep);
void run_signoff(const RunConfig& cfg, Scale scale, Tracer& tracer, Report& rep);
void run_serve(const RunConfig& cfg, Scale scale, Tracer& tracer, Report& rep);

/// Independent stream seeds from the run seed (splitmix64 finaliser).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);
/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// The word the service hashes per output sample.
[[nodiscard]] inline std::uint64_t sample_word(const scflow::dsp::StereoSample& s) {
  return (std::uint64_t{static_cast<std::uint16_t>(s.left)} << 16) |
         static_cast<std::uint16_t>(s.right);
}
/// FNV-1a over a sample stream.
[[nodiscard]] std::uint64_t hash_samples(const std::vector<scflow::dsp::StereoSample>& v);
/// a / b, or 0 when b is 0 (a layer this run did not exercise).
[[nodiscard]] inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }
/// Records trace.overhead_pct (median traced unit over median untraced
/// unit) and the unit totals behind it.
void report_overhead(Report& rep, const Tracer& tracer, const char* workload,
                     const std::vector<double>& untraced_s, const std::vector<double>& traced_s);

/// Runs @p make @p reps times, keeping the last result in @p out; returns
/// the median set-up time in seconds.
template <class T, class F>
double repeated_setup(int reps, std::optional<T>& out, F&& make) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    out.reset();
    const std::uint64_t t0 = now_ns();
    out.emplace(make());
    secs.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  return median(std::move(secs));
}

}  // namespace perfbench
