// Distribution and span arithmetic shared by the benchmark workloads.
//
// Dist keeps every in-run timing distribution (serve latency, step time,
// PPSFP batch time, ...) in log-linear buckets, so millions of samples cost
// a few kilobytes and any percentile is within 1/128 of the exact value.
// A distribution is reported as its median, plus the highest percentile
// that still has at least ten samples beyond it, plus the sample count.
//
// self_times() implements the trace's self-time rule: a span's duration
// minus the part of its interval that its child spans cover.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

/// Steady-clock nanoseconds (arbitrary epoch).
[[nodiscard]] std::uint64_t now_ns();

class Dist {
 public:
  /// Values below 2 * kSub are stored exactly; every power-of-two octave
  /// above splits into kSub equal buckets.
  static constexpr std::uint64_t kSub = 128;

  void record(std::uint64_t v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// The sample of 1-based @p rank in ascending order (its bucket's
  /// midpoint; exact below 2 * kSub).  0 for an empty distribution.
  [[nodiscard]] std::uint64_t at_rank(std::uint64_t rank) const;
  /// The value with exactly count() / @p divisor samples above it:
  /// divisor 2 is the median, 100 the 99th percentile, 1000 the 99.9th.
  [[nodiscard]] std::uint64_t beyond(std::uint64_t divisor) const;

 private:
  [[nodiscard]] static std::size_t index_of(std::uint64_t v);
  [[nodiscard]] static std::uint64_t representative(std::size_t idx);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Divisor of the highest percentile on the ladder 50, 90, 99, 99.9, ...
/// (divisors 2, 10, 100, 1000, ...) that leaves at least @p min_beyond of
/// @p n samples above it.  Falls back to the median (2) when even that
/// leaves fewer.
[[nodiscard]] std::uint64_t tail_divisor(std::uint64_t n, std::uint64_t min_beyond = 10);
/// Percentile level of a divisor: 2 -> 50, 10 -> 90, 100 -> 99, ...
[[nodiscard]] double percentile_of_divisor(std::uint64_t divisor);

struct DistSummary {
  std::uint64_t n = 0;
  double p50 = 0.0;
  double tail_pct = 50.0;  ///< percentile level chosen by tail_divisor
  double tail = 0.0;
};
/// Median, tail percentile and count, values multiplied by @p scale (1e-6
/// reports nanosecond samples in milliseconds).
[[nodiscard]] DistSummary summarize(const Dist& d, double scale = 1.0);

/// Self time of every span (parallel to @p spans): its duration minus the
/// union of its direct children's intervals, clipped to its own interval.
[[nodiscard]] std::vector<std::uint64_t> self_times(const std::vector<scflow::obs::Span>& spans);

/// Median of @p v (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
