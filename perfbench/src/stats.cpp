#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Index v for v < 2*kSub.  Above, a value whose highest set bit is k lands
// in octave k-7 at sub-bucket (v >> (k-7)) - kSub: buckets of width
// 2^(k-7), i.e. between 1/256 and 1/128 of the value.
std::size_t Dist::index_of(std::uint64_t v) {
  if (v < 2 * kSub) return static_cast<std::size_t>(v);
  const int shift = std::bit_width(v) - 8;
  return static_cast<std::size_t>(static_cast<std::uint64_t>(shift + 1) * kSub +
                                  ((v >> shift) - kSub));
}

std::uint64_t Dist::representative(std::size_t idx) {
  if (idx < 2 * kSub) return idx;
  const std::uint64_t shift = idx / kSub - 1;
  const std::uint64_t lo = (kSub + idx % kSub) << shift;
  return lo + ((std::uint64_t{1} << shift) >> 1);
}

void Dist::record(std::uint64_t v) {
  const std::size_t i = index_of(v);
  if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
  ++buckets_[i];
  ++count_;
}

std::uint64_t Dist::at_rank(std::uint64_t rank) const {
  if (count_ == 0) return 0;
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return representative(i);
  }
  return representative(buckets_.size() - 1);
}

std::uint64_t Dist::beyond(std::uint64_t divisor) const {
  return at_rank(count_ - count_ / divisor);
}

std::uint64_t tail_divisor(std::uint64_t n, std::uint64_t min_beyond) {
  std::uint64_t best = 2;
  for (std::uint64_t d = 10; d <= n; d *= 10) {
    if (n / d < min_beyond) break;
    best = d;
  }
  return best;
}

double percentile_of_divisor(std::uint64_t divisor) {
  return 100.0 * (1.0 - 1.0 / static_cast<double>(divisor));
}

DistSummary summarize(const Dist& d, double scale) {
  DistSummary s;
  s.n = d.count();
  s.p50 = static_cast<double>(d.beyond(2)) * scale;
  const std::uint64_t div = tail_divisor(s.n);
  s.tail_pct = percentile_of_divisor(div);
  s.tail = static_cast<double>(d.beyond(div)) * scale;
  return s;
}

std::vector<std::uint64_t> self_times(const std::vector<scflow::obs::Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Each span's children, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(spans.size());
  for (const scflow::obs::Span& s : spans) {
    if (s.parent_id == 0) continue;
    const auto it = index.find(s.parent_id);
    if (it == index.end()) continue;
    const scflow::obs::Span& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t union_ns = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns : 0;
    self[i] = dur - std::min(dur, union_ns);
  }
  return self;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
