// Percentile selection and self-time subtraction: the two computations
// every reported distribution and layer breakdown rests on.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

using scflow::obs::Span;

TEST(Dist, ExactBelowTwoOctaves) {
  Dist d;
  for (std::uint64_t v = 1; v <= 200; ++v) d.record(v);
  EXPECT_EQ(d.count(), 200u);
  EXPECT_EQ(d.at_rank(1), 1u);
  EXPECT_EQ(d.at_rank(200), 200u);
  EXPECT_EQ(d.beyond(2), 100u);   // 100 samples lie above 100
  EXPECT_EQ(d.beyond(10), 180u);  // 20 samples lie above 180
}

TEST(Dist, LargeValuesStayWithinOneBucket) {
  for (const std::uint64_t v : {300ull, 123'456'789ull, ~0ull}) {
    Dist d;
    d.record(v);
    EXPECT_NEAR(static_cast<double>(d.at_rank(1)), static_cast<double>(v),
                static_cast<double>(v) / 128.0);
  }
}

TEST(Dist, EmptyReadsZero) {
  const Dist d;
  EXPECT_EQ(d.beyond(2), 0u);
}

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(tail_divisor(0), 2u);
  EXPECT_EQ(tail_divisor(99), 2u);  // p90 would leave only 9 beyond
  EXPECT_EQ(tail_divisor(100), 10u);
  EXPECT_EQ(tail_divisor(999), 10u);
  EXPECT_EQ(tail_divisor(1000), 100u);
  EXPECT_EQ(tail_divisor(10'000), 1000u);
  EXPECT_EQ(tail_divisor(~0ull), 1'000'000'000'000'000'000ull);
  EXPECT_DOUBLE_EQ(percentile_of_divisor(2), 50.0);
  EXPECT_DOUBLE_EQ(percentile_of_divisor(100), 99.0);
}

TEST(TailPercentile, SummaryReportsMedianTailAndCount) {
  Dist d;
  for (std::uint64_t v = 1; v <= 1000; ++v) d.record(v);
  const DistSummary s = summarize(d, 0.5);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_NEAR(s.tail, 990 * 0.5, 990 * 0.5 / 128);  // 10 samples above rank 990
  EXPECT_NEAR(s.p50, 500 * 0.5, 500 * 0.5 / 128);
}

Span span(std::uint64_t id, std::uint64_t parent, std::uint64_t start, std::uint64_t end) {
  Span s;
  s.id = id;
  s.parent_id = parent;
  s.name = "s" + std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  // Root [0,100) with overlapping children [10,30) and [20,50) (union 40);
  // a grandchild [12,18) counts against its parent only.
  const auto self = self_times({span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
                                span(4, 2, 12, 18)});
  EXPECT_EQ(self, (std::vector<std::uint64_t>{60, 14, 30, 6}));
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  const auto self = self_times({span(1, 0, 100, 200), span(2, 1, 150, 260), span(3, 0, 300, 310)});
  EXPECT_EQ(self, (std::vector<std::uint64_t>{50, 110, 10}));
}

TEST(SelfTime, NestedSelfTimesSumToTheRoot) {
  const auto self =
      self_times({span(1, 0, 0, 1000), span(2, 1, 100, 400), span(3, 1, 500, 900),
                  span(4, 2, 150, 200), span(5, 3, 600, 650), span(6, 3, 700, 800)});
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::uint64_t{0}), 1000u);
}

}  // namespace
}  // namespace perfbench
