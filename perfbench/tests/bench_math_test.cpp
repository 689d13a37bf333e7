// Tests for the benchmark's own arithmetic: the percentile rule, span self
// time, and the correctness digests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "digest.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankUsesIntegerArithmetic) {
  EXPECT_EQ(nearest_rank(1000, 9900), 990u);
  EXPECT_EQ(nearest_rank(999, 9900), 990u);
  EXPECT_EQ(nearest_rank(100, 5000), 50u);
  EXPECT_EQ(nearest_rank(101, 5000), 51u);
  EXPECT_EQ(nearest_rank(1, 0), 1u);
  EXPECT_EQ(nearest_rank(7, 10000), 7u);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 9900), 10u);
  EXPECT_EQ(samples_beyond(999, 9900), 9u);
  EXPECT_TRUE(p99_holds(1000));
  EXPECT_FALSE(p99_holds(999));
  EXPECT_FALSE(p99_holds(0));
}

TEST(Percentile, TailPercentileIsTheHighestWithTenBeyond) {
  EXPECT_EQ(tail_percentile_bp(10000), 9990u);
  EXPECT_EQ(tail_percentile_bp(9999), 9900u);
  EXPECT_EQ(tail_percentile_bp(1000), 9900u);
  EXPECT_EQ(tail_percentile_bp(999), 9500u);  // p95 leaves 49; p99 only 9
  EXPECT_EQ(tail_percentile_bp(200), 9500u);
  EXPECT_EQ(tail_percentile_bp(100), 9000u);
  EXPECT_EQ(tail_percentile_bp(99), 5000u);
  EXPECT_EQ(tail_percentile_bp(20), 5000u);
  EXPECT_EQ(tail_percentile_bp(19), 0u);
}

TEST(Percentile, ValuesAndMedian) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 9900), 990.0);
  EXPECT_EQ(percentile(v, 5000), 500.0);
  std::vector<double> odd{3, 1, 2};
  EXPECT_EQ(median(odd), 2.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_EQ(median(even), 2.5);
  std::vector<double> none;
  EXPECT_EQ(median(none), 0.0);
  EXPECT_EQ(percentile(none, 9900), 0.0);
}

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
  return Span{id, parent, SpanName::kSweep, 0, start, end};
}

TEST(SelfTime, LeafIsItsDuration) {
  const auto self = self_times({span(1, 0, 10, 30)});
  EXPECT_EQ(self[0], 20);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0, 100); children from parallel workers [10, 50), [30, 70) and
  // [60, 65) cover [10, 70) = 60 ns, so the parent's self time is 40 ns.
  const auto self = self_times({span(1, 0, 0, 100), span(2, 1, 10, 50),
                                span(3, 1, 30, 70), span(4, 1, 60, 65)});
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 5);
}

TEST(SelfTime, DisjointAndTouchingChildren) {
  const auto self = self_times(
      {span(1, 0, 0, 100), span(2, 1, 0, 10), span(3, 1, 10, 20),
       span(4, 1, 50, 60)});
  EXPECT_EQ(self[0], 70);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // A retroactive span can start before its parent opened.
  const auto self = self_times({span(1, 0, 10, 50), span(2, 1, 0, 20),
                                span(3, 1, 40, 90)});
  EXPECT_EQ(self[0], 20);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheGrandparent) {
  const auto self = self_times(
      {span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 40)});
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTime, PerLayerSumsByNamePrefix) {
  std::vector<Span> spans = {
      {1, 0, SpanName::kSweep, 0, 0, 100},
      {2, 1, SpanName::kTrial, 0, 0, 60},
      {3, 2, SpanName::kRun, 0, 10, 60},
      {4, 1, SpanName::kCacheLookup, 0, 70, 80},
  };
  const auto layers = self_by_layer(spans);
  EXPECT_DOUBLE_EQ(layers.at("sim"), 30e-9);
  EXPECT_DOUBLE_EQ(layers.at("gossip"), 60e-9);
  EXPECT_DOUBLE_EQ(layers.at("exp"), 10e-9);
  const auto names = totals_by_name(spans);
  EXPECT_EQ(names.at("gossip.run").count, 1u);
  EXPECT_DOUBLE_EQ(names.at("gossip.trial").self_s, 10e-9);
}

TEST(Digest, EveryFieldMatters) {
  lotus::gossip::GossipResult a;
  const auto base = digest(a);
  EXPECT_EQ(digest(a), base);
  auto b = a;
  b.full_eviction_round = 1;
  EXPECT_NE(digest(b), base);
  b = a;
  b.isolated_delivery = std::nextafter(1.0, 0.0);
  EXPECT_NE(digest(b), base);
  b = a;
  b.attacker_coverage = -0.0;  // equal as a double, different bits
  EXPECT_NE(digest(b), base);
  b = a;
  b.junk_updates = 1;
  EXPECT_NE(digest(b), base);
}

TEST(Digest, DeliveryRangeAndEmptyPopulations) {
  lotus::gossip::GossipResult r;
  r.isolated_nodes = 5;
  r.satiated_honest_nodes = 5;
  EXPECT_TRUE(deliveries_in_range(r));
  EXPECT_FALSE(empty_measurement(r));
  r.overall_delivery = 1.5;
  EXPECT_FALSE(deliveries_in_range(r));
  r.overall_delivery = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(deliveries_in_range(r));
  r.overall_delivery = 1.0;
  r.isolated_nodes = 0;
  EXPECT_TRUE(empty_measurement(r));
}

}  // namespace
}  // namespace perfbench
