#include "stats/rolling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "core/percentile.hpp"
#include "core/rng.hpp"

namespace knots::stats {
namespace {

TEST(RollingQuantile, EmptyIsSafe) {
  RollingQuantile rq(8);
  EXPECT_TRUE(rq.empty());
  EXPECT_DOUBLE_EQ(rq.quantile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(rq.min(), 0.0);
  EXPECT_DOUBLE_EQ(rq.max(), 0.0);
}

TEST(RollingQuantile, SortedShadowIsAscending) {
  RollingQuantile rq(4);
  for (double x : {9.0, 2.0, 7.0, 4.0, 1.0}) rq.push(x);  // evicts the 9
  const std::vector<double> expect = {1.0, 2.0, 4.0, 7.0};
  EXPECT_EQ(rq.sorted(), expect);
  EXPECT_DOUBLE_EQ(rq.min(), 1.0);
  EXPECT_DOUBLE_EQ(rq.max(), 7.0);
}

TEST(RollingQuantile, DuplicateValuesEvictCorrectly) {
  RollingQuantile rq(3);
  for (double x : {5.0, 5.0, 5.0, 5.0, 2.0}) rq.push(x);
  const std::vector<double> expect = {2.0, 5.0, 5.0};
  EXPECT_EQ(rq.sorted(), expect);
}

/// quantile(p) must be *exactly* core::percentile over the same window —
/// the structure is a drop-in replacement on digest-sensitive paths.
class RollingQuantileEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RollingQuantileEquivalence, ExactlyMatchesPercentileOverEvictions) {
  const std::size_t capacity = GetParam();
  RollingQuantile rq(capacity);
  std::deque<double> naive;
  Rng rng(77 + capacity);
  const double ps[] = {0.0, 12.5, 50.0, 90.0, 99.0, 100.0};
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(0, 100);
    rq.push(x);
    naive.push_back(x);
    if (naive.size() > capacity) naive.pop_front();
    if (i % 7 != 0) continue;  // checking every push is O(n^2)-slow
    const std::vector<double> window(naive.begin(), naive.end());
    for (double p : ps) {
      EXPECT_DOUBLE_EQ(rq.quantile(p), percentile(window, p))
          << "i=" << i << " p=" << p;
    }
    EXPECT_DOUBLE_EQ(rq.min(), *std::min_element(window.begin(), window.end()));
    EXPECT_DOUBLE_EQ(rq.max(), *std::max_element(window.begin(), window.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, RollingQuantileEquivalence,
                         ::testing::Values(1u, 2u, 5u, 64u, 311u));

TEST(RollingQuantile, ClearResets) {
  RollingQuantile rq(4);
  for (double x : {1.0, 2.0, 3.0}) rq.push(x);
  rq.clear();
  EXPECT_TRUE(rq.empty());
  rq.push(42.0);
  EXPECT_DOUBLE_EQ(rq.quantile(50.0), 42.0);
}

}  // namespace
}  // namespace knots::stats
