#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace knots {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  Rng parent(7);
  Rng child1 = parent.fork(3);
  // Drawing from the parent must not change what a same-stream fork yields.
  Rng parent2(7);
  for (int i = 0; i < 50; ++i) parent2.uniform();
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
}

TEST(Rng, ForkStreamsDiffer) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 9.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 6);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 1.5);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 2.25, 0.1);
}

// skip_normal() is normal() without the transform: any interleaving of the
// two leaves the engine exactly where the same count of normal() calls
// does, so the normal() calls in between return the same values. One
// uniform too few or too many per skip shifts every later draw.
TEST(Rng, SkipNormalAdvancesLikeNormal) {
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    Rng all(seed);
    Rng mixed(seed);
    Rng pattern(seed * 7919);
    for (int i = 0; i < 40; ++i) {
      const double expect = all.normal(0.5, 2.0);
      if (pattern.chance(0.6)) {
        mixed.skip_normal();
      } else {
        ASSERT_EQ(mixed.normal(0.5, 2.0), expect)
            << "seed " << seed << " call " << i;
      }
    }
    ASSERT_EQ(mixed.engine()(), all.engine()()) << "seed " << seed;
  }
}

TEST(Rng, LognormalMatchesClosedFormMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(0.0, 0.5);
  EXPECT_NEAR(sum / n, std::exp(0.125), 0.02);
}

TEST(Rng, ParetoBounded) {
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.pareto(1.5, 1.0, 100.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Rng, ParetoSkewsTowardLowerBound) {
  Rng rng(23);
  int below_ten = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(2.0, 1.0, 100.0) < 10.0) ++below_ten;
  }
  EXPECT_GT(below_ten, n * 9 / 10);
}

TEST(Rng, ChanceProbabilityRoughlyHonored) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexHonorsWeights) {
  Rng rng(31);
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index({1.0, 2.0, 3.0})];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 6, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 3.0 / 6, 0.01);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(rng.weighted_index({1.0, 0.0, 1.0}), 1u);
  }
}

TEST(Xoshiro, KnownSeedProducesStableStream) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, ChanceZeroAndOneDegenerate) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1u, 2u, 42u, 1234567u,
                                           0xdeadbeefu));

// -- Counter-based fork laws ------------------------------------------------
// The parallel tick pipeline depends on fork_at being a pure function of
// (root seed, stream id): lane workers fork streams out of order, yet every
// child must match the one a sequential dispenser would have produced.

TEST(RngForkAt, EqualsSequentialForks) {
  const Rng parent(987654321);
  for (std::uint64_t base : {0ull, 0x9000ull, ~0ull - 64}) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      Rng a = parent.fork(base + i);
      Rng b = parent.fork_at(base, i);
      for (int d = 0; d < 8; ++d) EXPECT_EQ(a.uniform(), b.uniform());
    }
  }
}

TEST(RngForkAt, IndependentOfParentDrawsAndOrder) {
  // Forking is const: draws on the parent and fork order must not change
  // any child's stream.
  Rng clean(42);
  Rng dirty(42);
  for (int i = 0; i < 100; ++i) (void)dirty.uniform();
  // Out-of-order (reverse) forks from the dirty parent vs in-order forks
  // from the clean one.
  for (std::uint64_t i = 16; i-- > 0;) {
    Rng a = clean.fork_at(0x9000, i);
    Rng b = dirty.fork_at(0x9000, i);
    for (int d = 0; d < 4; ++d) EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngForkAt, ForkSequenceDispensesTheSameStreams) {
  const Rng parent(7);
  ForkSequence seq(parent, 0x9000);
  for (std::uint64_t i = 0; i < 24; ++i) {
    Rng from_seq = seq.next();
    Rng direct = parent.fork_at(0x9000, i);
    for (int d = 0; d < 4; ++d) {
      EXPECT_EQ(from_seq.normal(0.0, 1.0), direct.normal(0.0, 1.0));
    }
  }
  EXPECT_EQ(seq.issued(), 24u);
}

}  // namespace
}  // namespace knots
