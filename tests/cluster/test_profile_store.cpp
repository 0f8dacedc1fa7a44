#include "cluster/profile_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "stats/correlation.hpp"

namespace knots::cluster {
namespace {

TEST(ProfileStore, UnknownImageIsNull) {
  ProfileStore store;
  EXPECT_EQ(store.find("nope"), nullptr);
  EXPECT_FALSE(store.known("nope"));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.memory_correlation("a", "b").has_value());
}

TEST(ProfileStore, FirstRunStoredVerbatim) {
  ProfileStore store;
  store.record_run("lud", 500, 700, 0.4, 0.9, {1, 2, 3}, {0.1, 0.2, 0.3});
  const auto* prof = store.find("lud");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->observed_runs, 1);
  EXPECT_DOUBLE_EQ(prof->p80_memory_mb, 500);
  EXPECT_DOUBLE_EQ(prof->peak_memory_mb, 700);
  EXPECT_DOUBLE_EQ(prof->mean_sm, 0.4);
  EXPECT_EQ(prof->memory_signature, (std::vector<double>{1, 2, 3}));
}

TEST(ProfileStore, EmaBlendsSubsequentRuns) {
  ProfileStore store;
  store.record_run("x", 100, 200, 0.2, 0.5, {10}, {0.1});
  store.record_run("x", 200, 180, 0.4, 0.6, {20}, {0.2});
  const auto* prof = store.find("x");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->observed_runs, 2);
  EXPECT_DOUBLE_EQ(prof->p80_memory_mb, 0.7 * 100 + 0.3 * 200);
  EXPECT_DOUBLE_EQ(prof->peak_memory_mb, 200);  // peaks only grow
  EXPECT_DOUBLE_EQ(prof->peak_sm, 0.6);
  EXPECT_DOUBLE_EQ(prof->memory_signature[0], 13);
}

TEST(ProfileStore, CorrelationBetweenSimilarSignaturesIsHigh) {
  ProfileStore store;
  std::vector<double> rampy, anti, sm(8, 0.1);
  for (int i = 0; i < 8; ++i) {
    rampy.push_back(i);
    anti.push_back(8 - i);
  }
  store.record_run("a", 1, 1, 0, 0, rampy, sm);
  store.record_run("b", 1, 1, 0, 0, rampy, sm);
  store.record_run("c", 1, 1, 0, 0, anti, sm);
  EXPECT_NEAR(*store.memory_correlation("a", "b"), 1.0, 1e-9);
  EXPECT_NEAR(*store.memory_correlation("a", "c"), -1.0, 1e-9);
}

TEST(ProfileStore, CorrelationNullWhenLengthsMismatch) {
  ProfileStore store;
  store.record_run("a", 1, 1, 0, 0, {1, 2, 3}, {0, 0, 0});
  store.record_run("b", 1, 1, 0, 0, {1, 2}, {0, 0});
  EXPECT_FALSE(store.memory_correlation("a", "b").has_value());
}

TEST(ProfileStore, SeparateImagesIndependent) {
  ProfileStore store;
  store.record_run("face#1", 10, 10, 0.1, 0.2, {1}, {1});
  store.record_run("face#64", 90, 95, 0.5, 0.8, {9}, {9});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.find("face#1")->p80_memory_mb, 10);
  EXPECT_DOUBLE_EQ(store.find("face#64")->p80_memory_mb, 90);
}

/// memory_correlation() reads ranks cached at record_run(); it must stay
/// bit-equal to Spearman recomputed from the stored signatures.
void expect_spearman_bits(const ProfileStore& store, const std::string& a,
                          const std::string& b) {
  const auto corr = store.memory_correlation(a, b);
  ASSERT_TRUE(corr.has_value()) << a << " vs " << b;
  EXPECT_EQ(*corr, stats::spearman(store.find(a)->memory_signature,
                                   store.find(b)->memory_signature))
      << a << " vs " << b;
}

TEST(ProfileStore, CachedRankCorrelationIsBitEqualToSpearman) {
  std::mt19937_64 rng(42);
  const auto signature = [&](bool ties) {
    std::vector<double> sig(16);
    for (auto& v : sig) {
      // Ties: a handful of distinct levels, so groups of equal values.
      v = ties ? static_cast<double>(rng() % 4) * 512.0
               : static_cast<double>(rng() % 100000) / 7.0;
    }
    return sig;
  };
  ProfileStore store;
  const std::vector<std::string> images = {"lud", "bfs", "tied", "flat"};
  for (int run = 0; run < 6; ++run) {
    store.record_run("lud", 1, 1, 0, 0, signature(false), {});
    store.record_run("bfs", 1, 1, 0, 0, signature(false), {});
    store.record_run("tied", 1, 1, 0, 0, signature(true), {});
    store.record_run("flat", 1, 1, 0, 0, std::vector<double>(16, 300.0), {});
    for (const auto& a : images) {
      for (const auto& b : images) expect_spearman_bits(store, a, b);
    }
  }
  EXPECT_EQ(store.find("lud")->observed_runs, 6);
  // EMA merging of tie-level signatures keeps ties only by coincidence;
  // a fresh tied image checks the tie path directly.
  store.record_run("ties-once", 1, 1, 0, 0,
                   {3, 1, 3, 3, 2, 1, 2, 3, 1, 1, 2, 3, 3, 1, 2, 2}, {});
  for (const auto& b : images) expect_spearman_bits(store, "ties-once", b);
  // A constant signature has no rank spread: correlation 0.
  EXPECT_EQ(*store.memory_correlation("flat", "lud"), 0.0);
}

TEST(ProfileStore, CachedRankCorrelationEdgeCases) {
  ProfileStore store;
  store.record_run("one-a", 1, 1, 0, 0, {5}, {0});
  store.record_run("one-b", 1, 1, 0, 0, {9}, {0});
  store.record_run("one-a", 1, 1, 0, 0, {7}, {0});
  store.record_run("empty", 1, 1, 0, 0, {}, {});
  store.record_run("three", 1, 1, 0, 0, {1, 2, 3}, {0, 0, 0});
  // Size 1: Spearman is defined as 0.
  ASSERT_TRUE(store.memory_correlation("one-a", "one-b").has_value());
  EXPECT_EQ(*store.memory_correlation("one-a", "one-b"), 0.0);
  expect_spearman_bits(store, "one-a", "one-b");
  expect_spearman_bits(store, "empty", "empty");
  // Mismatched sizes and unknown images: no correlation.
  EXPECT_FALSE(store.memory_correlation("one-a", "three").has_value());
  EXPECT_FALSE(store.memory_correlation("three", "empty").has_value());
  EXPECT_FALSE(store.memory_correlation("three", "nope").has_value());
  EXPECT_FALSE(store.memory_correlation("nope", "three").has_value());
}

}  // namespace
}  // namespace knots::cluster
