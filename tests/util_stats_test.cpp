// RunningStats and the seeded RNG.

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using mdo::RunningStats;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  mdo::SplitMix64 rng(99);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.normal() * 3.0 + 1.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Rng, DeterministicAcrossInstances) {
  mdo::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BoundedIsInRange) {
  mdo::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, UniformCoversRange) {
  mdo::SplitMix64 rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform(2.0, 4.0));
  EXPECT_GE(s.min(), 2.0);
  EXPECT_LT(s.max(), 4.0);
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
}

TEST(Rng, NormalHasUnitMoments) {
  mdo::SplitMix64 rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, SplitStreamsDiffer) {
  mdo::SplitMix64 parent(42);
  auto c1 = parent.split();
  auto c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

}  // namespace
