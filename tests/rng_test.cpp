// Unit tests: deterministic splittable RNG.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>

namespace svss {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentOfParentUse) {
  // Splitting then drawing from the parent must not change the child.
  Rng parent1(7);
  Rng child1 = parent1.split(5);
  Rng parent2(7);
  Rng child2 = parent2.split(5);
  (void)parent2.next_u64();  // extra parent draw after the split
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, DiscardSkipsExactlyThatManyOutputs) {
  Rng drawn(11);
  Rng skipped(11);
  for (int i = 0; i < 5; ++i) (void)drawn.next_u64();
  skipped.discard(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(drawn.next_u64(), skipped.next_u64());
}

TEST(Rng, SiblingSplitsDiffer) {
  Rng parent(9);
  // Note split advances the parent; recreate for each salt.
  Rng a = Rng(9).split(1);
  Rng b = Rng(9).split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
  (void)parent;
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextFieldInRange) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.next_field().value(), Fp::kModulus);
  }
}

TEST(Rng, NextBoolRoughlyBalanced) {
  Rng rng(19);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.next_bool() ? 1 : 0;
  EXPECT_GT(ones, 4500);
  EXPECT_LT(ones, 5500);
}

TEST(Rng, NextUnitInHalfOpenInterval) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// Chi-squared-ish sanity check on byte uniformity of the generator.
TEST(Rng, ByteHistogramIsFlat) {
  Rng rng(29);
  int counts[256] = {0};
  constexpr int kDraws = 1 << 16;
  for (int i = 0; i < kDraws; ++i) counts[rng.next_u64() & 0xFF]++;
  double expected = kDraws / 256.0;
  for (int b = 0; b < 256; ++b) {
    EXPECT_GT(counts[b], expected * 0.7) << "byte " << b;
    EXPECT_LT(counts[b], expected * 1.3) << "byte " << b;
  }
}

}  // namespace
}  // namespace svss
