// ProcSet, the bitset behind every per-process tally (RB echo/ready
// senders, MW-SVSS acks and L/M-sets, agreement votes), and its popcount.
// The ids 0, 63, 64 and 127 sit on both edges of both words.
#include <gtest/gtest.h>

#include <vector>

#include "common/popcount.hpp"
#include "common/proc_set.hpp"

namespace svss {
namespace {

ProcSet of(std::initializer_list<int> ids) {
  ProcSet s;
  for (int i : ids) s.insert(i);
  return s;
}

std::vector<int> members(const ProcSet& s) {
  std::vector<int> out;
  s.for_each([&](int i) { out.push_back(i); });
  return out;
}

TEST(Popcount, MatchesBitByBitCount) {
  for (std::uint64_t w :
       {0ULL, 1ULL, 0x8000000000000000ULL, ~0ULL, 0x5555555555555555ULL,
        0xF0F0F0F0F0F0F0F0ULL, 0x0123456789ABCDEFULL, 0x8000000000000001ULL}) {
    int naive = 0;
    for (int b = 0; b < 64; ++b) naive += static_cast<int>((w >> b) & 1);
    EXPECT_EQ(popcount64(w), naive) << std::hex << w;
  }
  static_assert(popcount64(~0ULL) == 64);
}

TEST(ProcSet, CountsAndIteratesAscendingAcrossWords) {
  ProcSet s;
  EXPECT_EQ(s.count(), 0);
  for (int i : {127, 64, 0, 63}) EXPECT_TRUE(s.insert(i));
  EXPECT_FALSE(s.insert(64));  // already present
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(members(s), (std::vector<int>{0, 63, 64, 127}));
  for (int i : {0, 63, 64, 127}) EXPECT_TRUE(s.contains(i));
  for (int i : {1, 62, 65, 126}) EXPECT_FALSE(s.contains(i));
}

TEST(ProcSet, OutOfRangeIdsAreNeverMembers) {
  ProcSet s = of({0, 127});
  for (int i : {-1, -64, 128, 129, 1 << 20}) {
    EXPECT_FALSE(s.insert(i)) << i;
    EXPECT_FALSE(s.contains(i)) << i;
  }
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(members(s), (std::vector<int>{0, 127}));
}

TEST(ProcSet, SetAlgebraAtWordEdges) {
  const ProcSet all = of({0, 63, 64, 127});
  const ProcSet low = of({0, 63});
  const ProcSet high = of({64, 127});
  const ProcSet edges = of({63, 64});

  EXPECT_TRUE(low.subset_of(all));
  EXPECT_TRUE(high.subset_of(all));
  EXPECT_TRUE(all.subset_of(all));
  EXPECT_TRUE(ProcSet{}.subset_of(low));
  EXPECT_FALSE(all.subset_of(low));
  EXPECT_FALSE(edges.subset_of(low));
  EXPECT_FALSE(edges.subset_of(high));

  EXPECT_EQ(members(all.minus(low)), (std::vector<int>{64, 127}));
  EXPECT_EQ(members(all.minus(edges)), (std::vector<int>{0, 127}));
  EXPECT_EQ(members(low.minus(all)), std::vector<int>{});

  EXPECT_EQ(members(all & edges), (std::vector<int>{63, 64}));
  EXPECT_EQ(members(low & high), std::vector<int>{});
  EXPECT_EQ((edges & high).count(), 1);
}

}  // namespace
}  // namespace svss
