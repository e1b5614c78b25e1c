// Population count of a 64-bit word, inline and branch-free.
//
// At the default x86-64 target (no -mpopcnt), gcc lowers both
// __builtin_popcountll and std::popcount to a call into libgcc's
// __popcountdi2.  Set counting sits on the RB echo/ready and agreement
// vote paths, so the SWAR form below keeps it a dozen ALU operations
// inlined at the call site, with no call and no branch.
#pragma once

#include <cstdint>

namespace svss {

[[nodiscard]] constexpr int popcount64(std::uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((w * 0x0101010101010101ULL) >> 56);
}

}  // namespace svss
