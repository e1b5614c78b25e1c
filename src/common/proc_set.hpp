// A set of process ids as a fixed-width bitset.
//
// Protocol state keyed by process — RB echo/ready senders, MW-SVSS acks,
// L-sets and M-sets — only ever holds ids in [0, n) with n <= kMaxN, so a
// handful of machine words replaces a node-based std::set: no allocation
// per insert, and set algebra (subset, intersection) is a few word
// operations.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svss {

// Upper bound on the system size n: the width of every ProcSet, the bound
// Runner::validate enforces, and the number of attachees encodable in an
// SVSS-in-coin counter (round * kMaxN + j).
inline constexpr std::uint32_t kMaxN = 128;

struct ProcSet {
  static constexpr std::size_t kWords = (kMaxN + 63) / 64;
  std::uint64_t words[kWords] = {};

  // Inserts `i`; false if already present (or out of range).
  bool insert(int i) {
    if (i < 0 || i >= static_cast<int>(kMaxN)) return false;
    std::uint64_t& w = words[i >> 6];
    std::uint64_t bit = 1ULL << (i & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
    return true;
  }
  [[nodiscard]] bool contains(int i) const {
    if (i < 0 || i >= static_cast<int>(kMaxN)) return false;
    return ((words[i >> 6] >> (i & 63)) & 1) != 0;
  }
  [[nodiscard]] int count() const {
    int total = 0;
    for (std::uint64_t w : words) total += __builtin_popcountll(w);
    return total;
  }
  [[nodiscard]] bool subset_of(const ProcSet& other) const {
    for (std::size_t k = 0; k < kWords; ++k) {
      if ((words[k] & ~other.words[k]) != 0) return false;
    }
    return true;
  }
  // this \ other.
  [[nodiscard]] ProcSet minus(const ProcSet& other) const {
    ProcSet out;
    for (std::size_t k = 0; k < kWords; ++k) {
      out.words[k] = words[k] & ~other.words[k];
    }
    return out;
  }
  [[nodiscard]] ProcSet operator&(const ProcSet& other) const {
    ProcSet out;
    for (std::size_t k = 0; k < kWords; ++k) {
      out.words[k] = words[k] & other.words[k];
    }
    return out;
  }
  // Calls fn(i) for every member, in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t k = 0; k < kWords; ++k) {
      for (std::uint64_t w = words[k]; w != 0; w &= w - 1) {
        fn(static_cast<int>(k * 64) + __builtin_ctzll(w));
      }
    }
  }
};

}  // namespace svss
