// Deterministic, splittable random number generation.
//
// Every run of the simulator is reproducible from a single 64-bit seed.
// Each process (and each protocol instance inside a process) derives its own
// independent stream by splitting, so message scheduling never perturbs the
// values a process draws.
#pragma once

#include <cstdint>

#include "common/field.hpp"

namespace svss {

// SplitMix64-based generator: tiny state, good avalanche, cheap to split.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ULL) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound).  bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    std::uint64_t limit = ~0ULL - (~0ULL % bound);
    std::uint64_t x;
    do {
      x = next_u64();
    } while (x >= limit);
    return x % bound;
  }

  bool next_bool() { return (next_u64() & 1) != 0; }

  // Uniform field element.
  Fp next_field() {
    return Fp(static_cast<std::int64_t>(next_below(Fp::kModulus)));
  }

  double next_unit() {  // uniform in [0,1)
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Skips the next `count` outputs in O(1): the state is a counter.
  void discard(std::uint64_t count) {
    state_ += count * 0x9E3779B97F4A7C15ULL;
  }

  // Derives an independent stream; `salt` distinguishes sibling splits.
  [[nodiscard]] Rng split(std::uint64_t salt) {
    std::uint64_t s = next_u64();
    return Rng(s ^ (salt * 0xD1B54A32D192ED03ULL + 0x8CB92BA72F3D8DD7ULL));
  }

 private:
  std::uint64_t state_;
};

}  // namespace svss
