#include "search/coverage.hpp"

#include <algorithm>

#include "common/popcount.hpp"

namespace svss::search {

namespace {

// SplitMix64 finalizer: cheap avalanche so structured feature tuples
// spread across the bitmap.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t feature(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) {
  return mix(mix(mix(tag ^ (a << 1)) ^ b) ^ c);
}

// Compact wire-type code for a delivered packet: application MsgType for
// direct packets, the broadcast slot type + RB phase for transport steps.
std::uint16_t wire_code(const Packet& pkt) {
  if (!pkt.is_rb) return static_cast<std::uint16_t>(pkt.app.type);
  return static_cast<std::uint16_t>(
      0x100u | (static_cast<std::uint16_t>(pkt.bid.slot) << 2) |
      static_cast<std::uint16_t>(pkt.phase));
}

}  // namespace

bool CoverageMap::mark(std::uint64_t key) {
  std::uint64_t bit = key & (kBits - 1);
  std::uint64_t& word = words_[bit >> 6];
  std::uint64_t mask = 1ULL << (bit & 63);
  if ((word & mask) != 0) return false;
  word |= mask;
  return true;
}

std::size_t CoverageMap::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) {
    total += static_cast<std::size_t>(popcount64(w));
  }
  return total;
}

std::size_t CoverageMap::merge(const CoverageMap& other) {
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t add = other.words_[i] & ~words_[i];
    fresh += static_cast<std::size_t>(popcount64(add));
    words_[i] |= add;
  }
  return fresh;
}

std::size_t CoverageMap::novel_bits(const CoverageMap& other) const {
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    fresh += static_cast<std::size_t>(
        popcount64(other.words_[i] & ~words_[i]));
  }
  return fresh;
}

RunCoverage::RunCoverage(int n)
    : prev_code_(static_cast<std::size_t>(std::max(n, 1)), 0) {}

void RunCoverage::on_delivery(const PendingInfo& info, const Packet& pkt) {
  std::uint16_t code = wire_code(pkt);
  auto to = static_cast<std::size_t>(info.to);
  if (to < prev_code_.size()) {
    map_.mark(feature(0xD1, static_cast<std::uint64_t>(info.to),
                      prev_code_[to], code));
    prev_code_[to] = code;
  }
  // Channel-type edge, receiver-independent: which kinds of traffic
  // immediately feed which processes' state machines.
  map_.mark(feature(0xD2, static_cast<std::uint64_t>(info.from), code, 0));
}

Engine::DeliveryObserver RunCoverage::observer() {
  return [this](const PendingInfo& info, const Packet& pkt) {
    on_delivery(info, pkt);
  };
}

void RunCoverage::note_events(const EventLog& log) {
  std::uint64_t prev = 0xFF;
  for (const Event& e : log.events()) {
    auto kind = static_cast<std::uint64_t>(e.kind);
    map_.mark(feature(0xE1, kind, 0, 0));          // phase reached at all
    map_.mark(feature(0xE2, prev, kind, 0));       // phase-transition bigram
    prev = kind;
    if (e.kind == EventKind::kAbaDecide) {
      // Rounds-to-decide, bucketed per decider: the fitness signal's
      // coverage shadow (decide-at-round-7 is a different behaviour than
      // decide-at-round-1 even if the round maximum ends up equal).
      std::uint64_t bucket = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(e.other), 32);
      map_.mark(feature(0xE3, static_cast<std::uint64_t>(e.who), bucket, 0));
    }
  }
}

}  // namespace svss::search
