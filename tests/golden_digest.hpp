// FNV-1a digests of whole runs, for golden tests: a cell folds everything
// its runs show into one 64-bit hash, recorded once as a constant.  A
// rewrite that must not change behaviour then has to leave every cell
// byte-identical.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace svss::test {

class Fnv {
 public:
  void put(std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Every field of every logged event, in log order.
inline void fold_events(Fnv& d, const EventLog& log) {
  for (const Event& e : log.events()) {
    d.put(static_cast<std::uint64_t>(e.kind), 1);
    d.put(static_cast<std::uint32_t>(e.who), 4);
    d.put(static_cast<std::uint32_t>(e.other), 4);
    d.put(static_cast<std::uint64_t>(e.sid.path), 1);
    d.put(e.sid.variant, 1);
    d.put(static_cast<std::uint16_t>(e.sid.owner), 2);
    d.put(static_cast<std::uint16_t>(e.sid.moderator), 2);
    d.put(static_cast<std::uint16_t>(e.sid.svss_dealer), 2);
    d.put(e.sid.counter, 4);
    d.put(e.sid.instance, 4);
    d.put(static_cast<std::uint64_t>(e.value), 8);
    d.put(e.has_value ? 1 : 0, 1);
  }
}

}  // namespace svss::test
