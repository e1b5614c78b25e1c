// Counts calls to the global operator new, for tests that pin allocation
// behaviour.  Linking alloc_count.cpp into a test binary replaces the
// global operator new/delete with malloc-backed versions that count while
// an AllocCounter is alive.  Single-threaded use only; scopes do not nest.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svss::test {

class AllocCounter {
 public:
  // Starts counting from zero.
  AllocCounter();
  // Stops counting.
  ~AllocCounter();
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

  // operator new calls since construction.
  [[nodiscard]] std::uint64_t calls() const;
  // The largest single request since construction, in bytes.
  [[nodiscard]] std::size_t largest() const;
};

}  // namespace svss::test
