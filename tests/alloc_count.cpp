#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {
bool g_counting = false;
std::uint64_t g_calls = 0;
std::size_t g_largest = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_calls;
    if (size > g_largest) g_largest = size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// gcc 12 treats the replaced operator new as an allocator of its own and
// flags the std::free below as a mismatched deallocation; the pair is
// malloc/free, so the diagnostic is a false positive.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11
#pragma GCC diagnostic pop
#endif

namespace svss::test {

AllocCounter::AllocCounter() {
  g_calls = 0;
  g_largest = 0;
  g_counting = true;
}

AllocCounter::~AllocCounter() { g_counting = false; }

std::uint64_t AllocCounter::calls() const { return g_calls; }

std::size_t AllocCounter::largest() const { return g_largest; }

}  // namespace svss::test
