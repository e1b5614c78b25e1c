// Allocation budget of the paper's coin: operator new calls per decided
// agreement instance at n = 4 with the shunning SVSS coin, divided inputs
// and the default batched framing.  In the simulator the count is a pure
// function of the seed, so the budget is exact work, not a timing.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_count.hpp"
#include "core/runner.hpp"

namespace svss {
namespace {

// Half of the 59,361 calls per decision these seeds cost before the
// delivery path reused its buffers (RB values, batch unpack, RB accept,
// serialization, DMM bookkeeping).
constexpr std::uint64_t kBudgetPerDecision = 29'680;

TEST(AllocBudget, SvssCoinAgreementAtN4) {
  std::uint64_t calls = 0;
  std::uint64_t decisions = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunnerConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    cfg.seed = seed;
    Runner r(cfg);
    Runner::AbaResult res;
    {
      test::AllocCounter counter;
      res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
      calls += counter.calls();
    }
    ASSERT_TRUE(res.all_decided) << seed;
    ASSERT_TRUE(res.agreed) << seed;
    ++decisions;
  }
  const std::uint64_t per_decision = calls / decisions;
  RecordProperty("allocs_per_decision", static_cast<int>(per_decision));
  EXPECT_LE(per_decision, kBudgetPerDecision);
}

}  // namespace
}  // namespace svss
