// Allocation budgets: operator new calls per decided agreement instance
// with the default batched framing, for the paper's coin (n = 4, shunning
// SVSS coin, divided inputs) and for the multiplexed-service shape (n = 7,
// 16 concurrent ideal-coin instances).  In the simulator the count is a
// pure function of the seed, so a budget is exact work, not a timing.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_count.hpp"
#include "core/runner.hpp"

namespace svss {
namespace {

// Half of the 59,361 calls per decision these seeds cost before the
// delivery path reused its buffers (RB values, batch unpack, RB accept,
// serialization, DMM bookkeeping).
constexpr std::uint64_t kSvssBudgetPerDecision = 29'680;
// A third of the 1,212 calls per decided instance these seeds cost while
// AbaSession kept its round state in node containers and built every vote
// once per recipient.
constexpr std::uint64_t kIdealBudgetPerDecision = 404;

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
  EXPECT_LE(per_decision, kSvssBudgetPerDecision);
}

TEST(AllocBudget, IdealCoinAgreementAtN7) {
  constexpr int kN = 7;
  constexpr std::uint32_t kInstances = 16;
  std::uint64_t calls = 0;
  std::uint64_t decisions = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunnerConfig cfg;
    cfg.n = kN;
    cfg.t = 2;
    cfg.seed = seed;
    Runner r(cfg);
    for (std::uint32_t k = 0; k < kInstances; ++k) {
      std::vector<int> inputs;
      for (int i = 0; i < kN; ++i) {
        inputs.push_back((i + static_cast<int>(k)) % 2);
      }
      r.submit(k, std::move(inputs));
    }
    Runner::MultiAbaResult res;
    {
      test::AllocCounter counter;
      res = r.run_submitted(CoinMode::kIdealCommon);
      calls += counter.calls();
    }
    ASSERT_TRUE(res.all_decided) << seed;
    ASSERT_TRUE(res.agreed) << seed;
    decisions += kInstances;
  }
  const std::uint64_t per_decision = calls / decisions;
  RecordProperty("allocs_per_decision", static_cast<int>(per_decision));
  EXPECT_LE(per_decision, kIdealBudgetPerDecision);
}

}  // namespace
}  // namespace svss
