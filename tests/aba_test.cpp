// Protocol tests: asynchronous Byzantine agreement (Section 5, Theorem 1).
//
// Agreement: no two honest processes decide differently — ever, under any
// schedule or fault mix we can throw at it.  Validity: a unanimous honest
// input is the only possible decision.  Termination: all honest processes
// decide (almost surely; each run is a sample).
#include <gtest/gtest.h>

#include <string>

#include "core/runner.hpp"
#include "golden_digest.hpp"

namespace svss {
namespace {

RunnerConfig cfg(int n, int t, std::uint64_t seed,
                 SchedulerKind sched = SchedulerKind::kRandom) {
  RunnerConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.scheduler = sched;
  return c;
}

// --- Validity ----------------------------------------------------------
TEST(Aba, UnanimousInputDecidesThatValue) {
  for (int v : {0, 1}) {
    Runner r(cfg(4, 1, 41 + static_cast<std::uint64_t>(v)));
    auto res = r.run_aba({v, v, v, v}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided);
    EXPECT_TRUE(res.agreed);
    EXPECT_EQ(res.value, v);
  }
}

TEST(Aba, UnanimousHonestInputWithByzantineMinority) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[3] = ByzConfig{ByzKind::kBitFlip, 0, 0.2};
    Runner r(c);
    auto res = r.run_aba({1, 1, 1, 0}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << seed;
    EXPECT_TRUE(res.agreed) << seed;
    EXPECT_EQ(res.value, 1) << seed;  // honest inputs are unanimous
  }
}

// --- Agreement + termination, mixed inputs -----------------------------
TEST(Aba, MixedInputsAgree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Runner r(cfg(4, 1, 100 + seed));
    auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << seed;
    EXPECT_TRUE(res.agreed) << seed;
  }
}

TEST(Aba, MixedInputsUnderHostileSchedulers) {
  for (auto sched : {SchedulerKind::kFifo, SchedulerKind::kLifo,
                     SchedulerKind::kDelayLastHonest}) {
    Runner r(cfg(4, 1, 43, sched));
    auto res = r.run_aba({1, 0, 1, 0}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided);
    EXPECT_TRUE(res.agreed);
  }
}

TEST(Aba, SilentFaultMixedInputs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto c = cfg(4, 1, 200 + seed);
    c.faults[2] = ByzConfig{ByzKind::kSilent};
    Runner r(c);
    auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided) << seed;
    EXPECT_TRUE(res.agreed) << seed;
  }
}

TEST(Aba, ActiveByzantineFaultNeverBreaksAgreement) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto kind : {ByzKind::kEquivocate, ByzKind::kWrongRecon,
                      ByzKind::kBitFlip}) {
      auto c = cfg(4, 1, 300 + seed);
      c.faults[3] = ByzConfig{kind, 200, 0.15};
      Runner r(c);
      auto res = r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
      ASSERT_TRUE(res.all_decided)
          << "seed " << seed << " kind " << static_cast<int>(kind);
      EXPECT_TRUE(res.agreed)
          << "seed " << seed << " kind " << static_cast<int>(kind);
    }
  }
}

// n = 7, t = 2 with two mixed faults, full SVSS coin (heavier run).
TEST(Aba, SevenProcessesTwoFaults) {
  auto c = cfg(7, 2, 51);
  c.faults[5] = ByzConfig{ByzKind::kSilent};
  c.faults[6] = ByzConfig{ByzKind::kWrongRecon};
  Runner r(c);
  auto res = r.run_aba({0, 1, 0, 1, 0, 1, 0}, CoinMode::kSvss);
  ASSERT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
}

// --- Ideal-coin mode: the SCC abstraction at larger scales -------------
class AbaIdealSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AbaIdealSweep, AgreementAcrossSizesAndSeeds) {
  auto [n, seed] = GetParam();
  int t = (n - 1) / 3;
  auto c = cfg(n, t, seed);
  // Last t processes byzantine (bit-flipping).
  for (int i = n - t; i < n; ++i) {
    c.faults[i] = ByzConfig{ByzKind::kBitFlip, 0, 0.2};
  }
  Runner r(c);
  std::vector<int> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
  auto res = r.run_aba(inputs, CoinMode::kIdealCommon);
  ASSERT_TRUE(res.all_decided) << "n=" << n << " seed=" << seed;
  EXPECT_TRUE(res.agreed) << "n=" << n << " seed=" << seed;
  EXPECT_TRUE(res.value == 0 || res.value == 1);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, AbaIdealSweep,
    ::testing::Combine(::testing::Values(4, 7, 10, 13),
                       ::testing::Values(1u, 2u, 3u, 4u)));

// Decision rounds stay small when the coin is common: expected O(1) good
// rounds to converge.
TEST(Aba, IdealCoinDecidesInFewRounds) {
  std::uint32_t worst = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Runner r(cfg(7, 2, 700 + seed));
    auto res = r.run_aba({0, 1, 0, 1, 0, 1, 0}, CoinMode::kIdealCommon);
    ASSERT_TRUE(res.all_decided);
    worst = std::max(worst, res.max_round);
  }
  EXPECT_LE(worst, 12u);
}

// Honest processes decide within one round of each other (the CONF
// propagation argument).
TEST(Aba, DecisionRoundsWithinOne) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Runner r(cfg(4, 1, 800 + seed));
    auto res = r.run_aba({0, 1, 1, 0}, CoinMode::kSvss);
    ASSERT_TRUE(res.all_decided);
    std::uint32_t lo = ~0u;
    std::uint32_t hi = 0;
    for (const auto& [i, round] : res.decision_rounds) {
      lo = std::min(lo, round);
      hi = std::max(hi, round);
    }
    EXPECT_LE(hi - lo, 1u) << seed;
  }
}

// --- Golden behaviour ---------------------------------------------------
// Each cell runs agreement under every scheduler kind and two seeds and
// folds everything the runs show into one FNV-1a digest: status, every
// honest decision and its round, the wire counters (per message type too)
// and every field of every logged event.  The constants were recorded
// before the round state moved to bitset tallies; a CPU-only rewrite of
// AbaSession must leave every cell byte-identical.
struct GoldenCell {
  const char* name;
  int n;
  int t;
  CoinMode mode;
  std::map<int, ByzConfig> faults;
  // 0: one run_aba instance with inputs i % 2.  Otherwise this many
  // concurrent instances through submit/run_submitted, instance k's
  // input at process i being (i + k) % 2.
  std::uint32_t instances;
  const char* digest;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

void fold_metrics(test::Fnv& d, const Metrics& m) {
  d.put(m.packets_sent, 8);
  d.put(m.bytes_sent, 8);
  d.put(m.packets_delivered, 8);
  d.put(m.rb_transport_packets, 8);
  d.put(m.direct_packets, 8);
  d.put(m.max_depth, 8);
  for (std::size_t k = 0; k < Metrics::kTypeSlots; ++k) {
    d.put(m.packets_by_type[k], 8);
    d.put(m.bytes_by_type[k], 8);
  }
}

void fold_decisions(test::Fnv& d, const std::map<int, int>& decisions) {
  for (const auto& [i, v] : decisions) {
    d.put(static_cast<std::uint32_t>(i), 4);
    d.put(static_cast<std::uint32_t>(v), 4);
  }
}

std::string golden_digest(const GoldenCell& cell) {
  test::Fnv d;
  for (auto sched : {SchedulerKind::kFifo, SchedulerKind::kRandom,
                     SchedulerKind::kLifo, SchedulerKind::kDelayLastHonest}) {
    // Under the random scheduler, seeds 1 and 8 take the n = 4 runs past
    // round 1 and into the coin.
    for (std::uint64_t seed : {1u, 8u}) {
      RunnerConfig c = cfg(cell.n, cell.t, seed, sched);
      c.faults = cell.faults;
      Runner r(c);
      if (cell.instances == 0) {
        std::vector<int> inputs;
        for (int i = 0; i < cell.n; ++i) inputs.push_back(i % 2);
        auto res = r.run_aba(inputs, cell.mode);
        EXPECT_TRUE(res.all_decided) << cell.name;
        EXPECT_TRUE(res.agreed) << cell.name;
        d.put(static_cast<std::uint64_t>(res.status), 1);
        fold_decisions(d, res.decisions);
        for (const auto& [i, round] : res.decision_rounds) {
          d.put(static_cast<std::uint32_t>(i), 4);
          d.put(round, 4);
        }
        fold_metrics(d, res.metrics);
      } else {
        for (std::uint32_t k = 0; k < cell.instances; ++k) {
          std::vector<int> inputs;
          for (int i = 0; i < cell.n; ++i) {
            inputs.push_back((i + static_cast<int>(k)) % 2);
          }
          r.submit(k, std::move(inputs));
        }
        auto res = r.run_submitted(cell.mode);
        EXPECT_TRUE(res.all_decided) << cell.name;
        EXPECT_TRUE(res.agreed) << cell.name;
        d.put(static_cast<std::uint64_t>(res.status), 1);
        for (const auto& [k, decisions] : res.decisions) {
          d.put(k, 4);
          fold_decisions(d, decisions);
        }
        fold_metrics(d, res.metrics);
      }
      test::fold_events(d, r.log());
    }
  }
  return d.hex();
}

const GoldenCell kGoldenCells[] = {
    {"ideal_n4", 4, 1, CoinMode::kIdealCommon, {}, 0, "d286a55f31febaac"},
    {"ideal_n7", 7, 2, CoinMode::kIdealCommon, {}, 0, "97e52d3784ca3fb5"},
    {"local_n4", 4, 1, CoinMode::kLocal, {}, 0, "1d95b42cba05a66c"},
    {"local_n7", 7, 2, CoinMode::kLocal, {}, 0, "7ec611df11b8df34"},
    {"svss_n4", 4, 1, CoinMode::kSvss, {}, 0, "a04592401c6300ee"},
    // Process 3 flips the field values of its shares and reconstructions,
    // so coin rounds see shunning and wrong recon values.
    {"svss_bitflip_n4", 4, 1, CoinMode::kSvss,
     {{3, ByzConfig{ByzKind::kBitFlip, 0, 0.2}}}, 0, "91bde3741e5ba5fc"},
    // The multiplexed-service shape: concurrent instances whose votes
    // share batched envelopes.
    {"ideal_16_instances_n7", 7, 2, CoinMode::kIdealCommon, {}, 16, "23dd29e08288731b"},
};

class AbaGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(AbaGolden, MatchesRecordedDigest) {
  const GoldenCell& cell = GetParam();
  EXPECT_EQ(golden_digest(cell), cell.digest) << cell.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, AbaGolden, ::testing::ValuesIn(kGoldenCells),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace svss
