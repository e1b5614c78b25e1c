// Almost-sure-termination sweep (the paper's Theorem 1, quantified over a
// strategy space): ABA must reach unanimous, valid honest decisions — and
// must *terminate* — for every adversary strategy in the catalogue, under
// every scheduler, across seeds.  A capped run (delivery budget exhausted)
// is a potential non-termination witness and fails the suite; so does any
// agreement or validity violation.
#include <gtest/gtest.h>

#include "sweep_common.hpp"

namespace svss {
namespace {

using adversary::StrategyKind;
using sweep::SweepSpec;

std::vector<StrategyKind> all_strategies() {
  return {std::begin(adversary::kAllStrategies),
          std::end(adversary::kAllStrategies)};
}

std::vector<SchedulerKind> all_schedulers() {
  return {std::begin(sweep::kAllSchedulers), std::end(sweep::kAllSchedulers)};
}

void expect_clean(const sweep::SweepReport& report) {
  EXPECT_EQ(report.safety_violations, 0)
      << "agreement/validity broken:\n" << report.to_json();
  EXPECT_EQ(report.capped_runs, 0)
      << "non-termination witness (capped run):\n" << report.to_json();
  EXPECT_EQ(report.undecided_runs, 0)
      << "quiescent but undecided:\n" << report.to_json();
}

// Coverage of the coin path: every strategy attacks in some cell where an
// honest agreement requested the SVSS coin and an honest process output it,
// and no coin-only strategy "attacks" a cell without such a coin.  The coin
// is dealt only when a round falls through to it, so a strategy aimed at
// the coin's VSS traffic has nothing to attack in a cell decided on votes.
void expect_coin_attacked(const sweep::SweepReport& report,
                          const std::vector<StrategyKind>& strategies) {
  for (auto strategy : strategies) {
    EXPECT_GT(report.attacked_count(strategy), 0)
        << adversary::strategy_name(strategy) << " never attacked:\n"
        << report.to_json();
    EXPECT_GT(report.coin_attacked_count(strategy), 0)
        << adversary::strategy_name(strategy)
        << " never attacked a coin an honest process requested:\n"
        << report.to_json();
  }
  EXPECT_EQ(report.attacked_without_coin, 0) << report.to_json();
}

// n = 4: the full SVSS-coin stack, t = 1 strategy-driven fault, all four
// strategies x all four schedulers x five seeds.  The seed list spans the
// input patterns (seed mod 4): mixed inputs stress the coin path,
// unanimous inputs make the validity counter falsifiable.  The two mixed
// seeds are ones whose random schedule falls through to the coin in round
// 1 (the fixed schedules decide round 1 on votes at n = 4).
TEST(TerminationSweep, FullStackSmall) {
  SweepSpec spec;
  spec.ns = {4};
  spec.strategies = all_strategies();
  spec.schedulers = all_schedulers();
  spec.seeds = {11, 22, 13, 16, 55};
  auto report = sweep::run_aba_termination_sweep(spec);
  ASSERT_EQ(report.total(), 4 * 4 * 5);
  expect_clean(report);
  // Coverage: every strategy must observably attack somewhere in the grid
  // (per-run non-vacuity is adversary_test's job; fast schedules can
  // legitimately decide before the coin is ever dealt).
  expect_coin_attacked(report, spec.strategies);
  sweep::maybe_write_report(report, "full-stack-n4");
}

// n = 7 with the *full* SVSS-coin stack — the tier-1 case the batched
// transport pays for (pre-batching this size lived in the stress lane
// only).  One random-schedule cell per strategy whose round 1 falls
// through to the coin: t = 2 strategy-driven faults over ~1.1-1.4M
// deliveries each.  (FIFO decides round 1 on votes at this size and never
// deals a coin.)  The wider grid at this size stays in the stress lane
// (stress_test.cpp runs it at n = 7 and n = 10).
TEST(TerminationSweep, FullStackMediumN7) {
  SweepSpec spec;
  spec.ns = {7};
  spec.full_stack_max_n = 7;  // the real SCC, not the ideal-coin stand-in
  spec.strategies = all_strategies();
  spec.schedulers = {SchedulerKind::kRandom};
  spec.seeds = {60};
  spec.max_deliveries = 100'000'000;
  auto report = sweep::run_aba_termination_sweep(spec);
  ASSERT_EQ(report.total(), 4);
  expect_clean(report);
  expect_coin_attacked(report, spec.strategies);
  sweep::maybe_write_report(report, "full-stack-n7-random");
}

// n = 7: t = 2 strategy-driven faults, ideal-coin abstraction (bench_aba's
// E6 convention: the SCC is exercised at small n, the agreement skeleton
// at scale).  VSS-targeting strategies degrade to honest behaviour here —
// the sweep still checks the skeleton against split-brain voting and the
// cabal's coordinated crash — so vacuous cells are expected and allowed.
TEST(TerminationSweep, IdealCoinMedium) {
  SweepSpec spec;
  spec.ns = {7};
  spec.strategies = all_strategies();
  spec.schedulers = all_schedulers();
  spec.seeds = {101, 202, 303, 404, 505};
  auto report = sweep::run_aba_termination_sweep(spec);
  ASSERT_EQ(report.total(), 4 * 4 * 5);
  expect_clean(report);
  sweep::maybe_write_report(report, "ideal-coin-n7");
}

// Mixed fleet: the lower half of the processes keep per-session MW
// framing while the upper half — including the adversary slot (top id) —
// coalesce their child traffic into group envelopes.  Inbound envelopes
// are understood unconditionally, so the halves must interoperate: every
// cell terminates with clean verdicts even when the equivocating dealer
// plays its split-brain game *in the batched role* (its two honest-code
// forks emit kMwBatch* envelopes carrying forked polynomials).
TEST(TerminationSweep, MixedMwFleetWithBatchedAdversary) {
  SweepSpec spec;
  spec.ns = {4};
  spec.full_stack_max_n = 4;  // full SVSS-coin stack: MW children exist
  spec.strategies = {StrategyKind::kEquivocatingDealer};
  spec.schedulers = all_schedulers();
  spec.seeds = {71, 72};
  spec.configure = [](RunnerConfig& cfg) {
    // transport.mw_children defaults to kBatched; un-batch the lower half
    // so the run mixes both framings (the adversary, at slot n-1, stays in
    // the batched half).
    for (int i = 0; i < cfg.n / 2; ++i) {
      cfg.transport.mw_children_override[i] = Framing::kPerSession;
    }
  };
  auto report = sweep::run_aba_termination_sweep(spec);
  ASSERT_EQ(report.total(), 4 * 2);
  expect_clean(report);
  // Seed 72's random schedule falls through to the coin, so the forks deal
  // their split-brain coin shares through the mixed framing.
  expect_coin_attacked(report, spec.strategies);
  sweep::maybe_write_report(report, "mixed-mw-fleet-n4");
}

// The max_deliveries guard must be a first-class outcome: a capped run
// reports RunStatus::kDeliveryCap *and* surfaces the cap in Metrics, so
// sweeps can count capped runs instead of silently truncating.
TEST(TerminationSweep, CappedRunIsSurfacedInMetrics) {
  RunnerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = 7;
  cfg.max_deliveries = 50;   // below what one agreement round needs
  cfg.warn_on_cap = false;   // the flag, not the stderr line, is under test
  Runner r(cfg);
  auto res = r.run_aba({0, 1, 0, 1}, CoinMode::kSvss);
  ASSERT_EQ(res.status, RunStatus::kDeliveryCap);
  EXPECT_TRUE(res.metrics.capped);
  EXPECT_EQ(res.metrics.deliveries_at_cap, 50u);
  EXPECT_NE(res.metrics.summary().find("CAPPED"), std::string::npos);
}

}  // namespace
}  // namespace svss
