// Differential equivalence across wire framings (tests/equivalence_common).
//
// Two batching clients change the protocol's framing without touching
// its content: coin-round dealing and the MW child traffic (src/batch/).
// The harness in equivalence_common.hpp states what "without touching
// content" means — identical reconstructed values for honest dealers,
// matching clean verdicts, sound shunning, deterministic replay — over the
// full seeds x adversary-strategies x SchedulerKinds grid.  This file
// instantiates it for the three variant pairs: MW coalescing alone,
// coin-dealing batching alone, and the combined (default) mode, each
// against the fully per-session framing.
#include <gtest/gtest.h>

#include "equivalence_common.hpp"

namespace svss {
namespace {

using equivalence::Variant;
using equivalence::VariantPair;

Variant unbatched() {
  return Variant{"unbatched", [](RunnerConfig& cfg) {
                   cfg.transport.coin_dealing = Framing::kPerSession;
                   cfg.transport.mw_children = Framing::kPerSession;
                 }};
}

Variant mw_only() {
  return Variant{"mw-batched", [](RunnerConfig& cfg) {
                   cfg.transport.coin_dealing = Framing::kPerSession;
                   cfg.transport.mw_children = Framing::kBatched;
                 }};
}

Variant coin_only() {
  return Variant{"coin-batched", [](RunnerConfig& cfg) {
                   cfg.transport.coin_dealing = Framing::kBatched;
                   cfg.transport.mw_children = Framing::kPerSession;
                 }};
}

Variant combined() {
  return Variant{"combined", [](RunnerConfig& cfg) {
                   cfg.transport.coin_dealing = Framing::kBatched;
                   cfg.transport.mw_children = Framing::kBatched;
                 }};
}

// --- MW group coalescing alone -------------------------------------
TEST(BatchEquivalence, MwCoalescingCoinValuesAndVerdictsMatch) {
  equivalence::run_coin_equivalence(VariantPair{unbatched(), mw_only()});
}

TEST(BatchEquivalence, MwCoalescingAbaVerdictsMatch) {
  equivalence::run_aba_equivalence(VariantPair{unbatched(), mw_only()});
}

// --- coin-dealing batching alone (the PR-4 property, re-based) ------
TEST(BatchEquivalence, CoinDealingCoinValuesAndVerdictsMatch) {
  equivalence::run_coin_equivalence(VariantPair{unbatched(), coin_only()});
}

TEST(BatchEquivalence, CoinDealingAbaVerdictsMatch) {
  equivalence::run_aba_equivalence(VariantPair{unbatched(), coin_only()});
}

// --- combined mode (the production default) -------------------------
TEST(BatchEquivalence, CombinedCoinValuesAndVerdictsMatch) {
  equivalence::run_coin_equivalence(VariantPair{unbatched(), combined()});
}

TEST(BatchEquivalence, CombinedAbaVerdictsMatch) {
  equivalence::run_aba_equivalence(VariantPair{unbatched(), combined()});
}

// --- replay determinism of every framing ----------------------------
// The engine's byte-identical-replay guarantee must extend to each
// transport: a framing is a pure function of the config.
TEST(BatchEquivalence, EveryFramingReplaysDeterministically) {
  for (const Variant& v :
       {unbatched(), mw_only(), coin_only(), combined()}) {
    equivalence::run_replay_determinism(v);
  }
}

}  // namespace
}  // namespace svss
