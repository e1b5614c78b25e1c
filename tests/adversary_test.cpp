// Per-strategy tests for the protocol-level adversary subsystem
// (src/adversary/): each strategy runs in isolation inside a full Runner
// experiment, honest processes must still reach their goal, and the
// strategy's deviation must be *observably emitted* (no vacuous passes —
// a test that never exercises the attack proves nothing).
#include "adversary/adversary.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"

namespace svss {
namespace {

using adversary::AdversaryConfig;
using adversary::StrategyKind;

std::vector<int> mixed_inputs(int n) {
  std::vector<int> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
  return inputs;
}

RunnerConfig base_config(int n, std::uint64_t seed) {
  RunnerConfig cfg;
  cfg.n = n;
  cfg.t = (n - 1) / 3;
  cfg.seed = seed;
  cfg.max_deliveries = 20'000'000;
  return cfg;
}

// Some honest process output a coin round.  The agreement deals the SVSS
// coin only when a round falls through to it, so an attack on the coin's
// VSS traffic is only meaningful in runs where this holds.
bool honest_coin_output(Runner& r) {
  for (const Event& e : r.engine().log().events()) {
    if (e.kind == EventKind::kCoinOutput && r.is_honest(e.who)) return true;
  }
  return false;
}

void expect_honest_decision(Runner& r, const Runner::AbaResult& res) {
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  bool justified = false;
  for (int i : r.honest_ids()) {
    if (i % 2 == res.value) justified = true;  // mixed_inputs pattern
  }
  EXPECT_TRUE(justified) << "decision " << res.value
                         << " not justified by any honest input";
  EXPECT_FALSE(res.metrics.capped);
}

// ------------------------------------------------------------------
// EquivocatingDealer
// ------------------------------------------------------------------
TEST(EquivocatingDealer, HonestProcessesDecideDespiteSplitBrain) {
  auto cfg = base_config(4, 91);
  adversary::install_adversary(
      cfg, 3, AdversaryConfig{StrategyKind::kEquivocatingDealer, 0});
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(4), CoinMode::kSvss);
  expect_honest_decision(r, res);

  const StrategyStats& st = r.adversary(3)->stats();
  EXPECT_GT(st.inbound, 0u);
  // Both forks actually spoke: fork 1's traffic (the equivocation) was
  // emitted, and the partition filter really suppressed cross-half sends.
  EXPECT_GT(st.forked, 0u);
  EXPECT_GT(st.emitted, st.forked);
  EXPECT_GT(st.withheld, 0u);
}

TEST(EquivocatingDealer, SlotIsNotAnHonestNode) {
  auto cfg = base_config(4, 92);
  adversary::install_adversary(
      cfg, 3, AdversaryConfig{StrategyKind::kEquivocatingDealer, 0});
  Runner r(cfg);
  EXPECT_FALSE(r.is_honest(3));
  EXPECT_NE(r.adversary(3), nullptr);
  EXPECT_EQ(r.adversary(0), nullptr);
  EXPECT_STREQ(r.adversary(3)->strategy_name(), "equivocating-dealer");
  EXPECT_THROW(r.node(3), std::logic_error);
}

// As the *top-level SVSS dealer* the split-brain process deals two
// distinct bivariate polynomials, one per half.  With a faulty dealer the
// share phase need not complete — what must survive is safety: honest
// processes never reconstruct conflicting values in a completed session.
// Here we only pin down that the dealer's forked dealings actually go out
// and the run stays bounded (termination of the harness, not the session).
TEST(EquivocatingDealer, ForkedDealingsAreEmitted) {
  auto cfg = base_config(4, 93);
  cfg.max_deliveries = 300'000;
  cfg.warn_on_cap = false;  // a stalled faulty-dealer session is expected
  adversary::install_adversary(
      cfg, 0, AdversaryConfig{StrategyKind::kEquivocatingDealer, 0});
  Runner r(cfg);
  auto res = r.run_svss(Fp(1234), /*dealer=*/0, /*reconstruct=*/false);
  const StrategyStats& st = r.adversary(0)->stats();
  EXPECT_GT(st.forked, 0u);
  EXPECT_GT(st.withheld, 0u);
  // Honest processes must never be *wrong*, though they may be stuck.
  for (int i : r.honest_ids()) {
    const SvssSession* s = r.node(i).find_svss(svss_top_id(1, 0));
    if (s != nullptr && s->has_output()) {
      ADD_FAILURE() << "reconstruct output without reconstruct phase";
    }
  }
  (void)res;
}

// ------------------------------------------------------------------
// AdaptiveShunAware
// ------------------------------------------------------------------
// Whether a given seed's run ever reaches the reconstruct phase (where
// this strategy's attack surface lives) depends on the schedule — a round
// decided on votes never deals, let alone reconstructs, a coin.  Honest
// decisions must hold for *every* seed; the full attack chain (corrupt ->
// accused -> hide) must fire for *some* seed in a small window, or the
// test is vacuous.  The window starts at a seed whose round 1 falls
// through to the coin.
TEST(AdaptiveShunAware, CorruptsReconUntilAccusedThenHides) {
  bool chain_observed = false;
  for (std::uint64_t seed = 50; seed < 60 && !chain_observed; ++seed) {
    auto cfg = base_config(4, seed);
    adversary::install_adversary(
        cfg, 3, AdversaryConfig{StrategyKind::kAdaptiveShunAware, 0});
    Runner r(cfg);
    auto res = r.run_aba(mixed_inputs(4), CoinMode::kSvss);
    expect_honest_decision(r, res);

    const StrategyStats& st = r.adversary(3)->stats();
    bool accused = false;
    for (const auto& [who, whom] : res.shun_pairs) {
      if (whom == 3) accused = true;
      (void)who;
    }
    // Corrupted recon broadcasts went out, an honest process accused the
    // slot, and the strategy saw it and switched to honest behaviour.
    chain_observed = st.mutated > 0 && accused && st.adapted &&
                     honest_coin_output(r);
  }
  EXPECT_TRUE(chain_observed)
      << "attack chain (mutate -> accusation -> adapt) never fired";
}

// ------------------------------------------------------------------
// WithholdingModerator
// ------------------------------------------------------------------
TEST(WithholdingModerator, CoinRoundSurvivesWithheldMsets) {
  auto cfg = base_config(4, 55);
  adversary::install_adversary(
      cfg, 3, AdversaryConfig{StrategyKind::kWithholdingModerator, 0});
  Runner r(cfg);
  auto res = r.run_coin(1);
  EXPECT_TRUE(res.all_output);
  EXPECT_TRUE(res.agreed);
  EXPECT_FALSE(res.metrics.capped);

  const StrategyStats& st = r.adversary(3)->stats();
  EXPECT_GT(st.withheld, 0u) << "no M-set was ever withheld (vacuous run)";
  EXPECT_GT(st.emitted, 0u) << "slot was silent, not merely withholding";
}

// Seed 58's round 1 falls through to the coin, so M-sets exist to
// withhold.
TEST(WithholdingModerator, AgreementSurvivesWithheldMsets) {
  auto cfg = base_config(4, 58);
  adversary::install_adversary(
      cfg, 3, AdversaryConfig{StrategyKind::kWithholdingModerator, 0});
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(4), CoinMode::kSvss);
  expect_honest_decision(r, res);
  EXPECT_GT(r.adversary(3)->stats().withheld, 0u);
  EXPECT_TRUE(honest_coin_output(r)) << "no coin round was used";
}

// ------------------------------------------------------------------
// ColludingCabal
// ------------------------------------------------------------------
TEST(ColludingCabal, SharedViewCoordinatesTwoMembers) {
  auto cfg = base_config(7, 40);
  adversary::install_cabal(cfg, {5, 6});
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(7), CoinMode::kIdealCommon);
  expect_honest_decision(r, res);
  // Both members act; the shared view exists (members exempt each other,
  // so the lie is consistent inside the cabal).
  EXPECT_GT(r.adversary(5)->stats().inbound, 0u);
  EXPECT_GT(r.adversary(6)->stats().inbound, 0u);
}

TEST(ColludingCabal, PerturbsLowerHalfInFullStackRun) {
  auto cfg = base_config(4, 41);
  adversary::install_cabal(cfg, {3});
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(4), CoinMode::kSvss);
  expect_honest_decision(r, res);
  EXPECT_GT(r.adversary(3)->stats().mutated, 0u)
      << "cabal never presented a false view (vacuous run)";
  EXPECT_TRUE(honest_coin_output(r)) << "no coin round was used";
}

TEST(ColludingCabal, CoordinatedSilenceIsSimultaneous) {
  auto cfg = base_config(7, 42);
  adversary::install_cabal(cfg, {5, 6},
                           AdversaryConfig{StrategyKind::kColludingCabal,
                                           /*silence_after=*/100});
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(7), CoinMode::kIdealCommon);
  expect_honest_decision(r, res);
  // Both members hit the shared clock and fell silent.
  EXPECT_GT(r.adversary(5)->stats().withheld, 0u);
  EXPECT_GT(r.adversary(6)->stats().withheld, 0u);
}

// ------------------------------------------------------------------
// EquivocatingAcsProposer — the catalogue's ACS-targeted strategy
// ------------------------------------------------------------------
// Split-brain at the common-subset layer: the two forks propose different
// bytes, one per half of the system.  Honest processes must still agree on
// one subset; if the proposer's slot made it into the subset, every honest
// process must hold the *same* proposal bytes for it (RB delivered exactly
// one of the two stories, or none — never both).
TEST(EquivocatingAcsProposer, HonestSubsetAgreesDespiteForkedProposals) {
  auto cfg = base_config(4, 210);
  adversary::install_adversary(
      cfg, 3, AdversaryConfig{StrategyKind::kEquivocatingAcsProposer, 0});
  Runner r(cfg);
  std::vector<Bytes> proposals;
  for (int i = 0; i < 4; ++i) {
    proposals.push_back(Bytes{static_cast<std::uint8_t>(0x10 + i)});
  }
  auto res = r.run_acs(proposals);
  EXPECT_TRUE(res.all_output);
  EXPECT_TRUE(res.agreed) << "honest subsets diverged";
  EXPECT_FALSE(res.metrics.capped);
  ASSERT_FALSE(res.outputs.empty());
  // The subset must contain every honest proposal unchanged; slot 3's
  // entry, if present, is one consistent choice everywhere (agreement on
  // the full output map is already asserted above).
  const auto& subset = res.outputs.begin()->second;
  EXPECT_GE(static_cast<int>(subset.size()), 3);
  for (const auto& [member, blob] : subset) {
    if (member < 3) EXPECT_EQ(blob, proposals[static_cast<std::size_t>(member)]);
  }

  // Non-vacuity: both forks spoke, the partition suppressed cross-half
  // traffic, and the forked proposal broadcast was actually rewritten.
  const StrategyStats& st = r.adversary(3)->stats();
  EXPECT_GT(st.forked, 0u);
  EXPECT_GT(st.withheld, 0u);
  EXPECT_GT(st.mutated, 0u) << "fork 1 never emitted a diverging proposal";
}

// The strategy name is reachable through the factory (catalogue hygiene).
TEST(EquivocatingAcsProposer, FactoryAndNameWired) {
  auto cfg = base_config(4, 211);
  adversary::install_adversary(
      cfg, 3, AdversaryConfig{StrategyKind::kEquivocatingAcsProposer, 0});
  Runner r(cfg);
  ASSERT_NE(r.adversary(3), nullptr);
  EXPECT_STREQ(r.adversary(3)->strategy_name(), "equivocating-acs-proposer");
}

// ------------------------------------------------------------------
// Composition with ByzConfig wire interceptors
// ------------------------------------------------------------------
TEST(AdversaryComposition, WireInterceptorStacksOnStrategy) {
  // A fast schedule can decide before the slot ever moderates an M-set;
  // honest decisions must hold for every seed, the withholding must fire
  // for some seed in the window.
  bool withheld_somewhere = false;
  for (std::uint64_t seed = 60; seed < 70 && !withheld_somewhere; ++seed) {
    auto cfg = base_config(4, seed);
    adversary::install_adversary(
        cfg, 3, AdversaryConfig{StrategyKind::kWithholdingModerator, 0});
    // The same slot additionally flips bits on the wire: the strategy's
    // outbound gate runs first, the ByzConfig interceptor mutates whatever
    // it lets through.
    ByzConfig wire{ByzKind::kBitFlip};
    wire.flip_prob = 0.02;
    cfg.faults[3] = wire;
    Runner r(cfg);
    EXPECT_FALSE(r.is_honest(3));
    auto res = r.run_aba(mixed_inputs(4), CoinMode::kSvss);
    expect_honest_decision(r, res);
    withheld_somewhere =
        r.adversary(3)->stats().withheld > 0 && honest_coin_output(r);
  }
  EXPECT_TRUE(withheld_somewhere) << "no M-set was ever withheld (vacuous)";
}

}  // namespace
}  // namespace svss
