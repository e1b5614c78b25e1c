// Protocol tests: MW-SVSS properties (Section 2.2 / Lemma 2).
//
// Each test drives one MW-SVSS session through the full simulator with a
// given fault/schedule mix and asserts the corresponding property:
//   1' Moderated validity of termination
//   Termination (all-or-none completion, R' completes once started by all)
//   Validity (honest dealer: everyone outputs s — or somebody shuns)
//   3' Weak & moderated binding (outputs in {r, bottom} — or shunning)
//   Lemma 1(a): only faulty processes are ever detected.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/runner.hpp"
#include "golden_digest.hpp"
#include "mwsvss/mwsvss.hpp"

namespace svss {
namespace {

using test::Fnv;
using test::fold_events;

RunnerConfig cfg(int n, int t, std::uint64_t seed,
                 SchedulerKind sched = SchedulerKind::kRandom) {
  RunnerConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.scheduler = sched;
  return c;
}

std::set<int> faulty_set(const RunnerConfig& c) {
  std::set<int> out;
  for (const auto& [id, b] : c.faults) {
    if (b.kind != ByzKind::kHonest) out.insert(id);
  }
  return out;
}

// Lemma 1(a): every shun pair (i, j) has honest i and faulty j.
void assert_shuns_are_sound(const std::vector<std::pair<int, int>>& pairs,
                            const std::set<int>& faulty) {
  for (const auto& [i, j] : pairs) {
    EXPECT_EQ(faulty.count(i), 0u) << "honest-only shunners: " << i;
    EXPECT_EQ(faulty.count(j), 1u) << "only faulty get shunned: " << j;
  }
}

// Weak binding: outputs of honest processes are all in {r, bottom} for a
// single r — or a (new) shun pair exists.
void assert_weak_binding_or_shun(
    const std::map<int, std::optional<Fp>>& outputs,
    const std::vector<std::pair<int, int>>& shun_pairs) {
  std::set<std::uint64_t> distinct;
  for (const auto& [i, out] : outputs) {
    if (out) distinct.insert(out->value());
  }
  if (distinct.size() > 1) {
    EXPECT_FALSE(shun_pairs.empty())
        << "two different non-bottom outputs without shunning";
  }
}

// --- Property 1': moderated validity of termination -------------------
TEST(MwSvss, HonestDealerAndModeratorTerminate) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Runner r(cfg(4, 1, seed));
    auto res = r.run_mwsvss(Fp(777), Fp(777));
    EXPECT_TRUE(res.all_honest_shared) << seed;
    EXPECT_TRUE(res.all_honest_output) << seed;
  }
}

TEST(MwSvss, TerminatesAtLargerScales) {
  for (auto [n, t] : std::vector<std::pair<int, int>>{{7, 2}, {10, 3}}) {
    Runner r(cfg(n, t, 77));
    auto res = r.run_mwsvss(Fp(31415), Fp(31415));
    EXPECT_TRUE(res.all_honest_shared) << n;
    EXPECT_TRUE(res.all_honest_output) << n;
    for (const auto& [i, out] : res.outputs) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, Fp(31415));
    }
  }
}

TEST(MwSvss, TerminatesUnderHostileSchedules) {
  for (auto sched : {SchedulerKind::kFifo, SchedulerKind::kLifo,
                     SchedulerKind::kDelayLastHonest}) {
    Runner r(cfg(4, 1, 5, sched));
    auto res = r.run_mwsvss(Fp(2020), Fp(2020));
    EXPECT_TRUE(res.all_honest_output);
    for (const auto& [i, out] : res.outputs) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, Fp(2020));
    }
  }
}

// Disagreeing moderator input: an honest moderator whose s' != s never
// endorses the dealer's sharing, so the share phase cannot complete — but
// nothing bad happens either (no shunning of honest processes, no output).
TEST(MwSvss, ModeratorInputMismatchBlocksCompletion) {
  Runner r(cfg(4, 1, 6));
  auto res = r.run_mwsvss(Fp(1), Fp(2));
  EXPECT_FALSE(res.all_honest_shared);
  EXPECT_TRUE(res.shun_pairs.empty());
}

// --- Termination: silent dealer stalls cleanly ------------------------
TEST(MwSvss, SilentDealerNobodyCompletes) {
  auto c = cfg(4, 1, 7);
  c.faults[0] = ByzConfig{ByzKind::kSilent};
  Runner r(c);
  auto res = r.run_mwsvss(Fp(5), Fp(5), /*dealer=*/0, /*moderator=*/1);
  EXPECT_FALSE(res.all_honest_shared);
  EXPECT_EQ(res.status, RunStatus::kQuiescent);
}

// A silent *participant* (neither dealer nor moderator) must not block:
// n - t = 3 confirmations suffice.
TEST(MwSvss, SilentParticipantTolerated) {
  auto c = cfg(4, 1, 8);
  c.faults[3] = ByzConfig{ByzKind::kSilent};
  Runner r(c);
  auto res = r.run_mwsvss(Fp(888), Fp(888));
  EXPECT_TRUE(res.all_honest_shared);
  EXPECT_TRUE(res.all_honest_output);
  for (const auto& [i, out] : res.outputs) {
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, Fp(888));
  }
}

// --- Validity (or shun) with a corrupting confirmer --------------------
TEST(MwSvss, WrongReconValuesTriggerValidityOrShun) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[2] = ByzConfig{ByzKind::kWrongRecon};
    Runner r(c);
    auto res = r.run_mwsvss(Fp(4321), Fp(4321));
    ASSERT_TRUE(res.all_honest_shared) << seed;
    ASSERT_TRUE(res.all_honest_output) << seed;
    bool all_correct = true;
    for (const auto& [i, out] : res.outputs) {
      if (!out || *out != Fp(4321)) all_correct = false;
    }
    EXPECT_TRUE(all_correct || !res.shun_pairs.empty())
        << "seed " << seed << ": wrong output but nobody shunned";
    assert_shuns_are_sound(res.shun_pairs, faulty_set(c));
  }
}

// The dealer knows every f_l, so a confirmer that lies in reconstruction
// is *always* explicitly detected by the honest dealer (rule 2).
TEST(MwSvss, HonestDealerDetectsLyingConfirmer) {
  int detections = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[2] = ByzConfig{ByzKind::kWrongRecon};
    Runner r(c);
    auto res = r.run_mwsvss(Fp(1), Fp(1));
    if (!res.all_honest_output) continue;
    for (const auto& [i, j] : res.shun_pairs) {
      if (i == 0 && j == 2) ++detections;
    }
  }
  EXPECT_GT(detections, 0) << "dealer never caught the lying confirmer";
}

// --- Weak & moderated binding with a faulty dealer ---------------------
TEST(MwSvss, EquivocatingDealerBindingOrShun) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[0] = ByzConfig{ByzKind::kEquivocate};
    Runner r(c);
    // Moderator input matches what the dealer sends to the lower half.
    auto res = r.run_mwsvss(Fp(99), Fp(99), /*dealer=*/0, /*moderator=*/1);
    assert_weak_binding_or_shun(res.outputs, res.shun_pairs);
    assert_shuns_are_sound(res.shun_pairs, faulty_set(c));
  }
}

TEST(MwSvss, BitFlippingDealerNeverSplitsWithoutShun) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[0] = ByzConfig{ByzKind::kBitFlip, 0, 0.3};
    Runner r(c);
    auto res = r.run_mwsvss(Fp(1234), Fp(1234));
    assert_weak_binding_or_shun(res.outputs, res.shun_pairs);
    assert_shuns_are_sound(res.shun_pairs, faulty_set(c));
  }
}

// Moderated binding: if the moderator is honest and the share completes,
// the committed value is the moderator's s' — every non-bottom output
// equals s'.
TEST(MwSvss, ModeratedBindingPinsValueToModeratorInput) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[0] = ByzConfig{ByzKind::kBitFlip, 0, 0.15};
    Runner r(c);
    auto res = r.run_mwsvss(Fp(4242), Fp(4242), /*dealer=*/0,
                            /*moderator=*/1);
    if (!res.all_honest_shared || !res.shun_pairs.empty()) continue;
    for (const auto& [i, out] : res.outputs) {
      if (out) {
        EXPECT_EQ(*out, Fp(4242)) << "seed " << seed;
      }
    }
  }
}

// Lying moderator: honest processes may fail to complete, but never
// disagree without shunning, and only faulty processes get shunned.
TEST(MwSvss, LyingModeratorSafe) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto c = cfg(4, 1, seed);
    c.faults[1] = ByzConfig{ByzKind::kLyingModerator};
    Runner r(c);
    auto res = r.run_mwsvss(Fp(606), Fp(606), /*dealer=*/0, /*moderator=*/1);
    assert_weak_binding_or_shun(res.outputs, res.shun_pairs);
    assert_shuns_are_sound(res.shun_pairs, faulty_set(c));
  }
}

// All-or-none share completion (Termination, first clause), across fault
// mixes and seeds.
class MwSvssTerminationSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MwSvssTerminationSweep, ShareCompletionIsAllOrNone) {
  auto [fault_kind, seed] = GetParam();
  auto c = cfg(4, 1, seed);
  c.faults[2] = ByzConfig{static_cast<ByzKind>(fault_kind)};
  Runner r(c);
  SessionId sid = mw_top_id(1, 0, 1);
  (void)r.run_mwsvss(Fp(11), Fp(11), 0, 1, /*reconstruct=*/true);
  int completed = 0;
  int honest = 0;
  for (int i : r.honest_ids()) {
    ++honest;
    const MwSvssSession* s = r.node(i).find_mw(sid);
    if (s != nullptr && s->share_complete()) ++completed;
  }
  EXPECT_TRUE(completed == 0 || completed == honest)
      << completed << "/" << honest;
}

INSTANTIATE_TEST_SUITE_P(
    FaultsAndSeeds, MwSvssTerminationSweep,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(ByzKind::kSilent),
                          static_cast<int>(ByzKind::kEquivocate),
                          static_cast<int>(ByzKind::kWrongRecon),
                          static_cast<int>(ByzKind::kBitFlip)),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// Message complexity of one session stays polynomial (coarse guard).
TEST(MwSvss, MessageComplexityPolynomial) {
  for (int n : {4, 7, 10, 13}) {
    int t = (n - 1) / 3;
    Runner r(cfg(n, t, 500 + static_cast<std::uint64_t>(n)));
    auto res = r.run_mwsvss(Fp(1), Fp(1));
    ASSERT_TRUE(res.all_honest_output) << n;
    // Upper bound: c * n^4 covers the n^2 RB broadcasts of n^2 transport
    // packets each with plenty of slack.
    EXPECT_LT(res.metrics.packets_sent,
              20ull * static_cast<std::uint64_t>(n) * n * n * n)
        << n;
  }
}

// --- Golden behaviour ---------------------------------------------------
// Each cell runs one MW-SVSS (or SVSS) session under every scheduler kind
// and three seeds, and folds everything the runs show into one FNV-1a
// digest: status, completion flags, every honest output (bottom included),
// the shun pairs, the wire counters and every field of every logged event.
// The constants were recorded before the session state moved to bitsets
// and per-peer arrays; a CPU-only rewrite of the session must leave every
// cell byte-identical.
struct GoldenCell {
  const char* name;
  int n;
  int t;
  std::map<int, ByzConfig> faults;
  bool svss;  // run_svss(secret) instead of run_mwsvss(secret, mod_input)
  Fp secret;
  Fp mod_input;
  const char* digest;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

void fold_run(Fnv& d, const Runner& r, const Runner::ShareResult& res) {
  d.put(static_cast<std::uint64_t>(res.status), 1);
  d.put(res.all_honest_shared ? 1 : 0, 1);
  d.put(res.all_honest_output ? 1 : 0, 1);
  for (const auto& [i, out] : res.outputs) {
    d.put(static_cast<std::uint32_t>(i), 4);
    d.put(out ? 1 : 0, 1);
    d.put(out ? out->value() : 0, 8);
  }
  for (const auto& [i, j] : res.shun_pairs) {
    d.put(static_cast<std::uint32_t>(i), 4);
    d.put(static_cast<std::uint32_t>(j), 4);
  }
  d.put(res.metrics.packets_sent, 8);
  d.put(res.metrics.bytes_sent, 8);
  fold_events(d, r.log());
}

const GoldenCell kGoldenCells[] = {
    {"honest", 4, 1, {}, false, Fp(777), Fp(777), "7aebac3fcde110d7"},
    // A participant that lies in its reconstruct broadcasts: the dealer's
    // DMM rule 2 catches it (HonestDealerDetectsLyingConfirmer).
    {"lying_confirmer", 4, 1, {{2, ByzConfig{ByzKind::kWrongRecon}}}, false,
     Fp(1), Fp(1), "9d6cd74455cb5111"},
    // A split-view participant: the upper half receives shifted echo
    // values, which step 3 must refuse to confirm.
    {"wrong_echo", 4, 1, {{2, ByzConfig{ByzKind::kEquivocate}}}, false,
     Fp(31), Fp(31), "caf4bc4eb2262ed9"},
    // Monitor 2 hands the moderator a wrong f-hat_2(0) (steps 5-6).
    {"monitor_mismatch", 4, 1, {{2, ByzConfig{ByzKind::kLyingModerator}}},
     false, Fp(606), Fp(606), "14f2d57053eed68c"},
    {"moderator_input_mismatch", 4, 1, {}, false, Fp(1), Fp(2),
     "a0d79550322fd5bb"},
    // Confirmer 3's shifted recon values land in some f-bar_l, so the
    // monitored points disagree and some honest processes output bottom.
    {"bottom_output", 4, 1, {{3, ByzConfig{ByzKind::kWrongRecon}}}, false,
     Fp(1234), Fp(1234), "374bedfe2904f0ac"},
    // At n = 7 the moderator publishes M-hat with n - t of the monitors,
    // so in every run of the cell two processes drop their DEAL
    // expectations (S' step 8).
    {"outside_mhat_clear", 7, 2, {}, false, Fp(31415), Fp(31415),
     "33abfc0378b1e9f0"},
    {"equivocating_dealer", 4, 1, {{0, ByzConfig{ByzKind::kEquivocate}}},
     false, Fp(99), Fp(99), "db1e39718203b81c"},
    {"svss_honest", 4, 1, {}, true, Fp(321), Fp(321), "75fbba76668e918b"},
    {"svss_bitflip", 4, 1, {{3, ByzConfig{ByzKind::kBitFlip, 0, 0.15}}}, true,
     Fp(321), Fp(321), "4cf78b00d2670533"},
};

class MwSvssGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(MwSvssGolden, MatchesRecordedDigest) {
  const GoldenCell& cell = GetParam();
  Fnv d;
  int bottoms = 0;
  for (auto sched : {SchedulerKind::kFifo, SchedulerKind::kRandom,
                     SchedulerKind::kLifo, SchedulerKind::kDelayLastHonest}) {
    for (std::uint64_t seed : {3u, 17u, 2026u}) {
      RunnerConfig c = cfg(cell.n, cell.t, seed, sched);
      c.faults = cell.faults;
      Runner r(c);
      auto res = cell.svss ? r.run_svss(cell.secret)
                           : r.run_mwsvss(cell.secret, cell.mod_input);
      fold_run(d, r, res);
      for (const auto& [i, out] : res.outputs) {
        if (!out) ++bottoms;
      }
    }
  }
  if (std::string(cell.name) == "bottom_output") {
    EXPECT_GT(bottoms, 0) << "the cell no longer reaches a bottom output";
  }
  EXPECT_EQ(d.hex(), cell.digest) << cell.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, MwSvssGolden, ::testing::ValuesIn(kGoldenCells),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace svss
