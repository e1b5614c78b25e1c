// Membership reconfiguration end-to-end (core/epoch.hpp): epoch scripts
// with join/leave/replace and crash-at-boundary members, on both backends.
//
// Inputs are unanimous per instance, so validity pins every decision to
// the input — which is what makes values comparable between the
// deterministic sim schedule and the socket backend's kernel schedule.
#include <gtest/gtest.h>

#include <vector>

#include "core/runner.hpp"
#include "equivalence_common.hpp"
#include "sweep_common.hpp"

namespace svss {
namespace {

RunnerConfig universe_config(int n, int t, std::uint64_t seed) {
  RunnerConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  return cfg;
}

EpochPlan plan(std::uint32_t epoch, std::vector<int> members, int t,
               std::map<std::uint32_t, int> unanimous,
               std::set<int> crash = {}) {
  EpochPlan p;
  p.config.epoch = epoch;
  p.config.members = std::move(members);
  p.config.t = t;
  for (const auto& [inst, input] : unanimous) {
    p.instances.emplace(
        inst, std::vector<int>(static_cast<std::size_t>(p.config.n()),
                               input));
  }
  p.crash_at_boundary = std::move(crash);
  return p;
}

// Replace one slot at the boundary: epoch 0 runs {0,1,2,3}, slot 3 leaves
// and slot 4 joins for epoch 1.  Both epochs decide their instances.
std::vector<EpochPlan> replace_script() {
  return {plan(0, {0, 1, 2, 3}, 1, {{1, 1}, {2, 0}}),
          plan(1, {0, 1, 2, 4}, 1, {{3, 0}, {4, 1}})};
}

TEST(EpochSim, MembershipReplaceDecidesEveryEpoch) {
  Runner r(universe_config(5, 1, 4201));
  EpochsResult res = r.run_epochs(replace_script());
  ASSERT_EQ(res.epochs.size(), 2u);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_TRUE(res.epochs[0].boundary_decided);
  // Validity: unanimous input is the only admissible decision.
  EXPECT_EQ(res.epochs[0].values.at(1), 1);
  EXPECT_EQ(res.epochs[0].values.at(2), 0);
  EXPECT_EQ(res.epochs[1].values.at(3), 0);
  EXPECT_EQ(res.epochs[1].values.at(4), 1);
  // The joiner decided epoch 1's instances; the leaver is absent there.
  EXPECT_TRUE(res.epochs[1].decisions.at(3).count(4));
  EXPECT_FALSE(res.epochs[1].decisions.at(3).count(3));
}

TEST(EpochSim, ReplaceIsDeterministicPerSeed) {
  auto run_once = [] {
    Runner r(universe_config(5, 1, 4202));
    return r.run_epochs(replace_script());
  };
  EpochsResult a = run_once();
  EpochsResult b = run_once();
  ASSERT_TRUE(a.all_decided && b.all_decided);
  EXPECT_EQ(a.metrics.packets_sent, b.metrics.packets_sent);
  EXPECT_EQ(a.metrics.bytes_sent, b.metrics.bytes_sent);
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].decisions, b.epochs[e].decisions);
  }
}

// Full-stack epoch crossing: the SVSS-coin agreement (no ideal coin) also
// survives a reconfiguration, with fresh per-epoch seed derivation.
TEST(EpochSim, SvssCoinStackCrossesBoundary) {
  Runner r(universe_config(4, 1, 4203));
  std::vector<EpochPlan> script = {plan(0, {0, 1, 2, 3}, 1, {{1, 1}}),
                                   plan(1, {0, 1, 2, 3}, 1, {{2, 0}})};
  EpochsResult res = r.run_epochs(script, CoinMode::kSvss);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_EQ(res.epochs[0].values.at(1), 1);
  EXPECT_EQ(res.epochs[1].values.at(2), 0);
}

TEST(EpochSim, RejectsMalformedScripts) {
  Runner r(universe_config(5, 1, 4204));
  // Below n >= 3t+1.
  EXPECT_THROW(r.run_epochs({plan(0, {0, 1, 2}, 1, {{1, 1}})}),
               std::invalid_argument);
  // Member outside the universe.
  EXPECT_THROW(r.run_epochs({plan(0, {0, 1, 2, 7}, 1, {{1, 1}})}),
               std::invalid_argument);
  // Instance id colliding with the reserved boundary instance.
  EXPECT_THROW(
      r.run_epochs({plan(0, {0, 1, 2, 3}, 1, {{kEpochBoundaryInstance, 1}})}),
      std::invalid_argument);
  // Crashing a non-member.
  EXPECT_THROW(
      r.run_epochs({plan(0, {0, 1, 2, 3}, 1, {{1, 1}}, {4})}),
      std::invalid_argument);
}

// The reconfiguration adversary: a member crashes exactly at the epoch
// boundary, and the next epoch's survivors (n-t of n) must still decide.
// Swept over seeds x schedulers on the deterministic backend.
TEST(EpochSweep, CrashAtBoundarySurvivorsDecide) {
  for (SchedulerKind sched : sweep::kAllSchedulers) {
    for (std::uint64_t seed : {4301u, 4302u, 4303u}) {
      RunnerConfig cfg = universe_config(5, 1, seed);
      cfg.scheduler = sched;
      Runner r(cfg);
      std::vector<EpochPlan> script = {
          plan(0, {0, 1, 2, 3}, 1, {{1, 1}}, /*crash=*/{3}),
          plan(1, {0, 1, 2, 3}, 1, {{2, 1}})};
      EpochsResult res = r.run_epochs(script);
      EXPECT_TRUE(res.all_decided)
          << sweep::scheduler_name(sched) << " seed " << seed;
      EXPECT_TRUE(res.agreed)
          << sweep::scheduler_name(sched) << " seed " << seed;
      EXPECT_EQ(res.epochs[1].values.at(2), 1);
      // The crashed slot decided nothing in epoch 1.
      EXPECT_FALSE(res.epochs[1].decisions.at(2).count(3));
      EXPECT_EQ(res.epochs[1].decisions.at(2).size(), 3u);
    }
  }
}

// Acceptance: membership replace completes with the sim and socket
// backends agreeing per the equivalence harness.
TEST(EpochEquivalence, ReplaceAgreesAcrossBackends) {
  equivalence::run_epoch_equivalence(universe_config(5, 1, 4401),
                                     replace_script());
}

// Crash-at-boundary also runs on the socket backend: the crashed member
// goes silent at the boundary and the survivors decide the next epoch.
TEST(EpochLoopback, CrashAtBoundarySurvivorsDecide) {
  RunnerConfig cfg = universe_config(4, 1, 4402);
  cfg.transport.kind = TransportKind::kSocketLoopback;
  Runner r(cfg);
  std::vector<EpochPlan> script = {
      plan(0, {0, 1, 2, 3}, 1, {{1, 1}}, /*crash=*/{3}),
      plan(1, {0, 1, 2, 3}, 1, {{2, 0}})};
  EpochsResult res = r.run_epochs(script);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_EQ(res.epochs[0].values.at(1), 1);
  EXPECT_EQ(res.epochs[1].values.at(2), 0);
  EXPECT_EQ(res.epochs[1].decisions.at(2).size(), 3u);
}

// Every live member's decision of every plan instance is in
// Runner::log(): each epoch's Node records into the log the cluster serves
// for its slot.  Nodes log their rank, and the script's instance ids are
// distinct across epochs, so (rank, instance) names one decision.
void expect_epoch_decisions_logged(TransportKind kind) {
  RunnerConfig cfg = universe_config(5, 1, 4403);
  cfg.transport.kind = kind;
  Runner r(cfg);
  const std::vector<EpochPlan> script = replace_script();
  EpochsResult res = r.run_epochs(script);
  ASSERT_TRUE(res.all_decided);
  const std::vector<Event> events = r.log().events();
  for (std::size_t e = 0; e < script.size(); ++e) {
    const EpochConfig& config = script[e].config;
    for (const auto& [inst, inputs] : script[e].instances) {
      for (const auto& [g, value] : res.epochs[e].decisions.at(inst)) {
        bool logged = false;
        for (const Event& ev : events) {
          logged = logged || (ev.kind == EventKind::kAbaDecide &&
                              ev.who == config.rank_of(g) &&
                              ev.sid.instance == inst && ev.value == value);
        }
        EXPECT_TRUE(logged) << "epoch " << e << " member " << g
                            << " instance " << inst;
      }
    }
  }
}

TEST(EpochSim, EpochDecisionsReachRunnerLog) {
  expect_epoch_decisions_logged(TransportKind::kSim);
}

TEST(EpochLoopback, EpochDecisionsReachRunnerLog) {
  expect_epoch_decisions_logged(TransportKind::kSocketLoopback);
}

}  // namespace
}  // namespace svss
