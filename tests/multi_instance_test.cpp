// Multi-instance agreement: k concurrent instances multiplexed over one
// node/transport stack (SessionId::instance + cross-instance vote
// batching, the vote client of src/batch/).
//
// Three properties pinned here:
//
//  1. Per-instance correctness under concurrency — k instances driven
//     through Runner::submit/run_submitted each satisfy agreement and
//     validity independently.  Inputs are unanimous per instance
//     (instance i gets input i % 2 everywhere), so validity forces the
//     decision of instance i to equal i % 2 exactly — any cross-instance
//     vote bleed (a batching or routing bug) flips some instance to the
//     wrong value and fails loudly.
//  2. Framing equivalence — the batched and per-session vote framings
//     reach the same per-instance decisions, and the batched run actually
//     coalesces: it moves fewer agreement packets while the per-session
//     run moves none of the envelope types.
//  3. Backend equivalence — the socket-loopback backend reaches the same
//     per-instance decisions as the simulator for the same submission
//     set, riding the batched envelopes over real TCP untranslated.
//  4. Stop point — run_submitted ends at the exact delivery after which
//     every honest node has decided every instance, with or without a
//     harness observer installed on the nodes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/runner.hpp"

namespace svss {
namespace {

constexpr int kN = 4;
constexpr std::uint32_t kInstances = 4;

RunnerConfig base_config(std::uint64_t seed) {
  RunnerConfig cfg;
  cfg.n = kN;
  cfg.t = 1;
  cfg.seed = seed;
  return cfg;
}

// Submit kInstances instances with unanimous per-instance inputs:
// instance i's input is i % 2 at every process.
void submit_unanimous(Runner& r) {
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    r.submit(i, std::vector<int>(kN, static_cast<int>(i) % 2));
  }
}

void expect_valid_decisions(const Runner::MultiAbaResult& res,
                            const char* label) {
  EXPECT_TRUE(res.all_decided) << label;
  EXPECT_TRUE(res.agreed) << label;
  EXPECT_EQ(res.status, RunStatus::kQuiescent) << label;
  ASSERT_EQ(res.values.size(), kInstances) << label;
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    auto it = res.values.find(i);
    ASSERT_NE(it, res.values.end()) << label << " instance " << i;
    // Unanimous inputs: validity pins the decision to the common input.
    EXPECT_EQ(it->second, static_cast<int>(i) % 2)
        << label << " instance " << i;
  }
}

TEST(MultiInstance, ConcurrentInstancesDecideTheirOwnInputs) {
  for (std::uint64_t seed : {7301ull, 7302ull, 7303ull}) {
    Runner r(base_config(seed));
    submit_unanimous(r);
    expect_valid_decisions(r.run_submitted(CoinMode::kIdealCommon), "sim");
  }
}

// Mixed inputs within each instance: agreement must still hold per
// instance (the decided value is schedule-dependent, but all honest
// processes of one instance must match).
TEST(MultiInstance, MixedInputsStayAgreedPerInstance) {
  RunnerConfig cfg = base_config(7311);
  Runner r(cfg);
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    std::vector<int> inputs;
    for (int p = 0; p < kN; ++p) {
      inputs.push_back((p + static_cast<int>(i)) % 2);
    }
    r.submit(i, std::move(inputs));
  }
  auto res = r.run_submitted(CoinMode::kIdealCommon);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_EQ(res.values.size(), kInstances);
}

// The full-stack SVSS coin also multiplexes: every instance runs its own
// shunning-common-coin rounds namespaced by SessionId::instance.
TEST(MultiInstance, SvssCoinInstancesStayIndependent) {
  RunnerConfig cfg = base_config(7321);
  Runner r(cfg);
  for (std::uint32_t i = 0; i < 2; ++i) {
    r.submit(i, std::vector<int>(kN, static_cast<int>(i) % 2));
  }
  auto res = r.run_submitted(CoinMode::kSvss);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  ASSERT_EQ(res.values.size(), 2u);
  EXPECT_EQ(res.values.at(0), 0);
  EXPECT_EQ(res.values.at(1), 1);
}

TEST(MultiInstance, VoteFramingsReachTheSameDecisions) {
  auto run = [](Framing votes) {
    RunnerConfig cfg = base_config(7331);
    cfg.transport.aba_votes = votes;
    Runner r(cfg);
    submit_unanimous(r);
    return r.run_submitted(CoinMode::kIdealCommon);
  };
  auto batched = run(Framing::kBatched);
  auto per_session = run(Framing::kPerSession);
  expect_valid_decisions(batched, "batched");
  expect_valid_decisions(per_session, "per-session");
  EXPECT_EQ(batched.values, per_session.values);

  // The batched run must actually coalesce: envelope packets exist, the
  // per-session run has none, and the batched run moves fewer agreement
  // packets overall.
  auto aba_packets = [](const Metrics& m) {
    return m.packets_by_type[static_cast<std::size_t>(MsgType::kAbaVote)] +
           m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchVote)] +
           m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchConf)];
  };
  auto envelopes = [](const Metrics& m) {
    return m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchVote)] +
           m.packets_by_type[static_cast<std::size_t>(
               MsgType::kAbaBatchConf)];
  };
  EXPECT_GT(envelopes(batched.metrics), 0u);
  EXPECT_EQ(envelopes(per_session.metrics), 0u);
  EXPECT_LT(aba_packets(batched.metrics), aba_packets(per_session.metrics));
}

TEST(MultiInstance, SocketLoopbackMatchesSim) {
  auto run = [](TransportKind kind) {
    RunnerConfig cfg = base_config(7341);
    cfg.transport.kind = kind;
    Runner r(cfg);
    submit_unanimous(r);
    return r.run_submitted(CoinMode::kIdealCommon);
  };
  auto sim = run(TransportKind::kSim);
  auto loopback = run(TransportKind::kSocketLoopback);
  expect_valid_decisions(sim, "sim");
  expect_valid_decisions(loopback, "socket-loopback");
  EXPECT_EQ(sim.values, loopback.values);
  EXPECT_EQ(sim.decisions, loopback.decisions);
}

// The service shape at n = 7: 16 ideal-coin instances with mixed inputs.
// The delivered-packet count and the decided values are pinned, so a
// completion check that stops a delivery early or late, or a queue change
// that reorders the schedule, fails here.
struct StopPoint {
  std::uint64_t seed;
  std::uint64_t packets_delivered;
  std::uint32_t ones;  // bit k set iff instance k decided 1
};
constexpr StopPoint kStopPoints[] = {
    {1, 77928, 47734},
    {2, 71432, 55282},
    {3, 28130, 19977},
};
constexpr std::uint32_t kServiceInstances = 16;

Runner::MultiAbaResult run_service_shape(std::uint64_t seed,
                                         bool with_observer) {
  RunnerConfig cfg;
  cfg.n = 7;
  cfg.t = 2;
  cfg.seed = seed;
  Runner r(cfg);
  if (with_observer) {
    // What a harness does to timestamp decisions (perfbench,
    // DaemonService): it takes over the node's observer slot.
    for (int i = 0; i < cfg.n; ++i) {
      r.node(i).observers.aba_decided = [](Context&, int, std::uint32_t,
                                           std::uint32_t) {};
    }
  }
  Rng inputs_rng(seed);
  for (std::uint32_t k = 0; k < kServiceInstances; ++k) {
    std::vector<int> inputs;
    for (int p = 0; p < cfg.n; ++p) {
      inputs.push_back(inputs_rng.next_bool() ? 1 : 0);
    }
    r.submit(k, std::move(inputs));
  }
  return r.run_submitted(CoinMode::kIdealCommon);
}

std::uint32_t ones_mask(const Runner::MultiAbaResult& res) {
  std::uint32_t mask = 0;
  for (const auto& [instance, value] : res.values) {
    if (value == 1) mask |= 1u << instance;
  }
  return mask;
}

TEST(MultiInstance, RunSubmittedStopsAtThePinnedDelivery) {
  for (const StopPoint& sp : kStopPoints) {
    for (bool with_observer : {false, true}) {
      auto res = run_service_shape(sp.seed, with_observer);
      const char* label = with_observer ? "observer" : "bare";
      EXPECT_EQ(res.status, RunStatus::kQuiescent) << label << " " << sp.seed;
      EXPECT_TRUE(res.all_decided) << label << " " << sp.seed;
      EXPECT_TRUE(res.agreed) << label << " " << sp.seed;
      EXPECT_EQ(res.values.size(), kServiceInstances)
          << label << " " << sp.seed;
      EXPECT_EQ(res.metrics.packets_delivered, sp.packets_delivered)
          << label << " seed " << sp.seed;
      EXPECT_EQ(ones_mask(res), sp.ones) << label << " seed " << sp.seed;
    }
  }
}

TEST(MultiInstance, SubmitValidatesItsArguments) {
  Runner r(base_config(7351));
  EXPECT_THROW(r.submit(0, std::vector<int>(kN - 1, 0)),
               std::invalid_argument);
  r.submit(0, std::vector<int>(kN, 1));
  EXPECT_THROW(r.submit(0, std::vector<int>(kN, 0)), std::invalid_argument);
  Runner empty(base_config(7352));
  EXPECT_THROW(empty.run_submitted(), std::invalid_argument);
}

}  // namespace
}  // namespace svss
