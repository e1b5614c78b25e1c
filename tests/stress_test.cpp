// Stress lane (ctest label "stress", SVSS_STRESS_TESTS=ON): scale runs
// past the tier-1 envelope.  ROADMAP's scale axis: nothing in tier-1 runs
// past n = 13; this lane pushes the agreement skeleton to n = 31 (t = 10,
// optimal resilience) and runs the full SVSS-coin termination sweep at
// n = 7, which is too slow for the default suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>

#include "search/corpus.hpp"
#include "sweep_common.hpp"

namespace svss {
namespace {

std::vector<int> mixed_inputs(int n) {
  std::vector<int> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
  return inputs;
}

// n = 31, t = 10: one full agreement run at the resilience bound.  The
// ideal-coin abstraction keeps the SCC out of the packet count (the full
// stack is O(n^7) messages — measured separately); what scales here is the
// voting skeleton: ~n RB broadcasts per round, each O(n^2) transport
// packets, through the scheduler heap and serialization paths.
TEST(Stress, Aba31AtResilienceBound) {
  RunnerConfig cfg;
  cfg.n = 31;
  cfg.t = 10;
  cfg.seed = 3101;
  cfg.max_deliveries = 500'000'000;
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(31), CoinMode::kIdealCommon);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_FALSE(res.metrics.capped);
}

// Same lane with the full t = 10 fault budget spent on a colluding cabal
// that crashes simultaneously mid-run: a third of the system vanishing in
// one instant must not stall the remaining 21 processes.
TEST(Stress, Aba31WithCoordinatedCabalCrash) {
  RunnerConfig cfg;
  cfg.n = 31;
  cfg.t = 10;
  cfg.seed = 3102;
  cfg.max_deliveries = 500'000'000;
  std::vector<int> members;
  for (int i = 21; i < 31; ++i) members.push_back(i);
  adversary::install_cabal(
      cfg, members,
      adversary::AdversaryConfig{adversary::StrategyKind::kColludingCabal,
                                 /*silence_after=*/20'000});
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(31), CoinMode::kIdealCommon);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_FALSE(res.metrics.capped);
  EXPECT_GT(r.adversary(21)->stats().withheld, 0u);
  EXPECT_GT(r.adversary(30)->stats().withheld, 0u);
}

// n = 64, t = 21: the scale target ROADMAP's serialization question needs.
// Ideal-coin skeleton (the full stack at this size is out of reach by
// design); the metrics summary records where Message::serialize bytes go
// per message type, which is the profile the batching of larger payloads
// would have to beat.
TEST(Stress, Aba64HonestAgreement) {
  RunnerConfig cfg;
  cfg.n = 64;
  cfg.t = 21;
  cfg.seed = 6401;
  cfg.max_deliveries = 2'000'000'000;
  Runner r(cfg);
  auto res = r.run_aba(mixed_inputs(64), CoinMode::kIdealCommon);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_FALSE(res.metrics.capped);
  // Attribution must be complete: every metered byte is binned by type
  // (note_type records full wire bytes, envelope included).
  std::uint64_t by_type = 0;
  for (std::uint64_t b : res.metrics.bytes_by_type) by_type += b;
  EXPECT_EQ(by_type, res.metrics.bytes_sent);
  // The per-type breakdown is the artifact this lane exists to record.
  std::cout << "n=64 honest agreement: " << res.metrics.summary() << "\n";
}

// Instance multiplexing at stress scale: 32 concurrent agreement
// instances at n = 31 (t = 10, resilience bound) over one stack, mixed
// inputs per instance.  Every instance must decide and agree
// independently, and the vote stream must actually ride the
// cross-instance envelopes — at this scale an uncoalesced kAbaVote
// majority would mean the batcher silently stopped capturing.
TEST(Stress, MultiInstance31x32Concurrent) {
  RunnerConfig cfg;
  cfg.n = 31;
  cfg.t = 10;
  cfg.seed = 3103;
  cfg.max_deliveries = 2'000'000'000;
  Runner r(cfg);
  constexpr std::uint32_t kInstances = 32;
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    std::vector<int> inputs;
    for (int p = 0; p < 31; ++p) {
      inputs.push_back((p + static_cast<int>(i)) % 2);
    }
    r.submit(i, std::move(inputs));
  }
  auto res = r.run_submitted(CoinMode::kIdealCommon);
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_FALSE(res.metrics.capped);
  EXPECT_EQ(res.decisions.size(), kInstances);
  auto pkts = [&res](MsgType t) {
    return res.metrics.packets_by_type[static_cast<std::size_t>(t)];
  };
  std::uint64_t envelopes =
      pkts(MsgType::kAbaBatchVote) + pkts(MsgType::kAbaBatchConf);
  EXPECT_GT(envelopes, pkts(MsgType::kAbaVote));
  std::cout << "n=31 x32 instances: " << res.metrics.summary() << "\n";
}

// The headline claim of the MW group-coalesced transport (plus the PR-4
// coin-dealing batcher): >=5x fewer full-stack packets at n = 10.  The
// workload is one full SVSS-coin round per framing — the *same* protocol
// work on both sides (every process deals and reconstructs its n attached
// sessions exactly once), unlike an agreement run, whose round count
// legitimately differs across framings (the packet schedule decides which
// G-sets freeze first and hence each round's coin bit, so one framing can
// need more rounds than the other on the same seed).  The per-group
// Metrics attribution makes the reduction directly readable — MW child
// traffic (mw-rb + mw-direct) is ~97% of per-session packets and is
// exactly what the envelopes coalesce.
TEST(Stress, FullStackN10) {
  std::uint64_t total[2] = {0, 0};
  std::uint64_t mw_total[2] = {0, 0};
  for (int batched = 0; batched <= 1; ++batched) {
    RunnerConfig cfg;
    cfg.n = 10;
    cfg.t = 3;
    cfg.seed = 1001;
    Framing framing = batched != 0 ? Framing::kBatched : Framing::kPerSession;
    cfg.transport.coin_dealing = framing;
    cfg.transport.mw_children = framing;
    cfg.max_deliveries = 500'000'000;
    Runner r(cfg);
    auto res = r.run_coin();
    EXPECT_TRUE(res.all_output);
    EXPECT_TRUE(res.shun_pairs.empty());
    EXPECT_FALSE(res.metrics.capped);
    total[batched] = res.metrics.packets_sent;
    // The group attribution must bin every metered packet, and the MW
    // share of the traffic is read straight out of it.
    std::uint64_t by_group = 0;
    for (std::size_t i = 0; i < Metrics::kTypeSlots; ++i) {
      bool is_batch_envelope = false;
      std::string_view group = Metrics::type_group(
          static_cast<MsgType>(i), &is_batch_envelope);
      std::uint64_t packets = res.metrics.packets_by_type[i];
      by_group += packets;
      if (group == "mw-rb" || group == "mw-direct") {
        mw_total[batched] += packets;
      }
    }
    EXPECT_EQ(by_group, res.metrics.packets_sent);
    std::cout << "n=10 full stack ("
              << (batched ? "coalesced" : "per-session")
              << "): " << res.metrics.summary() << "\n";
  }
  // The acceptance gate: the coalesced mode ships at least 5x fewer
  // packets overall, and the win comes from the MW traffic class.
  EXPECT_GE(total[0], 5 * total[1])
      << "per-session " << total[0] << " vs coalesced " << total[1];
  EXPECT_GE(mw_total[0], 5 * mw_total[1])
      << "per-session MW " << mw_total[0] << " vs coalesced "
      << mw_total[1];
}

// Full SVSS-coin termination sweep at n = 10 (t = 3 strategy-driven
// faults): the coverage ROADMAP said only batching would make affordable.
// Two representative strategies (one VSS-targeted, one coordinated) under
// the benign and the fair-random schedule.
TEST(Stress, FullStackSweepN10) {
  sweep::SweepSpec spec;
  spec.ns = {10};
  spec.full_stack_max_n = 10;  // force CoinMode::kSvss
  spec.strategies = {adversary::StrategyKind::kWithholdingModerator,
                     adversary::StrategyKind::kColludingCabal};
  spec.schedulers = {SchedulerKind::kFifo, SchedulerKind::kRandom};
  spec.seeds = {64};
  spec.max_deliveries = 500'000'000;
  auto report = sweep::run_aba_termination_sweep(spec);
  EXPECT_EQ(report.safety_violations, 0) << report.to_json();
  EXPECT_EQ(report.capped_runs, 0) << report.to_json();
  EXPECT_EQ(report.undecided_runs, 0) << report.to_json();
  sweep::maybe_write_report(report, "stress-full-stack-n10");
}

// Full SVSS-coin termination sweep at n = 7 (t = 2 strategy-driven
// faults): the tier-1 sweep runs this size only under the ideal coin; the
// stress lane pays for the real thing.
TEST(Stress, FullStackSweepN7) {
  sweep::SweepSpec spec;
  spec.ns = {7};
  spec.full_stack_max_n = 7;  // force CoinMode::kSvss
  spec.strategies = {std::begin(adversary::kAllStrategies),
                     std::end(adversary::kAllStrategies)};
  spec.schedulers = {SchedulerKind::kFifo, SchedulerKind::kRandom};
  // Seed list spans the input patterns (seed mod 4): two mixed-input
  // seeds whose random schedule falls through to the coin, one all-0 and
  // one all-1 seed so the validity counter is falsifiable.
  spec.seeds = {60, 65, 62, 63};
  spec.max_deliveries = 200'000'000;
  auto report = sweep::run_aba_termination_sweep(spec);
  EXPECT_EQ(report.safety_violations, 0) << report.to_json();
  EXPECT_EQ(report.capped_runs, 0) << report.to_json();
  EXPECT_EQ(report.undecided_runs, 0) << report.to_json();
  for (auto strategy : spec.strategies) {
    EXPECT_GT(report.attacked_count(strategy), 0)
        << adversary::strategy_name(strategy) << " never attacked:\n"
        << report.to_json();
    EXPECT_GT(report.coin_attacked_count(strategy), 0)
        << adversary::strategy_name(strategy)
        << " never attacked a coin an honest process requested:\n"
        << report.to_json();
  }
  EXPECT_EQ(report.attacked_without_coin, 0) << report.to_json();
  sweep::maybe_write_report(report, "stress-full-stack-n7");
}

// Coverage-guided schedule search under a bounded budget (override with
// SVSS_SEARCH_BUDGET): mutate genome schedules against the colluding cabal
// on full-stack n = 4 cells, then re-run the best-found schedule through
// the sweep harness (custom-factory lane) so it lands in the
// SVSS_SWEEP_REPORT artifact next to the fixed-kind rows.  Candidate
// corpus entries are written to SVSS_SEARCH_CORPUS (if set) for triage —
// the commit-to-tests/corpus step stays a human decision (see README).
TEST(Stress, ScheduleSearchEmitsCorpusCandidates) {
  search::SearchSpec spec;
  spec.n = 4;
  spec.strategy = adversary::StrategyKind::kColludingCabal;
  spec.mode = CoinMode::kSvss;
  spec.seeds = {11, 22};
  spec.max_deliveries = 20'000'000;
  spec.iterations = 48;
  spec.search_seed = 20260808;
  if (const char* budget = std::getenv("SVSS_SEARCH_BUDGET")) {
    spec.iterations = std::max(1, std::atoi(budget));
  }

  search::ScheduleSearch s(spec);
  auto result = s.run();
  std::cout << "schedule search: " << result.evaluations << " evals, "
            << result.coverage_bits << " coverage bits, baseline "
            << sweep::scheduler_name(result.baseline_kind) << " worst "
            << result.baseline_worst_rounds << ", best found worst "
            << (result.have_best ? result.best.worst_rounds : 0) << "\n";
  // Either of these is a falsification witness, not a schedule: fail the
  // lane loudly so the seed/genome in the log gets triaged.
  EXPECT_FALSE(result.safety_violation);
  EXPECT_FALSE(result.cap_witness);
  ASSERT_TRUE(result.have_best);

  if (const char* dir = std::getenv("SVSS_SEARCH_CORPUS")) {
    std::filesystem::create_directories(dir);
    auto entry = search::make_corpus_entry(spec, result,
                                           "candidate-cabal-n4-svss");
    std::ofstream out(std::filesystem::path(dir) /
                      "candidate-cabal-n4-svss.json");
    out << entry.to_json();
  }

  // The found schedule rides the sweep grid: same cells, custom factory,
  // labeled rows in the JSON artifact.
  sweep::SweepSpec sw;
  sw.ns = {4};
  sw.full_stack_max_n = 4;
  sw.strategies = {spec.strategy};
  sw.schedulers = {SchedulerKind::kFifo};  // placeholder axis
  sw.seeds = spec.seeds;
  sw.max_deliveries = spec.max_deliveries;
  sw.scheduler_factory = search::make_genome_factory(result.best.genome);
  sw.scheduler_label = "genome-best";
  // The search scored the genome under mixed inputs (run_search_cell);
  // the seeds alone would map 11/22 to unanimous inputs, which decide on
  // votes and never reach the coin the genome was found attacking.
  sw.pattern = sweep::InputPattern::kMixed;
  auto report = sweep::run_aba_termination_sweep(sw);
  EXPECT_EQ(report.safety_violations, 0) << report.to_json();
  EXPECT_EQ(report.capped_runs, 0) << report.to_json();
  EXPECT_EQ(report.undecided_runs, 0) << report.to_json();
  EXPECT_GT(report.coin_attacked_count(spec.strategy), 0) << report.to_json();
  EXPECT_EQ(report.attacked_without_coin, 0) << report.to_json();
  sweep::maybe_write_report(report, "stress-schedule-search");
}

}  // namespace
}  // namespace svss
