// Differential equivalence harness for wire-framing variants.
//
// The batching layer's clients (src/batch/: coin-round dealing, MW child
// traffic, agreement votes) are *framing* changes: sessions run
// unmodified per-session code in the same order, so RNG consumption — and
// therefore every dealt polynomial and secret — is identical per seed
// across framings.  What a framing may
// legitimately change is the packet schedule (fewer, fatter packets), and
// with it which G-sets freeze first and hence a coin's output bit; what it
// must never change is any dealt or reconstructed value, termination, or
// the shunning discipline.
//
// This harness runs any two RunnerConfig variants over the full
// seeds x adversary-strategies x SchedulerKinds grid and asserts, per cell:
//  1. both variants terminate (quiescent; honest cells produce all outputs
//     with zero shun accusations);
//  2. every coin-owned SVSS session of an *honest* dealer that completes
//     reconstruction in both runs reconstructs the *same* value at every
//     process — the wire framing never alters content;
//  3. shun accusations stay sound in both variants (honest processes only
//     ever accuse faulty slots; *which* faulty sessions break may differ
//     per schedule, so accusation sets are compared for soundness, not
//     equality);
//  4. each variant replays deterministically (same config => byte-identical
//     event log — the engine's replay guarantee extends to the framing).
// ABA cells additionally require matching clean verdicts (decided, agreed,
// valid) in both variants.
//
// tests/batch_equivalence_test.cpp instantiates the harness for the three
// variant pairs ROADMAP's batching work introduced: MW coalescing alone,
// coin-dealing batching alone, and the combined mode.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/runner.hpp"
#include "sweep_common.hpp"

namespace svss::equivalence {

// A named framing variant: a mutation applied on top of the cell's base
// config (toggling transport.coin_dealing / mw_children / overrides).
struct Variant {
  const char* name;
  std::function<void(RunnerConfig&)> apply;
};

struct VariantPair {
  Variant a;
  Variant b;
};

// Grid dimensions.  Defaults match the original batch_equivalence_test:
// n = 4 (full SVSS-coin stack), every SchedulerKind, honest cells plus one
// cell per PR-3 strategy.
struct Grid {
  int n = 4;
  int t = 1;
  std::vector<std::uint64_t> honest_seeds{7101, 7102};
  std::uint64_t strategy_seed_base = 7200;
  std::vector<std::uint64_t> aba_seeds{7301, 7302};
  std::uint64_t replay_seed = 7400;
  std::uint64_t max_deliveries = 20'000'000;
};

struct Cell {
  std::optional<adversary::StrategyKind> strategy;  // nullopt = all honest
  SchedulerKind scheduler;
  std::uint64_t seed;
};

inline std::vector<Cell> grid_cells(const Grid& grid) {
  std::vector<Cell> cells;
  for (SchedulerKind sched : sweep::kAllSchedulers) {
    for (std::uint64_t seed : grid.honest_seeds) {
      cells.push_back(Cell{std::nullopt, sched, seed});
    }
    int k = 0;
    for (adversary::StrategyKind strategy : adversary::kAllStrategies) {
      cells.push_back(Cell{strategy, sched,
                           grid.strategy_seed_base +
                               static_cast<std::uint64_t>(k++)});
    }
  }
  return cells;
}

inline RunnerConfig cell_config(const Grid& grid, const Cell& cell,
                                const Variant& variant) {
  RunnerConfig cfg;
  cfg.n = grid.n;
  cfg.t = grid.t;
  cfg.seed = cell.seed;
  cfg.scheduler = cell.scheduler;
  cfg.max_deliveries = grid.max_deliveries;
  cfg.warn_on_cap = false;  // adversarial dealers may stall cleanly
  variant.apply(cfg);
  if (cell.strategy) {
    adversary::install_adversaries(cfg, *cell.strategy, cfg.t);
  }
  return cfg;
}

// Honest dealers in the cell (adversaries occupy the top t slots).
inline bool honest_dealer(const Grid& grid, const Cell& cell, int dealer) {
  return !cell.strategy || dealer < grid.n - grid.t;
}

inline void expect_sound_shuns(const Runner& r, const Cell& cell,
                               const char* variant_name) {
  for (const auto& [who, whom] : r.honest_shun_pairs()) {
    EXPECT_FALSE(r.is_honest(whom))
        << variant_name << ": honest " << who << " shunned honest " << whom
        << " (seed " << cell.seed << ")";
  }
}

// (process, session) -> reconstructed value of a coin-owned SVSS session.
using ReconMap =
    std::map<std::pair<int, SessionId>, std::optional<std::int64_t>>;

inline ReconMap coin_recon_outputs(const EventLog& log) {
  ReconMap out;
  for (const Event& e : log.events()) {
    if (e.kind != EventKind::kSvssReconOutput) continue;
    if (e.sid.path != SessionPath::kSvssCoin) continue;
    out.emplace(std::make_pair(e.who, e.sid),
                e.has_value ? std::optional<std::int64_t>(e.value)
                            : std::nullopt);
  }
  return out;
}

// One coin round per cell in both variants: termination, value
// equivalence for honest dealers, shun soundness.
inline void run_coin_equivalence(const VariantPair& pair,
                                 const Grid& grid = {}) {
  for (const Cell& cell : grid_cells(grid)) {
    const Variant* variants[2] = {&pair.a, &pair.b};
    ReconMap recon[2];
    bool quiescent[2] = {false, false};
    bool all_output[2] = {false, false};
    for (int v = 0; v < 2; ++v) {
      Runner r(cell_config(grid, cell, *variants[v]));
      auto res = r.run_coin();
      quiescent[v] = res.status == RunStatus::kQuiescent;
      all_output[v] = res.all_output;
      for (const auto& [i, bit] : res.bits) {
        EXPECT_TRUE(bit == 0 || bit == 1);
        (void)i;
      }
      expect_sound_shuns(r, cell, variants[v]->name);
      if (!cell.strategy) {
        EXPECT_TRUE(res.all_output)
            << "seed " << cell.seed << " variant " << variants[v]->name;
        EXPECT_TRUE(res.shun_pairs.empty())
            << "seed " << cell.seed << " variant " << variants[v]->name;
      }
      recon[v] = coin_recon_outputs(r.log());
    }
    EXPECT_TRUE(quiescent[0] && quiescent[1]) << "seed " << cell.seed;
    if (!cell.strategy) {
      EXPECT_EQ(all_output[0], all_output[1]) << "seed " << cell.seed;
    }

    // Content equivalence: a session of an honest dealer reconstructed to
    // a value in both variants reconstructed to the *same* value — the
    // framing never changes what was dealt.
    int compared = 0;
    for (const auto& [key, value] : recon[0]) {
      if (!honest_dealer(grid, cell, key.second.owner)) continue;
      auto it = recon[1].find(key);
      if (it == recon[1].end()) continue;
      if (!value || !it->second) continue;  // bottom implies shunning
      EXPECT_EQ(*value, *it->second)
          << "process " << key.first << " session " << key.second.str()
          << " seed " << cell.seed << " (" << pair.a.name << " vs "
          << pair.b.name << ")";
      ++compared;
    }
    if (!cell.strategy) {
      // Honest cells reconstruct every session in both variants: the
      // content check must not be vacuous.
      EXPECT_GT(compared, 0) << "seed " << cell.seed;
    }
  }
}

// Full agreement through the SVSS coin: both variants must reach clean
// verdicts (decided, agreed, valid bit) under every scheduler.
inline void run_aba_equivalence(const VariantPair& pair,
                                const Grid& grid = {}) {
  const Variant* variants[2] = {&pair.a, &pair.b};
  for (SchedulerKind sched : sweep::kAllSchedulers) {
    for (std::uint64_t seed : grid.aba_seeds) {
      for (int v = 0; v < 2; ++v) {
        RunnerConfig cfg;
        cfg.n = grid.n;
        cfg.t = grid.t;
        cfg.seed = seed;
        cfg.scheduler = sched;
        variants[v]->apply(cfg);
        Runner r(cfg);
        std::vector<int> inputs;
        for (int i = 0; i < grid.n; ++i) inputs.push_back(i % 2);
        auto res = r.run_aba(inputs, CoinMode::kSvss);
        EXPECT_TRUE(res.all_decided)
            << "seed " << seed << " variant " << variants[v]->name;
        EXPECT_TRUE(res.agreed)
            << "seed " << seed << " variant " << variants[v]->name;
        EXPECT_TRUE(res.value == 0 || res.value == 1);
        EXPECT_EQ(res.status, RunStatus::kQuiescent);
      }
    }
  }
}

// Epoch-script equivalence: the same reconfiguration script (core/epoch.hpp)
// must fully decide and agree on both backends.  Callers keep each
// instance's inputs unanimous, so validity pins every decision to the
// input and the two backends' values are comparable despite the socket
// backend's nondeterministic schedule.
inline void run_epoch_equivalence(const RunnerConfig& base,
                                  const std::vector<EpochPlan>& script,
                                  CoinMode mode = CoinMode::kIdealCommon) {
  EpochsResult results[2];
  const char* names[2] = {"sim", "socket-loopback"};
  for (int v = 0; v < 2; ++v) {
    RunnerConfig cfg = base;
    cfg.transport.kind =
        v == 0 ? TransportKind::kSim : TransportKind::kSocketLoopback;
    Runner r(cfg);
    results[v] = r.run_epochs(script, mode);
    EXPECT_TRUE(results[v].all_decided) << names[v];
    EXPECT_TRUE(results[v].agreed) << names[v];
    ASSERT_EQ(results[v].epochs.size(), script.size()) << names[v];
  }
  for (std::size_t e = 0; e < script.size(); ++e) {
    EXPECT_EQ(results[0].epochs[e].values, results[1].epochs[e].values)
        << "epoch " << e << ": backends decided different values";
  }
}

// Determinism: each framing is a pure function of the config — two runs of
// the same seed produce identical event logs under every scheduler.
inline void run_replay_determinism(const Variant& variant,
                                   const Grid& grid = {}) {
  auto fingerprint = [](const EventLog& log) {
    std::vector<std::tuple<int, int, int, SessionId, std::int64_t, bool>> fp;
    for (const Event& e : log.events()) {
      fp.emplace_back(static_cast<int>(e.kind), e.who, e.other, e.sid,
                      e.value, e.has_value);
    }
    return fp;
  };
  for (SchedulerKind sched : sweep::kAllSchedulers) {
    std::optional<decltype(fingerprint(EventLog{}))> first;
    for (int rep = 0; rep < 2; ++rep) {
      RunnerConfig cfg;
      cfg.n = grid.n;
      cfg.t = grid.t;
      cfg.seed = grid.replay_seed;
      cfg.scheduler = sched;
      variant.apply(cfg);
      Runner r(cfg);
      auto res = r.run_coin();
      ASSERT_TRUE(res.all_output);
      auto fp = fingerprint(r.log());
      if (!first) {
        first = std::move(fp);
      } else {
        EXPECT_EQ(*first, fp)
            << variant.name << " under " << sweep::scheduler_name(sched);
      }
    }
  }
}

}  // namespace svss::equivalence
