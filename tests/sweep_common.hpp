// Almost-sure-termination sweep harness.
//
// The paper's headline property is that every honest process terminates
// with probability 1 against a full-information adversary.  A single run
// cannot witness that; a sweep over seeds x adversary strategies x
// schedulers can at least falsify it: any run that exhausts its delivery
// budget (Metrics::capped) is a potential non-termination witness, and any
// run where honest decisions disagree or violate validity is a safety
// counterexample.  The harness quantifies over the strategy catalogue in
// src/adversary/ and every SchedulerKind, and reports capped-run and
// violation rates as first-class counters.
//
// Used by tests/termination_sweep_test.cpp (tier-1 scale) and by the CI
// stress job, which exports the report as a build artifact (set
// SVSS_SWEEP_REPORT=<path> to write the JSON report).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/runner.hpp"

namespace svss::sweep {

inline constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kFifo,
    SchedulerKind::kRandom,
    SchedulerKind::kLifo,
    SchedulerKind::kDelayLastHonest,
};

inline const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kLifo: return "lifo";
    case SchedulerKind::kDelayLastHonest: return "delay-last-honest";
  }
  return "unknown";
}

struct SweepSpec {
  std::vector<int> ns;  // t = (n-1)/3, and t slots host the strategy
  std::vector<adversary::StrategyKind> strategies;
  std::vector<SchedulerKind> schedulers;
  std::vector<std::uint64_t> seeds;
  // The full SVSS-coin stack runs where it is affordable; larger n fall
  // back to the ideal-coin abstraction (same convention as bench_aba's E6:
  // the SCC itself is exercised at small n, the agreement skeleton at
  // scale).
  int full_stack_max_n = 4;
  std::uint64_t max_deliveries = 20'000'000;
  // Optional per-cell config mutation (mixed-fleet framing overrides and
  // the like), applied after the base fields and before the strategy is
  // installed.
  std::function<void(RunnerConfig&)> configure;
  // Optional custom schedule: when set, every cell runs under this factory
  // instead of the SchedulerKind axis (set `schedulers` to a single
  // placeholder kind), and report rows carry `scheduler_label` so
  // search-found genome schedules (src/search/) are distinguishable from
  // the fixed catalogue in sweep artifacts.
  SchedulerFactory scheduler_factory;
  std::string scheduler_label;
};

// Honest-input pattern of one cell.  Mixed inputs exercise the coin path
// (any decision is valid, so only agreement/termination can fail there);
// unanimous inputs make the *validity* counter falsifiable: the decision
// must equal the one honest input value, so a protocol that decided a
// constant would be caught.
enum class InputPattern { kMixed, kAllZero, kAllOne };

inline const char* pattern_name(InputPattern p) {
  switch (p) {
    case InputPattern::kMixed: return "mixed";
    case InputPattern::kAllZero: return "all-0";
    case InputPattern::kAllOne: return "all-1";
  }
  return "unknown";
}

// Derived from the seed so every seed list covers several patterns
// without growing the grid: seeds ≡ 0,1 (mod 4) run mixed inputs (the
// adversarially interesting case, weighted double), ≡ 2 all-zero, ≡ 3
// all-one.
inline InputPattern pattern_for_seed(std::uint64_t seed) {
  switch (seed % 4) {
    case 2: return InputPattern::kAllZero;
    case 3: return InputPattern::kAllOne;
    default: return InputPattern::kMixed;
  }
}

// Whether every deviation of `kind` in an agreement run targets the
// coin's VSS traffic.  The split-brain strategies also equivocate
// agreement votes from round 1, which needs no coin; the others can only
// attack once some coin round was dealt.
inline bool attacks_only_coin(adversary::StrategyKind kind) {
  switch (kind) {
    case adversary::StrategyKind::kEquivocatingDealer:
    case adversary::StrategyKind::kEquivocatingAcsProposer:
      return false;
    default:
      return true;
  }
}

struct CellResult {
  int n = 0;
  int t = 0;
  adversary::StrategyKind strategy{};
  SchedulerKind scheduler{};
  std::string scheduler_label;  // non-empty for custom-factory schedules
  std::uint64_t seed = 0;
  InputPattern pattern{};
  CoinMode mode{};
  bool capped = false;
  bool all_decided = false;
  bool agreed = false;
  bool valid = false;      // decision justified by some honest input
  bool attacked = false;   // the strategy observably deviated (non-vacuity)
  // Some honest agreement fell through to the SVSS coin, and some honest
  // process output a coin.  The coin is dealt only on demand, so an
  // attack on the coin's VSS is only meaningful in cells where both hold.
  bool coin_requested = false;
  bool coin_output = false;
  std::uint32_t rounds = 0;
  std::uint64_t deliveries = 0;
};

struct SweepReport {
  std::vector<CellResult> cells;
  int capped_runs = 0;
  int safety_violations = 0;  // agreement or validity broken
  int undecided_runs = 0;     // quiescent but some honest process undecided
  int vacuous_runs = 0;       // adversary never emitted a deviation
  // SVSS-coin cells whose adversary attacked although no honest process
  // requested and output a coin: the attack hit nothing the agreement
  // used.  Counted for strategies that only attack the coin's VSS traffic
  // (see attacks_only_coin).
  int attacked_without_coin = 0;

  [[nodiscard]] int total() const { return static_cast<int>(cells.size()); }

  // Cells in which `kind` observably deviated.  A *sweep-level* coverage
  // check: each strategy must attack somewhere in the grid.  (Individual
  // cells may legitimately be vacuous — e.g. a FIFO schedule can decide in
  // round 1 before the coin's reconstruct phase ever gives a recon
  // corrupter or M-set withholder its attack surface.)
  [[nodiscard]] int attacked_count(adversary::StrategyKind kind) const {
    int count = 0;
    for (const CellResult& c : cells) {
      if (c.strategy == kind && c.attacked) ++count;
    }
    return count;
  }

  // Cells in which `kind` attacked while some honest agreement requested
  // the SVSS coin and some honest process output it: the attack met a coin
  // the agreement actually used.
  [[nodiscard]] int coin_attacked_count(adversary::StrategyKind kind) const {
    int count = 0;
    for (const CellResult& c : cells) {
      if (c.strategy == kind && c.attacked && c.mode == CoinMode::kSvss &&
          c.coin_requested && c.coin_output) {
        ++count;
      }
    }
    return count;
  }

  void add(const CellResult& c) {
    cells.push_back(c);
    if (c.capped) ++capped_runs;
    if (c.all_decided && !(c.agreed && c.valid)) ++safety_violations;
    if (!c.capped && !c.all_decided) ++undecided_runs;
    if (!c.attacked) ++vacuous_runs;
    if (c.attacked && c.mode == CoinMode::kSvss &&
        attacks_only_coin(c.strategy) &&
        !(c.coin_requested && c.coin_output)) {
      ++attacked_without_coin;
    }
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\n  \"total\": " + std::to_string(total()) +
                      ",\n  \"capped_runs\": " + std::to_string(capped_runs) +
                      ",\n  \"safety_violations\": " +
                      std::to_string(safety_violations) +
                      ",\n  \"undecided_runs\": " +
                      std::to_string(undecided_runs) +
                      ",\n  \"vacuous_runs\": " +
                      std::to_string(vacuous_runs) +
                      ",\n  \"attacked_without_coin\": " +
                      std::to_string(attacked_without_coin) +
                      ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellResult& c = cells[i];
      out += std::string("    {\"n\": ") + std::to_string(c.n) +
             ", \"strategy\": \"" + adversary::strategy_name(c.strategy) +
             "\", \"scheduler\": \"" +
             (c.scheduler_label.empty() ? scheduler_name(c.scheduler)
                                        : c.scheduler_label.c_str()) +
             "\", \"seed\": " + std::to_string(c.seed) +
             ", \"inputs\": \"" + pattern_name(c.pattern) +
             "\", \"coin\": \"" +
             (c.mode == CoinMode::kSvss ? "svss" : "ideal") +
             "\", \"capped\": " + (c.capped ? "true" : "false") +
             ", \"decided\": " + (c.all_decided ? "true" : "false") +
             ", \"agreed\": " + (c.agreed ? "true" : "false") +
             ", \"valid\": " + (c.valid ? "true" : "false") +
             ", \"attacked\": " + (c.attacked ? "true" : "false") +
             ", \"coin_only\": " +
             (attacks_only_coin(c.strategy) ? "true" : "false") +
             ", \"coin_requested\": " + (c.coin_requested ? "true" : "false") +
             ", \"coin_output\": " + (c.coin_output ? "true" : "false") +
             ", \"rounds\": " + std::to_string(c.rounds) +
             ", \"deliveries\": " + std::to_string(c.deliveries) + "}";
      out += i + 1 < cells.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
  }
};

// One ABA termination cell: t strategy-driven faulty slots (the top ids),
// mixed honest inputs, run to honest decision or the delivery cap.
inline CellResult run_aba_cell(int n, adversary::StrategyKind strategy,
                               SchedulerKind scheduler, std::uint64_t seed,
                               const SweepSpec& spec) {
  CellResult cell;
  cell.n = n;
  cell.t = (n - 1) / 3;
  if (cell.t < 1) {
    // A strategy-driven fault at t = 0 would exceed the fault budget and
    // report protocol "violations" that are really over-budget adversary
    // artifacts; the sweep is only meaningful from n >= 4.
    throw std::invalid_argument("run_aba_cell: need n >= 4 (t >= 1)");
  }
  cell.strategy = strategy;
  cell.scheduler = scheduler;
  cell.seed = seed;
  cell.pattern = pattern_for_seed(seed);
  cell.mode = n <= spec.full_stack_max_n ? CoinMode::kSvss
                                         : CoinMode::kIdealCommon;

  RunnerConfig cfg;
  cfg.n = n;
  cfg.t = cell.t;
  cfg.seed = seed;
  cfg.scheduler = scheduler;
  cfg.max_deliveries = spec.max_deliveries;
  // Per-session vote framing: the sweep's non-vacuity check needs every
  // strategy to reach its attack surface (the coin's MW recon phase), but
  // batched votes let agreement outpace the coin machinery, so a run can
  // stop — all honest decided — before any recon broadcast leaves the
  // adversary slot.  Vote-batching correctness has its own equivalence
  // coverage; this sweep is about adversary/DMM behavior.
  cfg.transport.aba_votes = Framing::kPerSession;
  if (spec.scheduler_factory) {
    cfg.scheduler_factory = spec.scheduler_factory;
    cell.scheduler_label = spec.scheduler_label;
  }
  if (spec.configure) spec.configure(cfg);
  int faulty = cell.t;
  adversary::AdversaryConfig base;
  if (strategy == adversary::StrategyKind::kColludingCabal &&
      cell.mode == CoinMode::kIdealCommon) {
    // Without the VSS stack there are no field values to corrupt, so give
    // the cabal its other coordinated weapon: a shared silence clock (all
    // members crash in the same observed instant mid-agreement).
    base.silence_after = 300;
  }
  adversary::install_adversaries(cfg, strategy, faulty, base);

  Runner r(cfg);
  std::vector<int> inputs;
  for (int i = 0; i < n; ++i) {
    switch (cell.pattern) {
      case InputPattern::kMixed: inputs.push_back(i % 2); break;
      case InputPattern::kAllZero: inputs.push_back(0); break;
      case InputPattern::kAllOne: inputs.push_back(1); break;
    }
  }
  auto res = r.run_aba(inputs, cell.mode);

  cell.capped = res.metrics.capped;
  cell.all_decided = res.all_decided;
  cell.agreed = res.agreed;
  cell.rounds = res.max_round;
  cell.deliveries = res.metrics.packets_delivered;
  // Validity: the decision must be the input of some honest process.
  cell.valid = true;
  if (res.all_decided) {
    bool justified = false;
    for (int i : r.honest_ids()) {
      if (inputs[static_cast<std::size_t>(i)] == res.value) justified = true;
    }
    cell.valid = justified;
  }
  // Non-vacuity: the strategy must have done *something* beyond honest
  // behaviour (forked, mutated or withheld traffic, or run to the point of
  // adapting).  A sweep full of passive adversaries proves nothing.
  for (int i = n - faulty; i < n; ++i) {
    const StrategyStats& st = r.adversary(i)->stats();
    if (st.forked + st.mutated + st.withheld > 0 || st.adapted) {
      cell.attacked = true;
    }
  }
  for (int i : r.honest_ids()) {
    const AbaSession* a = r.node(i).aba();
    for (std::uint32_t round = 1; a != nullptr && round <= a->current_round();
         ++round) {
      if (a->snapshot(round).coin_requested) cell.coin_requested = true;
    }
  }
  for (const Event& e : r.engine().log().events()) {
    if (e.kind == EventKind::kCoinOutput && r.is_honest(e.who)) {
      cell.coin_output = true;
    }
  }
  return cell;
}

inline SweepReport run_aba_termination_sweep(const SweepSpec& spec) {
  SweepReport report;
  for (int n : spec.ns) {
    for (auto strategy : spec.strategies) {
      for (auto scheduler : spec.schedulers) {
        for (std::uint64_t seed : spec.seeds) {
          report.add(run_aba_cell(n, strategy, scheduler, seed, spec));
        }
      }
    }
  }
  return report;
}

// Appends `report` (labeled) to the path in SVSS_SWEEP_REPORT, if set.
// The CI stress job uploads that file as the capped-run-rate artifact.
inline void maybe_write_report(const SweepReport& report,
                               const char* label) {
  const char* path = std::getenv("SVSS_SWEEP_REPORT");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << "{\"sweep\": \"" << label << "\", \"report\": " << report.to_json()
      << "}\n";
}

}  // namespace svss::sweep
