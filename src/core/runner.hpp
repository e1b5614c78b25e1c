// core::Runner — reproducible end-to-end experiment harness.
//
// A Runner assembles a cluster of n process slots — each a ProcessHost
// running either an honest Node or (on the simulator) an adversary
// strategy (src/adversary/) — installs Byzantine wire interceptors as the
// faulty slots' send hooks, and exposes canned experiment drivers for
// every layer of the stack: one MW-SVSS session, one SVSS session, one
// common-coin round, and full agreement runs (the paper's protocol plus
// the Bracha-local-coin and Ben-Or baselines, ACS, MVBA, secure sum, and
// epoch scripts).  Each driver is written once against the Cluster seam
// (core/daemon.hpp) and runs on the simulator or over socket loopback.  A
// sim run is a pure function of the config, so any interesting outcome
// can be replayed from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/adversary_slot.hpp"
#include "core/byzantine.hpp"
#include "core/daemon.hpp"
#include "core/epoch.hpp"
#include "core/node.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"

namespace svss {

// Builds a run's scheduler from (scheduler seed, n, t).  The run stays a
// pure function of its config only if the factory is a pure function of
// these arguments — which every shipped factory (make_scheduler kinds,
// search/genome.hpp genome schedules) is.
using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(std::uint64_t seed, int n, int t)>;

struct RunnerConfig {
  int n = 4;
  int t = 1;  // resilience parameter used by the protocol logic
  std::uint64_t seed = 1;
  SchedulerKind scheduler = SchedulerKind::kRandom;
  // When set, overrides `scheduler`: the run's delivery order comes from
  // this factory's scheduler instead of a fixed SchedulerKind.  This is how
  // search-found schedule genomes (src/search/) and other custom schedule
  // adversaries enter a run; the Runner attaches its ScheduleView to
  // whatever the factory builds, so the scheduler may consult observable
  // strategy/protocol state (sim/scheduler.hpp).
  SchedulerFactory scheduler_factory;
  std::map<int, ByzConfig> faults;  // id -> behaviour (absent == honest)
  // id -> adversary strategy occupying that slot instead of an honest
  // Node.  Populated via the svss::adversary install helpers.  A slot may
  // additionally appear in `faults`; its wire interceptor then composes on
  // top of the strategy's outbound gate.
  std::map<int, AdversarySlotFactory> adversaries;
  std::uint64_t max_deliveries = 50'000'000;
  // The paper's protocols are only safe at optimal resilience n >= 3t+1;
  // the Runner rejects weaker configs unless this is set.  Experiments
  // that deliberately cross the bound (e.g. bench_resilience's n = 3t
  // stall demonstration) opt in explicitly.
  bool allow_sub_resilience = false;
  // Print a one-line warning to stderr when a run stops at the delivery
  // cap (the outcome is also surfaced in Metrics::capped either way).
  bool warn_on_cap = true;
  // The run's transport surface: which backend (sim | socket-loopback) and
  // which wire framings (coin-dealing batch, MW group coalescing, vote
  // batching, per-slot overrides).  See net/transport.hpp for the
  // semantics of each knob.
  //
  // kSocketLoopback runs every driver on the same protocol code over n real
  // TCP endpoints on 127.0.0.1 (one thread each; core/daemon.hpp's
  // LoopbackCluster) instead of the simulator.  `scheduler` is ignored
  // (the kernel is the scheduler), `faults` apply through the send hook,
  // and `adversaries` are rejected — strategies need scheduler-side
  // determinism the socket backend cannot give.
  TransportOptions transport;
};

// Canonical session ids for top-level invocations.
SessionId mw_top_id(std::uint32_t c, int dealer, int moderator);
SessionId svss_top_id(std::uint32_t c, int dealer);

class Runner {
 public:
  explicit Runner(RunnerConfig cfg);

  // The simulator engine; throws on a socket-loopback Runner.
  Engine& engine();
  // The honest Node in slot i; throws if the slot hosts an adversary.
  Node& node(int i);
  // The adversary strategy in slot i, or nullptr for honest slots.
  [[nodiscard]] AdversarySlot* adversary(int i);
  // A Context acting as slot i, on either backend (between runs only).
  Context ctx(int i) { return cluster_->ctx(i); }
  // Every slot's protocol events so far, on either backend.
  [[nodiscard]] const EventLog& log() const { return cluster_->merged_log(); }
  [[nodiscard]] bool is_honest(int i) const;
  [[nodiscard]] std::vector<int> honest_ids() const;
  [[nodiscard]] const RunnerConfig& config() const { return cfg_; }

  // ------------------------------------------------------------------
  // Layer experiment drivers
  // ------------------------------------------------------------------
  struct ShareResult {
    bool all_honest_shared = false;
    bool all_honest_output = false;
    std::map<int, std::optional<Fp>> outputs;  // honest only
    std::vector<std::pair<int, int>> shun_pairs;
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  using MwResult = ShareResult;
  using SvssResult = ShareResult;
  // Runs one MW-SVSS session: dealer deals `secret`, the moderator's input
  // is `moderator_input`; reconstruction starts once every honest process
  // finished the share phase (if requested and sharing succeeded).
  MwResult run_mwsvss(Fp secret, Fp moderator_input, int dealer = 0,
                      int moderator = 1, bool reconstruct = true);

  SvssResult run_svss(Fp secret, int dealer = 0, bool reconstruct = true);

  struct CoinResult {
    std::map<int, int> bits;  // honest only
    bool all_output = false;
    bool agreed = false;
    std::vector<std::pair<int, int>> shun_pairs;
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  CoinResult run_coin(std::uint32_t round = 1);

  struct AbaResult {
    std::map<int, int> decisions;  // honest only
    std::map<int, std::uint32_t> decision_rounds;
    bool all_decided = false;
    bool agreed = false;
    int value = -1;
    std::uint32_t max_round = 0;
    std::vector<std::pair<int, int>> shun_pairs;
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  // inputs.size() must be n; faulty inputs are fed to the (tampered) nodes
  // as well.
  AbaResult run_aba(const std::vector<int>& inputs,
                    CoinMode mode = CoinMode::kSvss);
  AbaResult run_benor(const std::vector<int>& inputs);

  // ------------------------------------------------------------------
  // Multi-instance agreement: many concurrent instances, one stack
  // ------------------------------------------------------------------
  // Queues agreement instance `instance` with one input per process
  // (inputs.size() must be n).  All queued instances start together in
  // run_submitted(), multiplexed over the same nodes and transport —
  // their votes share session space via SessionId::instance and, under
  // the default framing, the same kAbaBatchVote envelopes.  Do not mix
  // with run_acs in one Runner: the ACS layer owns instances [0, n).
  void submit(std::uint32_t instance, std::vector<int> inputs);

  struct MultiAbaResult {
    // instance -> honest id -> decision.
    std::map<std::uint32_t, std::map<int, int>> decisions;
    // instance -> the agreed value (populated iff that instance agreed).
    std::map<std::uint32_t, int> values;
    bool all_decided = false;  // every honest node decided every instance
    bool agreed = false;       // ... and per-instance decisions match
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  // Drives every submitted instance to decision concurrently, stopping at
  // the first delivery after which every honest node has decided every
  // submitted instance.  Consumes the queue.
  MultiAbaResult run_submitted(CoinMode mode = CoinMode::kIdealCommon);

  // ------------------------------------------------------------------
  // Membership reconfiguration (core/epoch.hpp)
  // ------------------------------------------------------------------
  // Runs a script of membership epochs over the config's universe of n
  // transport slots: per epoch, every live member runs the plan's
  // agreement instances, then all members agree the boundary (one
  // reserved instance) and the next config installs — join, leave, or
  // replace of slots, plus members that crash exactly at a boundary.
  // Faults/adversaries are rejected — the reconfiguration adversary is
  // EpochPlan's crash set.  Defined in core/epoch.cpp.
  EpochsResult run_epochs(const std::vector<EpochPlan>& script,
                          CoinMode mode = CoinMode::kIdealCommon);

  struct AcsResult {
    std::map<int, std::vector<std::pair<int, Bytes>>> outputs;  // honest
    bool all_output = false;
    bool agreed = false;
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  // Agreement on a common subset; proposals.size() must be n.
  AcsResult run_acs(const std::vector<Bytes>& proposals,
                    CoinMode mode = CoinMode::kIdealCommon);

  struct MvbaResult {
    std::map<int, std::uint64_t> decisions;  // honest only
    bool all_decided = false;
    bool agreed = false;
    std::uint64_t value = 0;
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  // Multivalued agreement (Turpin-Coan); proposals.size() must be n.
  MvbaResult run_mvba(const std::vector<Fp>& proposals, Fp default_value,
                      CoinMode mode = CoinMode::kIdealCommon);

  struct SumResult {
    std::map<int, std::uint64_t> outputs;  // honest only
    std::map<int, std::set<int>> cores;    // agreed input providers
    bool all_output = false;
    bool agreed = false;
    Metrics metrics;
    RunStatus status = RunStatus::kQuiescent;
  };
  // ASMPC secure sum; inputs.size() must be n.
  SumResult run_secure_sum(const std::vector<Fp>& inputs,
                           CoinMode mode = CoinMode::kIdealCommon);

  // Shun events observed by honest processes (a Byzantine node running the
  // honest code can "detect" its own tampered traffic; those events are
  // noise and are filtered out of results).
  [[nodiscard]] std::vector<std::pair<int, int>> honest_shun_pairs() const;

 private:
  // The one run path of every driver: Cluster::run_until over `waited`,
  // with the delivery-cap / timeout warning.
  RunStatus run_slots(const std::function<bool(int)>& done,
                      std::vector<int> waited);
  // run_slots over the honest slots, with a predicate on each one's Node.
  RunStatus run_until_honest(const std::function<bool(const Node&)>& pred);
  // MW-SVSS / SVSS body: share, then (if asked) every slot that completed
  // the share phase enters reconstruction.  find(node) -> session or null;
  // open(ctx, node) -> session.
  template <class Find, class Open>
  ShareResult share_then_reconstruct(bool reconstruct, Find find, Open open);
  // run_aba / run_benor body: runs until every honest slot's agreement
  // session get(node) (AbaSession, BenOrSession) decided, then collects.
  template <class Get>
  AbaResult run_agreement(Get get);
  // Routes a driver's start action to whatever occupies slot i (honest
  // Node or adversary strategy).
  void set_slot_start(int i, std::function<void(Context&, Node&)> action);

  // --- the drivers' result helpers (here and core/epoch.cpp) ---
  // Whether a driver's session (or nullptr) finished: decided() for the
  // agreement sessions, has_output() for the rest.
  template <class S>
  static bool finished(const S* s) {
    if constexpr (requires { s->decided(); }) {
      return s != nullptr && s->decided();
    } else {
      return s != nullptr && s->has_output();
    }
  }
  // The one output collector: into[i] = proj(out) for every slot i whose
  // session get(i) finished, `out` being its decision() or output().  True
  // iff every slot's session finished.
  template <class V, class Get, class Proj = std::identity>
  static bool collect(const std::vector<int>& slots, Get get,
                      std::map<int, V>& into, Proj proj = {}) {
    bool all = true;
    for (int i : slots) {
      const auto* s = get(i);
      if (!finished(s)) {
        all = false;
      } else if constexpr (requires { s->decision(); }) {
        into.emplace(i, std::invoke(proj, s->decision()));
      } else {
        into.emplace(i, std::invoke(proj, s->output()));
      }
    }
    return all;
  }
  // True iff `out` is non-empty and every value in it is the same.
  template <class V>
  static bool unanimous(const std::map<int, V>& out) {
    for (const auto& [i, v] : out) {
      if (!(v == out.begin()->second)) return false;
    }
    return !out.empty();
  }

  std::map<std::uint32_t, std::vector<int>> submitted_;

  RunnerConfig cfg_;
  // The backend (core/daemon.hpp): a SimCluster, or a LoopbackCluster when
  // cfg.transport.kind is kSocketLoopback.  sim_ borrows the former.
  std::unique_ptr<Cluster> cluster_;
  SimCluster* sim_ = nullptr;
  std::vector<Node*> nodes_;         // borrowed; nullptr for adversary slots
  std::vector<AdversarySlot*> advs_; // borrowed; nullptr for honest slots
  // Observable run state served to the scheduler (sim/scheduler.hpp):
  // delivery clock from the engine, slot/deception classification from the
  // adversary slots.  Owned here because it borrows both.
  std::unique_ptr<ScheduleView> sched_view_;
};

}  // namespace svss
