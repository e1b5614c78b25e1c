#include "adversary/strategy.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "core/byzantine.hpp"
#include "core/node.hpp"

namespace svss::adversary {

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kEquivocatingDealer: return "equivocating-dealer";
    case StrategyKind::kAdaptiveShunAware: return "adaptive-shun-aware";
    case StrategyKind::kWithholdingModerator: return "withholding-moderator";
    case StrategyKind::kColludingCabal: return "colluding-cabal";
    case StrategyKind::kEquivocatingAcsProposer:
      return "equivocating-acs-proposer";
  }
  return "unknown";
}

namespace {

// --------------------------------------------------------------------
// Split-brain plumbing shared by the equivocating strategies.
//
// Two complete honest Nodes run side by side in one slot.  Every inbound
// packet is fed to both; each fork's own traffic (direct messages and RB
// steps of broadcasts it originates) reaches only its half of the process
// ids, and fork 0 alone relays other processes' broadcasts so relay duty
// is not duplicated.  Both forks receive the driver's start action, so
// role payloads (deal this secret, propose these bytes) execute twice
// against the slot's RNG stream — already a genuine divergence wherever
// the role draws randomness.  Derived strategies add their own fork-1
// deviation through fork_deviation().
// --------------------------------------------------------------------
class SplitBrainStrategy : public IStrategy {
 public:
  explicit SplitBrainStrategy(const AdversaryEnv& env) : IStrategy(env) {
    for (auto& b : branch_) {
      b = std::make_unique<Node>(env.self, env.n, env.t, env.framing);
    }
  }

  void start(Context& ctx) override {
    for (int b = 0; b < 2; ++b) {
      active_ = b;
      if (start_action_) branch_[b]->set_start_action(start_action_);
      branch_[b]->start(ctx);
    }
    active_ = 0;
  }

  void on_packet(Context& ctx, int from, const Packet& p) override {
    ++stats_.inbound;
    for (int b = 0; b < 2; ++b) {
      active_ = b;
      branch_[b]->on_packet(ctx, from, p);
    }
    active_ = 0;
  }

  bool on_outbound(int to, Packet& p) override {
    // Own traffic is partitioned by fork; relay duty for other origins is
    // fork 0's alone (the forks would otherwise double every echo/ready).
    bool own = !p.is_rb || p.bid.origin == env_.self;
    bool allow = own ? partition(to) == active_ : active_ == 0;
    if (!allow) {
      ++stats_.withheld;
      return false;
    }
    if (active_ == 1) fork_deviation(p);
    ++stats_.emitted;
    if (active_ == 1) ++stats_.forked;
    return true;
  }

  // Both halves see a fork, but the deviating branch (fork 1, the one
  // derived strategies rewrite) courts the upper half: those are the
  // processes a co-designed scheduler should starve to keep the two
  // stories from reconciling.
  [[nodiscard]] bool is_deceiving(int id) const override {
    return id != env_.self && id >= env_.n / 2;
  }

 protected:
  // Extra rewrite applied to fork 1's allowed packets (beyond the fork's
  // independently drawn randomness).  Default: none.
  virtual void fork_deviation(Packet& p) { (void)p; }

 private:
  [[nodiscard]] int partition(int to) const {
    return to < env_.n / 2 ? 0 : 1;
  }

  std::unique_ptr<Node> branch_[2];
  int active_ = 0;  // fork currently executing (single-threaded engine)
};

// --------------------------------------------------------------------
// EquivocatingDealer — a split-brain dealer.
//
// When the slot is asked to deal, both forks execute the full dealer
// state machine — drawing *distinct* bivariate polynomials from the
// slot's RNG stream — so the two halves of the system are courted with
// genuinely different dealings, not just perturbed values.  (Bracha RB
// provably survives this at n >= 3t+1: the equivocated broadcasts
// deliver one value or none, never two — which is exactly the liveness
// pressure the shunning machinery must absorb.)
// --------------------------------------------------------------------
class EquivocatingDealer final : public SplitBrainStrategy {
 public:
  using SplitBrainStrategy::SplitBrainStrategy;

  [[nodiscard]] const char* strategy_name() const override {
    return adversary::strategy_name(StrategyKind::kEquivocatingDealer);
  }
};

// --------------------------------------------------------------------
// EquivocatingAcsProposer — a split-brain common-subset proposer.
//
// The deviation targets the ACS driver: fork 1's own kAcsProposal
// broadcast is rewritten to carry a different proposal, so the lower half
// of the system is courted with one common-subset candidate and the upper
// half with another.  Each fork then runs the full ACS/ABA stack
// consistently with its own story (vouching, per-instance votes), which
// is exactly the pressure RB + per-instance agreement must absorb: the
// subset either excludes the proposer or contains one consistent proposal
// everywhere.
// --------------------------------------------------------------------
class EquivocatingAcsProposer final : public SplitBrainStrategy {
 public:
  using SplitBrainStrategy::SplitBrainStrategy;

  [[nodiscard]] const char* strategy_name() const override {
    return adversary::strategy_name(StrategyKind::kEquivocatingAcsProposer);
  }

 protected:
  void fork_deviation(Packet& p) override {
    if (p.is_rb && p.phase == RbPhase::kSend && p.bid.origin == env_.self &&
        p.bid.slot == MsgType::kAcsProposal) {
      mutate_outbound_message(
          p, env_.self,
          [](Message& m) { m.blob.push_back(0x5A); },
          /*mutate_relays=*/false);
      ++stats_.mutated;
    }
  }
};

// --------------------------------------------------------------------
// AdaptiveShunAware — deviates until it infers an accusation, then hides.
//
// Runs one honest Node but corrupts its MW-SVSS reconstruct broadcasts
// (the deviation DMM rules 2-3 detect) for as long as it believes no
// honest process has accused it.  The belief is *message-observable*:
// the strategy never touches the global event log, so it stays legal on
// transports without omniscience (sockets).  What it watches instead is
// L/M-set membership in delivered RB traffic.  A process that detects
// this slot discards its messages in every later session (DMM rule 4),
// so from that point the detector's published confirmer sets L and
// accepted-monitor sets M stop naming this slot — permanently.  A single
// exclusion is innocent (sets publish at the n-t threshold, so the
// slowest process of the moment is routinely left out); a *streak* of
// them from the same origin with no intervening inclusion is the
// signature of a forever-delayed channel.  Once the streak crosses the
// threshold the strategy turns honest, probing whether shunning is
// sticky: DMM must keep the detection anchored even though the process
// never misbehaves again.
// --------------------------------------------------------------------
class AdaptiveShunAware final : public IStrategy {
 public:
  explicit AdaptiveShunAware(const AdversaryEnv& env)
      : IStrategy(env),
        excluded_streak_(static_cast<std::size_t>(env.n), 0),
        node_(std::make_unique<Node>(env.self, env.n, env.t, env.framing)) {}

  [[nodiscard]] const char* strategy_name() const override {
    return adversary::strategy_name(StrategyKind::kAdaptiveShunAware);
  }

  void start(Context& ctx) override {
    if (start_action_) node_->set_start_action(start_action_);
    node_->start(ctx);
  }

  void on_packet(Context& ctx, int from, const Packet& p) override {
    ++stats_.inbound;
    observe_sets(p);
    node_->on_packet(ctx, from, p);
  }

  // Every peer sees the corrupted recon broadcasts until the strategy
  // infers an accusation and turns honest.
  [[nodiscard]] bool is_deceiving(int id) const override {
    return !stats_.adapted && id != env_.self;
  }

  bool on_outbound(int /*to*/, Packet& p) override {
    if (!stats_.adapted) {
      bool touched = false;
      mutate_outbound_message(
          p, env_.self,
          [&](Message& m) {
            // The deviation DMM rules 2-3 catch, on either framing:
            // corrupting the first recon value corrupts one per-session
            // value.
            batch::for_each_value(m, MsgType::kMwReconVal, [&](Fp& v) {
              if (!touched) v += Fp(1);
              touched = true;
            });
          },
          /*mutate_relays=*/false);
      if (touched) ++stats_.mutated;
    }
    ++stats_.emitted;
    return true;
  }

 private:
  // An origin must leave this slot out of this many consecutive observed
  // publications (post-deviation) before the exclusions read as shunning
  // rather than as losing the n-t publication race.  At n = 4 a set
  // usually names 3 of 4 candidates, so an innocent exclusion happens
  // routinely but an innocent *streak* decays geometrically — while a
  // detector excludes us in every set it ever publishes again.
  static constexpr int kExclusionStreak = 3;

  void observe_sets(const Packet& p) {
    // Accusations can only follow deviations: until the first corrupted
    // recon broadcast has gone out there is nothing to be accused of, so
    // set membership before that point is pure publication-race noise.
    if (stats_.adapted || stats_.mutated == 0 || !p.is_rb) return;
    MsgType slot = p.bid.slot;
    bool per_session = slot == MsgType::kMwLset || slot == MsgType::kMwMset;
    bool batched =
        slot == MsgType::kMwBatchLset || slot == MsgType::kMwBatchMset;
    if ((!per_session && !batched) || p.bid.origin == env_.self) return;
    // RB hands us every phase of the instance (send, echoes, readys), all
    // carrying the same payload — score each envelope exactly once.
    if (!seen_.insert(p.bid).second) return;
    auto msg = Message::deserialize(p.rb_payload());
    if (!msg) return;
    // The sets of one envelope are flushed together and share one
    // schedule, so they are one observation, not one per set: count the
    // message as including us iff *any* of its sets does.  A malformed
    // envelope is not our bug to diagnose.
    bool included = false;
    if (!batch::for_each_member_set(*msg, [&](std::span<const int> set) {
          if (std::find(set.begin(), set.end(), env_.self) != set.end()) {
            included = true;
          }
        })) {
      return;
    }
    int& streak = excluded_streak_[static_cast<std::size_t>(p.bid.origin)];
    if (included) {
      streak = 0;
      return;
    }
    if (++streak >= kExclusionStreak) stats_.adapted = true;
  }

  // Consecutive self-free publications per origin since the first
  // deviation (cleared when the first corrupted broadcast goes out).
  std::vector<int> excluded_streak_;
  std::unordered_set<BcastId, BcastIdHash> seen_;
  std::unique_ptr<Node> node_;
};

// --------------------------------------------------------------------
// WithholdingModerator — honest except that its moderator M-set broadcasts
// never leave the process.  Every MW-SVSS session this slot moderates
// stalls in S' step 6 forever; dealers and the coin must route around the
// missing pairs (G-set / support-set selection) for termination to hold.
// --------------------------------------------------------------------
class WithholdingModerator final : public IStrategy {
 public:
  explicit WithholdingModerator(const AdversaryEnv& env)
      : IStrategy(env),
        node_(std::make_unique<Node>(env.self, env.n, env.t, env.framing)) {}

  [[nodiscard]] const char* strategy_name() const override {
    return adversary::strategy_name(StrategyKind::kWithholdingModerator);
  }

  void start(Context& ctx) override {
    if (start_action_) node_->set_start_action(start_action_);
    node_->start(ctx);
  }

  void on_packet(Context& ctx, int from, const Packet& p) override {
    ++stats_.inbound;
    node_->on_packet(ctx, from, p);
  }

  // The withheld M-sets are denied to everyone alike.
  [[nodiscard]] bool is_deceiving(int id) const override {
    return id != env_.self;
  }

  bool on_outbound(int /*to*/, Packet& p) override {
    // Both framings: the per-session broadcast and the group envelope
    // (kMwBatchMset coalesces only M-sets, so dropping it whole is the
    // same per-session deviation).
    auto is_mset = [](MsgType type) {
      return type == MsgType::kMwMset || type == MsgType::kMwBatchMset;
    };
    bool withhold =
        p.is_rb ? p.bid.origin == env_.self && is_mset(p.bid.slot)
                : is_mset(p.app.type);
    if (withhold) {
      ++stats_.withheld;
      return false;
    }
    ++stats_.emitted;
    return true;
  }

 private:
  std::unique_ptr<Node> node_;
};

// --------------------------------------------------------------------
// ColludingCabal — t coordinated faults sharing a view.
//
// All members consult one CabalView: a common false-value delta presented
// to the lower half of the system (members show each other true values, so
// the lie is mutually consistent and survives cross-checks between
// colluders), a shared accusation watch (the first shun accusation against
// *any* member flips the whole cabal to honest behaviour at once), and an
// optional shared delivery clock for a coordinated simultaneous crash.
// --------------------------------------------------------------------
struct CabalView {
  std::vector<int> members;
  Fp delta{1};
  std::uint64_t observed = 0;      // deliveries witnessed by any member
  std::uint64_t silence_after = 0; // 0 = never crash
  bool silenced = false;
  bool evading = false;            // some member was accused
  std::size_t log_cursor = 0;      // shared event-log watermark
};

class ColludingCabal final : public IStrategy {
 public:
  ColludingCabal(const AdversaryEnv& env, std::shared_ptr<CabalView> view)
      : IStrategy(env),
        view_(std::move(view)),
        node_(std::make_unique<Node>(env.self, env.n, env.t, env.framing)) {}

  [[nodiscard]] const char* strategy_name() const override {
    return adversary::strategy_name(StrategyKind::kColludingCabal);
  }

  void start(Context& ctx) override {
    if (start_action_) node_->set_start_action(start_action_);
    node_->start(ctx);
  }

  void on_packet(Context& ctx, int from, const Packet& p) override {
    ++stats_.inbound;
    ++view_->observed;
    if (view_->silence_after != 0 &&
        view_->observed >= view_->silence_after) {
      view_->silenced = true;  // every member falls silent this instant
    }
    observe_accusations(ctx);
    node_->on_packet(ctx, from, p);
  }

  // The false-value delta goes to lower-half non-members, and only while
  // the cabal is neither evading nor silenced — exactly the processes a
  // co-designed scheduler should starve so the lie keeps propagating.
  [[nodiscard]] bool is_deceiving(int id) const override {
    return !view_->evading && !view_->silenced && id < env_.n / 2 &&
           !is_member(id);
  }

  bool on_outbound(int to, Packet& p) override {
    if (view_->silenced) {
      ++stats_.withheld;
      return false;
    }
    stats_.adapted = view_->evading;
    if (!view_->evading && !is_member(to) && to < env_.n / 2) {
      bool touched = false;
      Fp delta = view_->delta;
      mutate_outbound_message(
          p, env_.self,
          [&](Message& m) {
            for (Fp& v : m.vals) v += delta;
            touched = !m.vals.empty();
          },
          /*mutate_relays=*/false);
      if (touched) ++stats_.mutated;
    }
    ++stats_.emitted;
    return true;
  }

 private:
  [[nodiscard]] bool is_member(int id) const {
    for (int m : view_->members) {
      if (m == id) return true;
    }
    return false;
  }

  void observe_accusations(Context& ctx) {
    const auto& events = ctx.log().events();
    for (; view_->log_cursor < events.size(); ++view_->log_cursor) {
      const Event& e = events[view_->log_cursor];
      if (e.kind != EventKind::kShun || is_member(e.who)) continue;
      if (is_member(e.other)) view_->evading = true;
    }
  }

  std::shared_ptr<CabalView> view_;
  std::unique_ptr<Node> node_;
};

}  // namespace

AdversarySlotFactory make_strategy(const AdversaryConfig& cfg) {
  switch (cfg.kind) {
    case StrategyKind::kEquivocatingDealer:
      return [](const AdversaryEnv& env) {
        return std::make_unique<EquivocatingDealer>(env);
      };
    case StrategyKind::kEquivocatingAcsProposer:
      return [](const AdversaryEnv& env) {
        return std::make_unique<EquivocatingAcsProposer>(env);
      };
    case StrategyKind::kAdaptiveShunAware:
      return [](const AdversaryEnv& env) {
        return std::make_unique<AdaptiveShunAware>(env);
      };
    case StrategyKind::kWithholdingModerator:
      return [](const AdversaryEnv& env) {
        return std::make_unique<WithholdingModerator>(env);
      };
    case StrategyKind::kColludingCabal: {
      // A standalone colluding slot is a cabal of one; the view is created
      // lazily so the factory can be copied into several configs safely.
      std::uint64_t silence = cfg.silence_after;
      return [silence](const AdversaryEnv& env) {
        auto view = std::make_shared<CabalView>();
        view->members = {env.self};
        view->silence_after = silence;
        return std::make_unique<ColludingCabal>(env, std::move(view));
      };
    }
  }
  throw std::invalid_argument("make_strategy: unknown StrategyKind");
}

std::vector<AdversarySlotFactory> make_cabal(const std::vector<int>& members,
                                             const AdversaryConfig& cfg) {
  auto view = std::make_shared<CabalView>();
  view->members = members;
  view->silence_after = cfg.silence_after;
  std::vector<AdversarySlotFactory> out;
  out.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    out.push_back([view](const AdversaryEnv& env) {
      return std::make_unique<ColludingCabal>(env, view);
    });
  }
  return out;
}

}  // namespace svss::adversary
