// Asynchronous Byzantine agreement from a shunning common coin (paper
// Section 5, Theorem 1).
//
// The paper composes SVSS into the Canetti-Rabin agreement skeleton: rounds
// of justified voting whose fallback estimate is a common-coin flip.  We
// implement the round structure with three exchanges per round:
//
//  1. EST, a BV-broadcast (t+1 relay / 2t+1 accept thresholds): the set
//     bin_values collects only values proposed by nonfaulty processes.
//  2. AUX, a plain broadcast of one bin value; a process waits for n-t
//     AUX values justified by its bin_values and takes their union V.
//  3. CONF, a *reliable* broadcast of V; a process waits for n-t justified
//     CONF sets, then:  >= 2t+1 sets == {v} -> decide v;
//                       >=  t+1 sets == {v} -> est := v;
//                       otherwise            est := coin(round).
//
// With the SVSS coin, a round's coin is dealt on demand.  Nobody deals it
// at round entry.  A process requests coin r (AbaHost::start_coin) only
// when the tier rule on its frozen round-r sample gives no estimate.  Its
// dealt shares are the signal to everyone else: a host joins coin r, dealing
// its own secrets, on the first SVSS-coin traffic of that round, but only
// once its own instance has entered round r (AbaHost::aba_entered_round
// replays contact that came earlier).  A needy process's shares reach every
// nonfaulty process, and each joins by the time it enters r, so the coin
// still gets n-t nonfaulty dealers.  Contact for a round the instance never
// entered starts nothing, so a faulty peer can force at most one coin per
// round entered — the cost of dealing every round eagerly.
//
// Safety never depends on the coin: two singleton CONF values cannot
// coexist (an honest CONF {v} needs > half of a justified AUX sample), and
// a decision's 2t+1 CONF {v} broadcasts force >= t+1 of them into every
// other process's sample, so nobody falls through to the coin in a
// deciding round.  The coin — which the SCC guarantees to be common with
// probability >= 1/4 except in the at most t(n-t) shunning rounds — only
// drives termination, giving the paper's expected O(n^2) rounds.
//
// Decisions are additionally aggregated: a process that decides announces
// DECIDE(v); t+1 matching announcements let others adopt the decision
// directly.  Processes keep participating after deciding (the simulation
// harness stops a run once every nonfaulty process has decided).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// Where the round-r fallback coin comes from.
enum class CoinMode {
  kSvss,         // the paper's protocol: one SCC instance per round that
                 // falls through to the coin (dealt on demand, see above)
  kLocal,        // Ben-Or/Bracha-style private coin (exponential baseline)
  kIdealCommon,  // perfect common coin from a shared seed (SCC abstraction,
                 // used to scale round-count experiments past the reach of
                 // the full O(n^7)-message stack)
};

// The canonical sid of agreement instance `instance`: its votes carry it,
// and a Node keys the instance's session by it, whatever owner or counter a
// peer's vote claims.
SessionId aba_sid(std::uint32_t instance);

class AbaHost {
 public:
  virtual ~AbaHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  virtual void send_direct(Context& ctx, int to, Message m) = 0;
  // Coin round `round` of agreement instance `instance` is needed (kSvss
  // mode): this process's frozen round-`round` CONF sample gave no
  // estimate.  Called at most once per round; the host deals this
  // process's share of the coin.  The result comes back through
  // AbaSession::on_coin.
  virtual void start_coin(Context& ctx, std::uint32_t instance,
                          std::uint32_t round) = 0;
  // Instance `instance` entered round `round` (kSvss mode).  A host that
  // saw peers deal coin `round` before this point joins the coin now.
  virtual void aba_entered_round(Context& ctx, std::uint32_t instance,
                                 std::uint32_t round) {
    (void)ctx;
    (void)instance;
    (void)round;
  }
  virtual void aba_decided(Context& ctx, int value, std::uint32_t round,
                           std::uint32_t instance) = 0;
};

class AbaSession {
 public:
  // `instance` distinguishes concurrent agreement instances on one node
  // (e.g. the n parallel instances of ACS); it is part of every message's
  // session id and of the coin-round namespace.
  AbaSession(AbaHost& host, int self, int n, int t, CoinMode mode,
             std::uint64_t common_seed, std::uint32_t instance = 0);

  // Enters round 1 with the given binary input.
  void start(Context& ctx, int input);
  // Pre-filtered message entry points.
  void on_direct(Context& ctx, int from, const Message& m);
  void on_broadcast(Context& ctx, int origin, const Message& m);
  // Coin outcome for this instance's round `round` (kSvss mode; ignored in
  // other modes).  The host dispatches by instance id.
  void on_coin(Context& ctx, std::uint32_t round, int bit);

  [[nodiscard]] std::uint32_t instance() const { return instance_; }
  [[nodiscard]] CoinMode coin_mode() const { return mode_; }

  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] int decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t decision_round() const { return decision_round_; }
  [[nodiscard]] std::uint32_t current_round() const { return round_; }

  // Introspection snapshot of one round's voting state (tests/debugging).
  struct RoundSnapshot {
    std::size_t est_senders[2] = {0, 0};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    std::size_t aux_senders = 0;
    bool v_frozen = false;
    bool conf_sent = false;
    std::size_t conf_senders = 0;
    bool conf_frozen = false;
    bool has_coin = false;
    bool coin_requested = false;
  };
  [[nodiscard]] RoundSnapshot snapshot(std::uint32_t r) const;

 private:
  struct Round {
    std::set<int> est_from[2];   // senders of EST(v)
    bool est_sent[2] = {false, false};
    bool bin[2] = {false, false};
    bool aux_sent = false;
    std::map<int, int> aux_from;    // sender -> first AUX value
    std::optional<std::set<int>> v; // frozen AUX union
    bool conf_sent = false;
    std::map<int, std::set<int>> conf_from;  // origin -> CONF set
    bool conf_frozen = false;
    int singleton[2] = {0, 0};  // frozen tally of CONF == {v}
    std::optional<int> coin;
    bool coin_requested = false;
    bool advanced = false;
  };

  void progress(Context& ctx);
  void enter_round(Context& ctx, std::uint32_t r);
  void send_est(Context& ctx, std::uint32_t r, int v);
  void decide(Context& ctx, int value);
  Round& round_state(std::uint32_t r);
  [[nodiscard]] static std::optional<std::set<int>> decode_set(int code);
  [[nodiscard]] static int encode_set(const std::set<int>& s);

  AbaHost& host_;
  int self_;
  int n_;
  int t_;
  CoinMode mode_;
  std::uint64_t common_seed_;
  std::uint32_t instance_;

  bool started_ = false;
  int est_ = 0;
  std::uint32_t round_ = 0;  // current round, 1-based once started
  std::map<std::uint32_t, Round> rounds_;
  std::optional<int> decision_;
  std::uint32_t decision_round_ = 0;
  bool decide_sent_ = false;
  std::map<int, std::set<int>> decide_from_;  // value -> senders
};

}  // namespace svss
