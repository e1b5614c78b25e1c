// SCC — Shunning Common Coin (paper Section 5, Definition 2), following the
// Canetti-Rabin common-coin construction (Canetti's thesis, Fig. 5-9) with
// AVSS replaced by SVSS.
//
// Structure of one coin round:
//  1. Every process deals n secrets via SVSS, one "attached" to each
//     process, each uniform in {0, .., n-1}.
//  2. When all n share protocols of dealer d complete locally, d counts as
//     a finished dealer.  After n-t finished dealers, a process publishes
//     that set as G_i (RB).
//  3. Process j enters i's support set S_i once G_j arrived and every
//     dealer in G_j is finished at i.  At |S_i| >= n-t, S_i freezes and i
//     enters reconstruction, announcing this with an RB broadcast so that
//     every process reconstructs every secret any process may need (the
//     announcement is our explicit stand-in for the thesis's implicit
//     "all parties eventually reconstruct"; see DESIGN.md).
//  4. The value of party j is the sum mod n of the secrets attached to j
//     by the dealers in G_j.  i outputs 0 if any member of its frozen
//     support has value 0, else 1.
//
// Correctness (Definition 2): for each sigma in {0,1}, with probability
// >= 1/4 all nonfaulty processes output sigma — unless some nonfaulty
// process starts shunning some faulty process in this round's SVSS
// sessions (a bottom reconstruction counts as 0; bottoms imply shunning).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "svss/svss.hpp"

namespace svss {

// Session id of the SVSS invocation in which `dealer` shares the secret
// attached to process `attachee` during coin round `round` of agreement
// instance `instance` (0 for single-instance runs).
SessionId coin_svss_id(std::uint32_t round, int dealer, int attachee,
                       std::uint32_t instance = 0);

class CoinHost {
 public:
  virtual ~CoinHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  // Get-or-create the local state machine of a coin-owned SVSS session.
  virtual SvssSession& svss_child(Context& ctx, const SessionId& sid) = 0;
  virtual void coin_output(Context& ctx, std::uint32_t instance,
                           std::uint32_t round, int bit) = 0;
  // Batched-dealing capture window (src/coin/batched_transport.hpp):
  // CoinSession::start brackets its dealing loop so a batching host can
  // coalesce the n sessions' share messages.  Hosts without a batched
  // transport ignore it.
  virtual void svss_batch_window(Context& ctx, std::uint32_t instance,
                                 std::uint32_t round, bool open) {
    (void)ctx;
    (void)instance;
    (void)round;
    (void)open;
  }
};

class CoinSession {
 public:
  CoinSession(CoinHost& host, std::uint32_t round, int self, int n, int t,
              std::uint32_t instance = 0);

  // Deals this process's n secrets.  Idempotent.  Under agreement an
  // honest process calls it when its own round needs the coin, or when a
  // peer dealt this round and its instance has entered the round
  // (aba/aba.hpp); standalone coin drivers call it directly.
  void start(Context& ctx);

  // Pre-filtered coin-layer broadcasts (kCoinGset / kCoinStartRecon).
  void on_broadcast(Context& ctx, int origin, const Message& m);
  // SVSS child notifications, routed by the host.
  void on_child_share_complete(Context& ctx, const SessionId& sid);
  void on_child_output(Context& ctx, const SessionId& sid,
                       std::optional<Fp> value);

  [[nodiscard]] std::uint32_t round() const { return round_; }
  [[nodiscard]] std::uint32_t instance() const { return instance_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool has_output() const { return output_.has_value(); }
  [[nodiscard]] int output() const { return *output_; }

 private:
  void progress(Context& ctx);
  void recheck_support(Context& ctx);
  void start_reconstructions(Context& ctx);
  void try_output(Context& ctx);
  [[nodiscard]] bool dealer_done(int d) const;

  CoinHost& host_;
  std::uint32_t round_;
  int self_;
  int n_;
  int t_;
  std::uint32_t instance_;

  bool started_ = false;
  // share_done_[d] = set of attachees whose SVSS from dealer d completed.
  std::vector<std::set<int>> share_done_;
  std::vector<int> g_;                     // frozen G_self (empty = not yet)
  std::map<int, std::vector<int>> gsets_;  // j -> G_j
  std::set<int> support_;                  // growing support set
  std::vector<int> frozen_support_;        // S_self at freeze time
  bool recon_announced_ = false;
  bool recon_enabled_ = false;  // saw any kCoinStartRecon (incl. own)
  std::set<SessionId> recon_started_;
  std::map<SessionId, std::optional<Fp>> values_;
  std::optional<int> output_;
};

}  // namespace svss
