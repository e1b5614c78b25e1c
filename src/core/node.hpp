// core::Node — one honest process running the full protocol stack.
//
// A Node owns, per process: the reliable-broadcast engine, the DMM filter,
// and lazily created protocol sessions (MW-SVSS, SVSS, common-coin rounds,
// any number of agreement instances, and the ACS / secure-sum / MVBA
// extension sessions).  It routes every inbound packet:
//
//   network packet
//     -> RB transport state machine (if transport)       [rbc/]
//     -> application routing by session path
//          VSS layers pass the DMM filter: session-ordered discard
//          (rule 4), delay (rule 5); reconstruct broadcasts resolve
//          expectations (rules 2-3)                       [dmm/]
//     -> per-session state machine                       [mwsvss/ svss/ ...]
//
// and routes completion events upward (MW-SVSS -> SVSS -> coin -> ABA,
// ABA decisions -> ACS -> secure sum).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/flat_map.hpp"

#include "aba/aba.hpp"
#include "aba/local_coin_aba.hpp"
#include "aba/vote_batch.hpp"
#include "aba/multivalued.hpp"
#include "acs/acs.hpp"
#include "asmpc/secure_sum.hpp"
#include "coin/batched_transport.hpp"
#include "coin/coin.hpp"
#include "dmm/dmm.hpp"
#include "mwsvss/group_transport.hpp"
#include "mwsvss/mwsvss.hpp"
#include "rbc/rbc.hpp"
#include "sim/engine.hpp"
#include "svss/svss.hpp"

namespace svss {

// Optional callbacks for harnesses (tests, benchmarks, examples) observing
// protocol-level events at this node.
struct NodeObservers {
  std::function<void(Context&, const SessionId&)> mw_share_complete;
  std::function<void(Context&, const SessionId&, std::optional<Fp>)>
      mw_output;
  std::function<void(Context&, const SessionId&)> svss_share_complete;
  std::function<void(Context&, const SessionId&, std::optional<Fp>)>
      svss_output;
  // Coin outputs of agreement instance 0 / standalone coin rounds.
  std::function<void(Context&, std::uint32_t, int)> coin_output;
  // Fires for every agreement instance: (value, round, instance).  The
  // daemon recovery layer journals decisions through this.
  std::function<void(Context&, int, std::uint32_t, std::uint32_t)>
      aba_decided;
};

class Node : public IProcess,
             public MwHost,
             public SvssHost,
             public CoinHost,
             public AbaHost,
             public AcsHost,
             public SecureSumHost,
             public MvbaHost {
 public:
  // `batched_coin` multiplexes the n coin-owned SVSS sessions per round
  // over the shared transport envelopes (src/coin/batched_transport.hpp);
  // `batched_mw` coalesces the coin-nested MW-SVSS child traffic under
  // group envelopes (src/mwsvss/group_transport.hpp); `batched_votes`
  // coalesces agreement votes across concurrent instances and rounds
  // (src/aba/vote_batch.hpp).  Inbound envelopes are always understood,
  // so batched and unbatched nodes interoperate; the flags only select
  // this node's *own* outbound framing.
  Node(int self, int n, int t, bool batched_coin = true,
       bool batched_mw = true, bool batched_votes = true);

  // Invoked once by the engine before any delivery; used by runners to
  // kick off deals / agreement inputs.
  void set_start_action(std::function<void(Context&, Node&)> action) {
    start_action_ = std::move(action);
  }

  // --- IProcess ---
  void start(Context& ctx) override;
  void on_packet(Context& ctx, int from, const Packet& p) override;

  // --- session access (get-or-create) ---
  MwSvssSession& mw(Context& ctx, const SessionId& sid);
  SvssSession& svss(Context& ctx, const SessionId& sid);
  // Instance-0 convenience (single-instance drivers) and the general form.
  CoinSession& coin(Context& ctx, std::uint32_t round);
  CoinSession& coin(Context& ctx, std::uint32_t instance,
                    std::uint32_t round);
  void start_aba(Context& ctx, int input, CoinMode mode,
                 std::uint64_t common_seed = 0, std::uint32_t instance = 0);
  void start_benor(Context& ctx, int input);
  // Joins the common-subset protocol with `proposal`.  The ACS layer owns
  // agreement instances [0, n); configure their coin with mode/seed.
  void start_acs(Context& ctx, Bytes proposal, CoinMode mode,
                 std::uint64_t common_seed = 0);
  // Joins the ASMPC secure-sum protocol with a private summand.
  void start_secure_sum(Context& ctx, Fp input, CoinMode mode,
                        std::uint64_t common_seed = 0);
  // Multivalued agreement (Turpin-Coan over the binary protocol).
  void start_mvba(Context& ctx, Fp proposal, Fp default_value, CoinMode mode,
                  std::uint64_t common_seed = 0);

  // --- lookups (may return nullptr) ---
  [[nodiscard]] const MwSvssSession* find_mw(const SessionId& sid) const;
  [[nodiscard]] const SvssSession* find_svss(const SessionId& sid) const;
  [[nodiscard]] const CoinSession* find_coin(std::uint32_t round) const;
  [[nodiscard]] const CoinSession* find_coin(std::uint32_t instance,
                                             std::uint32_t round) const;
  [[nodiscard]] AbaSession* aba(std::uint32_t instance = 0);
  [[nodiscard]] const AbaSession* aba(std::uint32_t instance = 0) const;
  [[nodiscard]] BenOrSession* benor() { return benor_.get(); }
  [[nodiscard]] const BenOrSession* benor() const { return benor_.get(); }
  [[nodiscard]] AcsSession* acs() { return acs_.get(); }
  [[nodiscard]] const AcsSession* acs() const { return acs_.get(); }
  [[nodiscard]] SecureSumSession* secure_sum() { return sum_.get(); }
  [[nodiscard]] const SecureSumSession* secure_sum() const {
    return sum_.get();
  }
  [[nodiscard]] MvbaSession* mvba() { return mvba_.get(); }
  [[nodiscard]] const MvbaSession* mvba() const { return mvba_.get(); }

  Dmm& dmm() override { return dmm_; }
  [[nodiscard]] const Dmm& dmm() const { return dmm_; }
  Rbc& rbc() { return rbc_; }
  [[nodiscard]] int self() const { return self_; }

  NodeObservers observers;

  // --- MwHost / SvssHost / CoinHost / AbaHost ---
  void rb_broadcast(Context& ctx, const Message& m) override;
  void send_direct(Context& ctx, int to, Message m) override;
  void mw_share_completed(Context& ctx, const SessionId& sid) override;
  void mw_recon_output(Context& ctx, const SessionId& sid,
                       std::optional<Fp> value) override;
  MwSvssSession& mw_child(Context& ctx, const SessionId& child) override;
  void svss_share_completed(Context& ctx, const SessionId& sid) override;
  void svss_recon_output(Context& ctx, const SessionId& sid,
                         std::optional<Fp> value) override;
  SvssSession& svss_child(Context& ctx, const SessionId& sid) override;
  void coin_output(Context& ctx, std::uint32_t instance, std::uint32_t round,
                   int bit) override;
  void svss_batch_window(Context& ctx, std::uint32_t instance,
                         std::uint32_t round, bool open) override;
  void start_coin(Context& ctx, std::uint32_t instance,
                  std::uint32_t round) override;
  void aba_entered_round(Context& ctx, std::uint32_t instance,
                         std::uint32_t round) override;
  void aba_decided(Context& ctx, int value, std::uint32_t round,
                   std::uint32_t instance) override;
  void acs_start_aba(Context& ctx, std::uint32_t instance, int input) override;
  void acs_completed(Context& ctx,
                     const std::vector<std::pair<int, Bytes>>& subset) override;
  SvssSession& sum_svss(Context& ctx, const SessionId& sid) override;
  void sum_start_acs(Context& ctx, Bytes proposal) override;
  void sum_vouch(Context& ctx, int dealer) override;
  void mvba_start_acs(Context& ctx, Bytes proposal) override;

 private:
  void route_app(Context& ctx, int sender, const Message& m, bool via_rb);
  // DMM-filtered per-session delivery for the SVSS layers (both the direct
  // path and the sub-messages of unpacked batch envelopes).
  void deliver_svss(Context& ctx, int sender, const Message& m, bool via_rb);
  // Same for the MW layer: DMM filter, recon-expectation rules 2-3, then
  // the per-session state machine.  Sub-messages of unpacked kMwBatch*
  // envelopes take exactly this path, so batching never skips a rule.
  void deliver_mw(Context& ctx, int sender, const Message& m, bool via_rb);
  // Bracket one delivery cascade with the MW group-capture window (plain
  // open/close calls, not a callable wrapper — this is the per-delivery
  // hot path).  open returns true iff this call opened the window, i.e.
  // the caller owns the matching close.
  bool open_mw_window();
  void close_mw_window(Context& ctx);
  // Same bracketing for the cross-instance agreement-vote batcher.
  bool open_vote_window();
  void close_vote_window(Context& ctx);
  AbaSession& aba_instance(std::uint32_t instance);
  // DMM-accepted traffic of an SVSS-coin session: joins that coin round
  // once the local agreement instance has entered it (see aba/aba.hpp).
  void on_coin_contact(Context& ctx, const SessionId& sid);
  [[nodiscard]] bool sane_sid(const SessionId& sid) const;

  int self_;
  int n_;
  int t_;
  Rbc rbc_;
  Dmm dmm_;
  // Present iff this node deals its coin rounds batched.
  std::unique_ptr<BatchedSvssTransport> batch_;
  // Present iff this node coalesces its coin-nested MW child traffic.
  std::unique_ptr<MwGroupTransport> mw_batch_;
  // Present iff this node coalesces agreement votes across instances.
  std::unique_ptr<AbaVoteBatcher> vote_batch_;
  // Flat tables (common/flat_map.hpp): session lookup is the per-delivery
  // routing cost, so these sit on the hot path.  Sessions are never erased.
  FlatMap<SessionId, std::unique_ptr<MwSvssSession>, SessionIdHash> mw_;
  FlatMap<SessionId, std::unique_ptr<SvssSession>, SessionIdHash> svss_;
  // Keyed by (instance << 32) | round.
  std::unordered_map<std::uint64_t, std::unique_ptr<CoinSession>> coins_;
  // Coin rounds peers dealt before the local instance entered the round;
  // joined by aba_entered_round.  Same key as coins_.
  std::unordered_set<std::uint64_t> coin_contact_;
  std::unordered_map<std::uint32_t, std::unique_ptr<AbaSession>> abas_;
  std::unique_ptr<BenOrSession> benor_;
  std::unique_ptr<AcsSession> acs_;
  std::unique_ptr<SecureSumSession> sum_;
  std::unique_ptr<MvbaSession> mvba_;
  // RB-delivered extension broadcasts arriving before the local session is
  // created (RB delivers exactly once, so they must not be dropped).
  std::vector<std::pair<int, Message>> pending_acs_;
  std::vector<std::pair<int, Message>> pending_sum_;
  // Coin configuration for lazily created agreement instances (messages of
  // an instance may arrive before this process starts it).
  CoinMode aba_mode_ = CoinMode::kIdealCommon;
  std::uint64_t aba_seed_ = 0;
  std::function<void(Context&, Node&)> start_action_;
};

}  // namespace svss
