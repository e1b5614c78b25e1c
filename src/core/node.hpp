// core::Node — one honest process running the full protocol stack.
//
// A Node owns, per process: the reliable-broadcast engine, the DMM filter,
// one session table, and the ACS / secure-sum / MVBA / Ben-Or extension
// sessions.  The table holds every MW-SVSS, SVSS, common-coin round and
// agreement session, each created on first use and keyed by its canonical
// sid: the delivered sid for MW-SVSS and SVSS, coin_sid(round, instance)
// for a coin round and aba_sid(instance) for an agreement instance.  It
// routes every inbound packet:
//
//   network packet
//     -> RB transport state machine (if transport)       [rbc/]
//     -> envelopes split into per-session messages       [batch/]
//     -> application routing by session path
//          VSS layers pass the DMM filter: session-ordered discard
//          (rule 4), delay (rule 5); reconstruct broadcasts resolve
//          expectations (rules 2-3)                       [dmm/]
//     -> per-session state machine                       [mwsvss/ svss/ ...]
//
// and routes completion events upward (MW-SVSS -> SVSS -> coin -> ABA,
// ABA decisions -> ACS -> secure sum).  Outbound per-session messages pass
// the batching layer's capture window, which one open/close pair brackets
// around every delivery cascade.
#pragma once

#include <functional>
#include <memory>
#include <variant>

#include "common/flat_map.hpp"

#include "aba/aba.hpp"
#include "aba/local_coin_aba.hpp"
#include "aba/multivalued.hpp"
#include "acs/acs.hpp"
#include "asmpc/secure_sum.hpp"
#include "batch/batch.hpp"
#include "coin/coin.hpp"
#include "dmm/dmm.hpp"
#include "mwsvss/mwsvss.hpp"
#include "rbc/rbc.hpp"
#include "sim/engine.hpp"
#include "svss/svss.hpp"

namespace svss {

// Optional callbacks for harnesses (tests, benchmarks, examples) observing
// protocol-level events at this node.
struct NodeObservers {
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
             public MvbaHost,
             public BatchHost {
 public:
  // `framing` selects this node's own outbound framing per batching
  // client (src/batch/batch.hpp).
  Node(int self, int n, int t, BatchFraming framing);

  // Invoked once by the host before any delivery; used by runners to
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
  // Agreement sessions decided at this node so far, over all instances.
  // Counted before observers.aba_decided runs, so it holds whatever a
  // harness installs there; an O(1) lower bound for completion checks.
  [[nodiscard]] std::size_t abas_decided() const { return abas_decided_; }
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
  void send_direct(Context& ctx, int to, const Message& m) override;
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

  // --- BatchHost ---
  void emit_direct(Context& ctx, int to, Message m) override;
  void emit_rb(Context& ctx, const Message& m) override;
  void deliver_sub(Context& ctx, int sender, const Message& sub,
                   bool via_rb) override;

 private:
  void route_app(Context& ctx, int sender, const Message& m, bool via_rb);
  // DMM-filtered per-session delivery for the SVSS layers.
  void deliver_svss(Context& ctx, int sender, const Message& m, bool via_rb);
  // Same for the MW layer: DMM filter, recon-expectation rules 2-3, then
  // the per-session state machine.  Sub-messages of unpacked envelopes
  // re-enter route_app, so batching never skips a rule.
  void deliver_mw(Context& ctx, int sender, const Message& m, bool via_rb);
  // Get-or-create of agreement instance `instance`, with the node's coin
  // configuration.
  AbaSession& aba_instance(std::uint32_t instance);
  // The table's one get-or-create and one lookup: the session of layer S
  // at `sid`, built as S(*this, args...) on first use.
  template <class S, class... Args>
  S& open(const SessionId& sid, const Args&... args);
  template <class S>
  [[nodiscard]] S* find(const SessionId& sid) const;
  // The one ACS session: created with `options` on first use, fed the
  // proposals RB delivered before it existed, then joined with `proposal`.
  void join_acs(Context& ctx, Bytes proposal, AcsOptions options);
  // DMM-accepted traffic of an SVSS-coin session: joins that coin round
  // once the local agreement instance has entered it (see aba/aba.hpp).
  void on_coin_contact(Context& ctx, const SessionId& sid);
  [[nodiscard]] bool sane_sid(const SessionId& sid) const;

  int self_;
  int n_;
  int t_;
  Rbc rbc_;
  Dmm dmm_;
  Batcher batch_;
  // One entry of the session table: the session its sid names, if any.
  struct Entry {
    std::variant<std::monostate, std::unique_ptr<MwSvssSession>,
                 std::unique_ptr<SvssSession>, std::unique_ptr<CoinSession>,
                 std::unique_ptr<AbaSession>>
        session;
    // Coin-round entries: a peer dealt this round before the local
    // instance entered it; aba_entered_round joins then.  A peer's kCoin
    // broadcast may have created the (unstarted) session already.
    bool coin_contact = false;
  };
  // The session table (common/flat_map.hpp): lookup is the per-delivery
  // routing cost.  Entries are never erased, and an insert moves them, so
  // no Entry reference is held across a call into a session; the sessions
  // themselves sit behind unique_ptr and never move.
  FlatMap<SessionId, Entry, SessionIdHash> sessions_;
  std::size_t abas_decided_ = 0;
  // The extension sessions, one each per process, outside the table.
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
