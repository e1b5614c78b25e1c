// MW-SVSS — Moderated Weak Shunning Verifiable Secret Sharing (paper
// Section 3.2).
//
// One invocation has a dealer (input s) and a moderator (input s'), plus
// n - 2..n other participants.  The share protocol S' commits the dealer to
// a value the nonfaulty moderator endorses; the reconstruct protocol R'
// outputs that value or bottom — unless the adversary breaks the session,
// in which case some nonfaulty process starts shunning some faulty process
// (via the DMM expectations this protocol registers).
//
// Identifier conventions: processes are 0-based; the field point of
// process i is x = i + 1, so the secret lives at x = 0 and is never a
// share point.  "f_l" below is the polynomial monitored by process l, with
// f_l(0) = f(point(l)).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/field.hpp"
#include "common/polynomial.hpp"
#include "common/proc_set.hpp"
#include "dmm/dmm.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// Field point of a 0-based process id.
inline Fp point(int id) { return Fp(id + 1); }

// Services a MW-SVSS session needs from its owning process.  Implemented
// by core::Node (and by test fixtures).
class MwHost {
 public:
  virtual ~MwHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  virtual void send_direct(Context& ctx, int to, const Message& m) = 0;
  virtual Dmm& dmm() = 0;
  // Completion callbacks, each invoked at most once per session.
  virtual void mw_share_completed(Context& ctx, const SessionId& sid) = 0;
  virtual void mw_recon_output(Context& ctx, const SessionId& sid,
                               std::optional<Fp> value) = 0;
};

// Protocol state machine for one MW-SVSS session at one process.  All
// inputs arrive through dealer initiation (deal), moderator input, the
// reconstruct trigger, and pre-filtered messages.
//
// The step conditions of S' (steps 2-9) and R' only ever turn true as
// inputs arrive, never false again, so a handler re-checks only the steps
// its one input can enable (see Steps).  Every per-process set is a
// ProcSet and every per-process value lives in one n-entry Peer array,
// allocated once per session, so each check is a few word operations over
// the inputs not yet judged: step 3 visits only acked echoes it has not
// compared yet, the moderator only monitors with a value and an L-set not
// yet accepted, and "every L-set of M-hat is acked" is one subset test per
// monitor.
class MwSvssSession {
 public:
  MwSvssSession(MwHost& host, SessionId sid, int self, int n, int t);

  // Dealer only (S' step 1): draw f, f_1..f_n and distribute shares.
  void deal(Context& ctx, Fp secret);
  // Moderator only: provides s'.  May arrive after messages have; pending
  // moderator logic re-runs.
  void set_moderator_input(Context& ctx, Fp s_prime);
  // Begins R' (R' step 1).  The caller guarantees S' completed locally.
  void start_reconstruct(Context& ctx);

  // Pre-filtered (DMM-approved) message entry points.
  void on_direct(Context& ctx, int from, const Message& m);
  void on_broadcast(Context& ctx, int origin, const Message& m);

  [[nodiscard]] const SessionId& sid() const { return sid_; }
  [[nodiscard]] bool share_complete() const { return share_done_; }
  [[nodiscard]] bool recon_started() const { return recon_started_; }
  [[nodiscard]] bool has_output() const { return output_ready_; }
  // Valid once has_output(); nullopt encodes bottom.
  [[nodiscard]] std::optional<Fp> output() const { return output_; }

  // Drops bulky per-session state once both phases are finished (keeps the
  // outputs).  Long agreement runs create hundreds of thousands of
  // sessions; without this the simulator's memory grows unboundedly.
  void compact();

  // Debug/tests: phase flags snapshot.
  struct StateSnapshot {
    bool dealt;
    bool have_shares;
    bool have_poly;
    bool echoed;
    bool lset_sent;
    bool have_mset;
    bool ok_seen;
    bool share_done;
    bool recon_started;
    bool recon_broadcast_done;
    bool output_ready;
    bool compacted;
  };
  [[nodiscard]] StateSnapshot state() const {
    return StateSnapshot{dealt_,        row_vals_.has_value(),
                         my_poly_.has_value(), echoed_,
                         lset_sent_,    mset_.has_value(),
                         ok_seen_,      share_done_,
                         recon_started_, recon_broadcast_done_,
                         output_ready_, compacted_};
  }

 private:
  [[nodiscard]] int dealer() const { return sid_.owner; }
  [[nodiscard]] int moderator() const { return sid_.moderator; }
  [[nodiscard]] bool valid_pid(int p) const { return p >= 0 && p < n_; }
  // `ids` as a set if it is a plausible participant set: at least n - t
  // distinct ids in [0, n).
  [[nodiscard]] std::optional<ProcSet> pid_set(
      const std::vector<int>& ids) const;
  // S' steps 7 and 9: M-hat, the L-hat set of every monitor in it, and an
  // ack from every process in those sets are all in.
  [[nodiscard]] bool mset_covered();

  // Step groups an input can enable.  Steps 7 (dealer) and R' have cheap
  // guards and are re-checked after every input: deal() does not run the
  // steps itself, so step 7 may first hold at any later input.
  enum Steps : unsigned {
    kEcho = 1,      // step 2: row values or f-hat_self arrived
    kConfirm = 2,   // steps 3-4: f-hat_self, an echo or an ack arrived
    kModerate = 4,  // steps 5-6: f-hat, s', a monitor value, an L-set, an ack
    kComplete = 8,  // step 9: OK, M-hat, an L-set or an ack arrived
  };
  // Runs the enabled steps of `steps`, then 7 and R', in protocol order.
  void progress(Context& ctx, unsigned steps);
  void try_echo_and_ack(Context& ctx);       // step 2
  void try_add_deal_entries(Context& ctx);   // step 3
  void try_broadcast_lset(Context& ctx);     // step 4
  void moderator_progress(Context& ctx);     // steps 5-6
  void dealer_progress(Context& ctx);        // step 7
  void try_complete_share(Context& ctx);     // step 9
  void recon_progress(Context& ctx);         // R' steps 2-4
  Message base_msg(MsgType type) const;

  MwHost& host_;
  SessionId sid_;
  int self_;
  int n_;
  int t_;

  // --- dealer state ---
  std::vector<Polynomial> dealer_polys_;  // f_1..f_n (dealer only)
  Polynomial dealer_f_;
  bool dealt_ = false;
  bool ok_sent_ = false;

  // Everything this process holds about one peer l, indexed by l.  Each
  // value is valid once l is in the matching presence set below.
  struct Peer {
    Fp echo;             // f-hat^l_self (echo_from_)
    Fp monitor;          // moderator: f-hat_l(0) (monitor_from_)
    Fp fbar0;            // f-bar_l(0) (fbar_from_)
    ProcSet lset;        // L-hat_l (lset_from_); empty until it arrives
    ProcSet recon_from;  // origins whose recon value for f_l arrived
    int kcount = 0;      // |K_{self,l}|
  };

  // --- share-phase participant state ---
  std::optional<FieldVec> row_vals_;        // f-hat^self_1..n from dealer
  std::optional<Polynomial> my_poly_;       // f-hat_self
  bool echoed_ = false;                     // step 2 done
  // n entries, allocated by the first input that names a peer: a session
  // that has only heard from the dealer holds none.
  std::vector<Peer> peers_;
  Peer& peer(int l);
  ProcSet echo_from_;                       // echo values seen
  ProcSet acked_;                           // ack broadcasts seen
  ProcSet deal_checked_;                    // echoes step 3 compared
  ProcSet deal_added_;                      // confirmers with DEAL entries
  bool lset_sent_ = false;
  ProcSet lset_from_;                       // monitors whose L-hat arrived
  // Row l (n slots, the first |L-hat_l| used) holds L-hat_l in received
  // order: the dealer registers ACK expectations in that order.
  std::vector<std::uint8_t> lset_order_;
  std::optional<std::vector<int>> mset_;    // M-hat, in received order
  ProcSet mset_bits_;
  bool ok_seen_ = false;
  bool share_done_ = false;

  // --- moderator state ---
  std::optional<Polynomial> whole_poly_;    // f-hat from the dealer
  std::optional<Fp> mod_input_;             // s'
  ProcSet monitor_from_;                    // monitor values seen
  ProcSet m_building_;
  bool mset_sent_ = false;

  // --- reconstruct state ---
  bool recon_started_ = false;
  bool recon_broadcast_done_ = false;
  struct ReconVal {
    int from;
    int l;
    Fp x;
  };
  // Arrival order.  One recon value per (origin, monitored poly), pinned by
  // Peer::recon_from: with per-session RBC framing the instance id
  // (origin, sid, type, l) enforces this structurally, but with the
  // group-coalesced transport a Byzantine origin could replay a pair across
  // two envelope flushes (duplicate points would poison interpolation).
  std::vector<ReconVal> recon_vals_;
  std::size_t recon_cursor_ = 0;
  // Row l (t + 1 slots, the first Peer::kcount used) holds K_{self,l}.
  std::vector<std::pair<Fp, Fp>> kvals_;
  ProcSet fbar_from_;                       // monitors with f-bar_l(0)
  bool output_ready_ = false;
  std::optional<Fp> output_;
  bool compacted_ = false;
};

}  // namespace svss
