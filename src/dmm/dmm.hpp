// DMM — the Detection and Message Management protocol (paper Section 3.3).
//
// One DMM instance runs per process, indefinitely, concurrently with all
// VSS invocations.  It decides, for every inbound MW-SVSS/SVSS message,
// whether to act on it, delay it, or discard it:
//
//  * D_i        — processes known faulty; all their messages are discarded
//                 (rule 4).
//  * ACK_i      — tuples (j, l, c, x): as the *dealer* of session (c, i),
//                 process i expects j to eventually RB-broadcast
//                 "f_l(j) = x" during that session's reconstruct (added at
//                 S' step 7).
//  * DEAL_i     — tuples (j, c, l, x): as a *monitor* in session (c, l),
//                 i expects j to RB-broadcast "f_i(j) = x" (added at S'
//                 step 3, possibly dropped at step 8).
//  * ->_i order — session s precedes s' at i iff i completed s's
//                 reconstruct before it began s'.  A message from j in
//                 session s' is delayed while some expectation about j
//                 from a preceding session is unresolved (rule 5).
//
// When an expected broadcast arrives with the wrong value, j enters D_i
// (rules 2-3) — explicit detection.  When it never arrives, every later
// session's messages from j stay delayed forever — *shunning without
// knowing*, the property Definition 1 captures.  Either way j can break
// validity/binding against i at most once per (i, j) pair, which is what
// bounds the adversary to O(n^2) broken sessions overall.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/field.hpp"
#include "common/flat_map.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class Dmm {
 public:
  struct Hooks {
    // Invoked when j is added to D_i (explicit detection).  `where` is the
    // session whose expectation j violated.
    std::function<void(Context&, int suspect, const SessionId& where)> on_shun;
    // Re-injects a previously delayed message into the owner's routing.
    std::function<void(Context&, int from, const Message&, bool via_rb)>
        redeliver;
  };

  explicit Dmm(Hooks hooks) : hooks_(std::move(hooks)) {}

  // ------------------------------------------------------------------
  // Ingress filtering (rules 4 and 5).  Returns true if the caller should
  // act on the message now; false if it was discarded or buffered.
  //
  // Discarding is *session-ordered*, per Definition 1: a detected process
  // j is discarded in sessions that come after (->_i) the session where
  // the detection happened.  Messages of concurrent or earlier sessions
  // still flow — otherwise a detection during one session's reconstruct
  // would strand every in-flight share phase that still needs j's
  // (so-far correct) messages, breaking the Termination properties.
  // For sessions after the anchor, the violated expectation additionally
  // stays unresolved forever, so rule 5 delays them even before the
  // anchor session completes locally.
  // ------------------------------------------------------------------
  bool filter(Context& ctx, int from, const Message& m, bool via_rb);

  // True iff j is in D_i (explicit detection happened).
  [[nodiscard]] bool discards(int j) const { return d_.count(j) != 0; }
  // True iff rule 4 drops a message from j in session s.
  [[nodiscard]] bool discard_applies(int j, const SessionId& s) const;

  // ------------------------------------------------------------------
  // Expectation arrays.  An expectation may be registered *after* the
  // matching reconstruct broadcast already arrived (step 7 runs on the
  // dealer's own schedule, and RB delivers each broadcast exactly once),
  // so additions are checked against the recorded broadcasts of the
  // session: an already-satisfied expectation is dropped on the spot, an
  // already-contradicted one detects the sender immediately.
  // ------------------------------------------------------------------
  void add_ack_entry(Context& ctx, int sender, int poly, const SessionId& sid,
                     Fp x);
  void add_deal_entry(Context& ctx, int sender, const SessionId& sid, Fp x);
  // S' step 8: this process is not in M-hat, so its DEAL expectations for
  // the session no longer matter.
  void clear_deal_entries(Context& ctx, const SessionId& sid);
  // Rules 2-3: an RB broadcast "f_poly(origin) = x" for session `sid`
  // arrived.  Resolves or violates matching expectations.  Returns false
  // iff the broadcast contradicted an expectation (origin entered D_i).
  bool on_recon_value(Context& ctx, int origin, const SessionId& sid,
                      int poly, Fp x);

  // ------------------------------------------------------------------
  // Session order ->_i
  // ------------------------------------------------------------------
  // First local action of the session (dealer initiating, or first acted-on
  // message).  Freezes the set of sessions that precede it.
  void note_begin(const SessionId& sid);
  // Local completion of the session's reconstruct.
  void note_complete(const SessionId& sid);

  // ------------------------------------------------------------------
  // Introspection (tests, benchmarks, examples)
  // ------------------------------------------------------------------
  [[nodiscard]] const std::set<int>& detected() const { return d_; }
  [[nodiscard]] std::size_t pending_expectations(int sender) const;
  [[nodiscard]] std::size_t buffered_messages() const;
  [[nodiscard]] bool is_blocked(int from, const SessionId& sid) const;
  // Open expectations whose session has completed locally — exactly the
  // ones that can delay later sessions (debugging/tests).
  struct OpenEntry {
    int sender;
    SessionId sid;
    bool is_ack;
  };
  [[nodiscard]] std::vector<OpenEntry> blocking_entries() const;

 private:
  // One (process, polynomial index, value) fact of a session: an open ACK
  // expectation (the process owes "f_poly(process) = x"), an open DEAL
  // expectation (poly kDeal: the polynomial is always this process's own),
  // or a reconstruct broadcast already received.
  static constexpr int kDeal = -1;
  struct Fact {
    std::int16_t sender;
    std::int16_t poly;
    Fp x;
  };
  // Facts sorted by (sender, poly), at most one per key: a session holds at
  // most n^2 + n of them, so a sorted vector beats any node container.
  using Facts = std::vector<Fact>;
  // Everything DMM knows about one session.
  struct SessionState {
    // ->_i bookkeeping: completions_ when the session began locally
    // (kUnborn until then), and its 1-based completion order (0 = open).
    std::uint64_t birth = kUnborn;
    std::uint64_t done = 0;
    // Open ACK and DEAL expectations.  A sender's open count in this
    // session is the length of its run.
    Facts open;
    // Reconstruct broadcasts received while the session is open; consulted
    // when expectations are added late, freed at completion (no
    // expectations are added past that point).
    Facts seen;
  };
  static constexpr std::uint64_t kUnborn = ~std::uint64_t{0};
  struct Delayed {
    int from;
    bool via_rb;
    Message msg;
  };

  // The fact keyed (sender, poly), or nullptr.
  static Fact* find(Facts& facts, int sender, int poly);
  // Adds a fact unless its key is present (the first value stays).  An
  // empty list first reserves `room` facts, its expected peak, so a
  // session's list is allocated once.
  static void insert(Facts& facts, int sender, int poly, Fp x,
                     std::size_t room);
  // True iff some fact names `sender`.
  static bool names(const Facts& facts, int sender);

  void add_to_d(Context& ctx, int j, const SessionId& where);
  // True iff session s precedes s' in ->_i given current begin/complete
  // bookkeeping.
  [[nodiscard]] bool precedes(const SessionId& s, const SessionId& s2) const;
  // Removes the open expectation (sender, poly) of `sid`; if it was the
  // sender's last one there, retracts the session from the sender's
  // blocking orders.  Then re-tests the sender's delayed messages.
  void resolve(Context& ctx, int sender, int poly, const SessionId& sid);
  void flush_delayed(Context& ctx, int sender);

  // Per-sender state lives in vectors indexed by process id, and
  // session-keyed state in one flat table: DMM sits on the delivery hot
  // path (every VSS message passes filter(), every recon broadcast passes
  // rules 2-3), and a node container there allocates per expectation.
  template <typename T>
  static T& at_sender(std::vector<T>& v, int sender) {
    if (v.size() <= static_cast<std::size_t>(sender)) {
      v.resize(static_cast<std::size_t>(sender) + 1);
    }
    return v[static_cast<std::size_t>(sender)];
  }

  Hooks hooks_;
  std::set<int> d_;
  std::map<int, SessionId> anchor_;  // first detection session per suspect
  // Every session DMM has heard of.  References die at the next insertion,
  // and any hook may insert (redelivery re-enters DMM), so no reference is
  // held across a hook call.
  FlatMap<SessionId, SessionState, SessionIdHash> sessions_;
  // Completion orders of *completed* sessions that still hold open
  // expectations about the sender, sorted ascending (a multiset).  The
  // rule-5 test reduces to comparing the minimum against the target
  // session's birth instead of scanning every open session.
  std::vector<std::vector<std::uint64_t>> blocking_orders_;
  std::vector<std::vector<Delayed>> delayed_;
  std::uint64_t completions_ = 0;
};

}  // namespace svss
