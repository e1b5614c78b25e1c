// The batching layer: one capture window per Node that frames the messages
// of sibling protocol sessions into shared wire envelopes.
//
// The paper states every layer per session.  A coin round runs n SVSS
// sessions per dealer, each SVSS session runs MW-SVSS children, and
// agreement runs rounds of votes per instance.  Framed one message (or
// one RBC instance) per session, that traffic dominates the wire.  This
// layer coalesces it, and every client follows one shape:
//
//  * Capture.  A window brackets one delivery cascade (Node::start,
//    Node::on_packet, and submissions made outside any cascade).  While it
//    is open, the per-session messages the sessions hand to their host are
//    captured instead of sent, grouped by (client, envelope sid) into one
//    direct bucket per recipient and one RB bucket per envelope type.
//  * Flush.  Window clients flush at window close: clients in fixed order
//    (votes, then MW), groups in capture order, direct buckets by
//    ascending recipient, then RB buckets in the codec's type order.
//    Nothing is held across deliveries, so batching is framing, never
//    scheduling policy.  The coin client instead flushes a bucket the
//    moment it holds all n sibling sessions.  A vote bucket holding a
//    single entry leaves as that entry's per-session message.  Window RB
//    envelopes carry a per-(group, type) flush sequence that persists
//    across windows, so every flush is its own RBC instance and an honest
//    node never equivocates against itself.
//  * Unpack.  A receiver parses an envelope whole before dispatching any
//    sub-message; a malformed one (bad sid shape, wrong transport class,
//    ragged runs, duplicate or out-of-range entries) is dropped entirely.
//    Each sub-message then re-enters the host's normal per-session
//    routing, DMM filter and session validation included, so every
//    correctness argument keeps quantifying over individual sessions and
//    batched and per-session senders interoperate in one run.
//
// Wire values are bit-identical to per-session framing: the window changes
// framing, never content or RNG consumption order.  Each client is a small
// codec (batch/codec.hpp): its types, its flush policy, its group key, and
// how it packs and unpacks entries.  Windows, grouping, flush order and
// flush sequences belong to the Batcher, so they are written once.  No
// file outside src/batch/ knows an envelope's ints/vals layout; Byzantine
// interceptors reach it through the views at the end of this header.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/flat_map.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// A node's own outbound framing, one switch per client.  Inbound envelopes
// are always understood, so batched and per-session nodes interoperate.
struct BatchFraming {
  bool coin;   // coin-round dealing: kSvssBatchShares / kSvssBatchGset
  bool mw;     // coin-nested MW-SVSS children: kMwBatch*
  bool votes;  // agreement votes across instances: kAbaBatchVote / Conf
};

// What the batching layer needs from the node it frames for.
class BatchHost {
 public:
  virtual ~BatchHost() = default;
  virtual void emit_direct(Context& ctx, int to, Message m) = 0;
  virtual void emit_rb(Context& ctx, const Message& m) = 0;
  // One per-session message of an unpacked envelope.
  virtual void deliver_sub(Context& ctx, int sender, const Message& sub,
                           bool via_rb) = 0;
};

namespace batch {

// `to` of an RB capture (direct captures name their recipient).
inline constexpr int kBroadcast = -1;

// The node a codec frames for.
struct Shape {
  int self;
  int n;
  int t;
};

// The sub-messages of one unpacked envelope.  Slots outlive the envelope:
// the next envelope decoded here overwrites them in place, so their
// buffers are reused and the delivery path allocates only when an envelope
// outgrows every earlier one.
class SubMessages {
 public:
  // Appends a message carrying `sid` and `type` and every other field at
  // its default, whatever the slot held before.
  Message& add(const SessionId& sid, MsgType type) {
    if (used_ == slots_.size()) slots_.emplace_back();
    Message& m = slots_[used_++];
    m.sid = sid;
    m.type = type;
    m.a = m.b = -1;
    m.vals.clear();
    m.ints.clear();
    m.blob.clear();
    return m;
  }
  void clear() { used_ = 0; }
  [[nodiscard]] std::size_t size() const { return used_; }
  [[nodiscard]] const Message& operator[](std::size_t i) const {
    return slots_[i];
  }

 private:
  std::vector<Message> slots_;
  std::size_t used_ = 0;
};

}  // namespace batch

class Batcher {
 public:
  Batcher(BatchHost& host, int self, int n, int t, BatchFraming framing);

  // Opens the capture window; true iff this call opened it, i.e. the
  // caller owns the matching close.  Inline: it brackets every delivery.
  bool open_window() {
    if (window_open_) return false;
    window_open_ = true;
    return true;
  }
  // Flushes everything the window captured and closes it.
  void close_window(Context& ctx) {
    window_open_ = false;
    if (window_captured_) flush_window(ctx);
  }

  // Offers one outbound per-session message for recipient `to`, or
  // batch::kBroadcast for RB.  True means it was captured and the caller
  // must not send it.
  bool capture(Context& ctx, int to, const Message& m);

  // Splits an envelope into its per-session messages, all or none, and
  // hands each to the host's deliver_sub.  False iff `env` is not of an
  // envelope type.
  bool unpack(Context& ctx, int sender, const Message& env, bool via_rb);

 private:
  struct Bucket {
    Message env;  // the envelope under construction
    int count = 0;
  };
  struct Group {
    SessionId key;  // the envelope sid
    // One direct bucket per recipient, then one per codec RB slot: the
    // flush order.  Sized on first use.
    std::vector<Bucket> buckets;
  };
  // One client's pending groups.  Window clients reuse the first `live`
  // groups window after window, keeping their buffers; the index is built
  // only once a window holds a second group.
  struct Groups {
    std::vector<Group> list;  // capture order
    std::size_t live = 0;
    FlatMap<SessionId, std::uint32_t, SessionIdHash> index;
  };

  // The client capturing per-session type `type` (or owning envelope type
  // `type`), or -1.
  [[nodiscard]] static int client(MsgType type, bool envelope);
  void flush_window(Context& ctx);
  Group& group_for(Groups& groups, const SessionId& key);
  // Emits bucket k of group g and empties it.
  void flush(Context& ctx, int client, Group& g, std::size_t k);

  BatchHost& host_;
  batch::Shape shape_;
  std::array<bool, 3> enabled_;  // per client, in flush order
  std::array<Groups, 3> pending_;
  bool window_open_ = false;
  bool window_captured_ = false;  // a window client captured since open
  // Per (group, RB slot) flush sequence of the window clients.  Never
  // evicted: in the async model no local horizon proves a group done, and
  // a restarted sequence would reuse an RBC instance id.  (The MW client
  // has the most RB slots, five.)
  std::map<SessionId, std::array<std::uint32_t, 5>> flush_seq_;
  // Sub-message pools, one per unpack nesting depth: a sub-message's
  // cascade may unpack another envelope while the outer one's subs are
  // still being delivered.  The lone-entry passthrough decodes into the
  // first depth not in use.  Pools only grow; their slots keep their
  // buffers between envelopes.
  std::vector<batch::SubMessages> pools_;
  std::size_t depth_ = 0;  // unpacks in progress
  // The pool at the current depth, created on first use.
  batch::SubMessages& free_pool();
};

// ---------------------------------------------------------------------
// Layout views for fault injection.  A layout change that broke these
// would break pack/unpack alongside, which keeps adversary tests honest.
// ---------------------------------------------------------------------
namespace batch {

// Calls fn on every field value m carries for per-session MW type `type`,
// on either framing: all of m's values if m has that type or is the RB
// envelope of that type, else those of each entry of that type in a
// kMwBatchDirect envelope.
void for_each_value(Message& m, MsgType type,
                    const std::function<void(Fp&)>& fn);
// Calls fn(members) for every confirmer/monitor set an L-set or M-set
// message publishes: the one set of a per-session kMwLset/kMwMset, or each
// run of a kMwBatchLset/kMwBatchMset envelope.  False for a malformed run
// (fn may already have seen the runs before it).
bool for_each_member_set(const Message& m,
                         const std::function<void(std::span<const int>)>& fn);
// The first member of the first set such a message publishes, or nullptr.
int* first_set_member(Message& m);

}  // namespace batch
}  // namespace svss
