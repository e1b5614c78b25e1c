// Wire-level message model shared by every protocol layer.
//
// Sessions.  The paper tags every VSS invocation with a session identifier
// (c, i) — a counter plus the dealer — and nests MW-SVSS invocations inside
// SVSS invocations, SVSS invocations inside common-coin rounds, and coin
// rounds inside the agreement protocol.  SessionId makes that whole chain
// self-describing so a receiver can route any message to the right protocol
// instance (creating it on first contact) and so DMM can order sessions.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/field.hpp"
#include "common/proc_set.hpp"
#include "common/serialization.hpp"

namespace svss {

// Where a session sits in the protocol stack.  The parent session of a
// nested invocation is recoverable from the id alone (see parent_session).
enum class SessionPath : std::uint8_t {
  kMwTop = 0,        // standalone MW-SVSS invocation
  kMwInSvssTop = 1,  // MW-SVSS nested in a standalone SVSS invocation
  kMwInSvssCoin = 2, // MW-SVSS nested in an SVSS nested in a coin round
  kSvssTop = 3,      // standalone SVSS invocation
  kSvssCoin = 4,     // SVSS invocation that carries one coin-round secret
  kCoin = 5,         // one shunning-common-coin round
  kAba = 6,          // the agreement protocol instance
  kTest = 7,         // scratch sessions for unit tests
};

// kMaxN (common/proc_set.hpp) is also the number of attachees encodable in
// an SVSS-in-coin counter (round*kMaxN+j).
// Per-instance agreement round ceiling, also used to namespace the
// ideal-coin seed mix (instance * kCoinRoundsPerInstance + round), so
// instance 0's bit stream is unchanged from single-instance runs.
inline constexpr std::uint32_t kCoinRoundsPerInstance = 4096;

// The one round bound of every layer: an agreement instance runs rounds
// [1, kCoinRoundsPerInstance), so votes, coin broadcasts and coin contact
// naming any other round are dropped and create no session.
inline constexpr bool coin_round_ok(std::uint32_t round) {
  return round >= 1 && round < kCoinRoundsPerInstance;
}

struct SessionId {
  SessionPath path = SessionPath::kTest;
  // For MW-SVSS-in-SVSS: 0 if the shared entry is f(moderator, dealer),
  // 1 if it is f(dealer, moderator).  (Paper, S step 2, cases a-d.)
  std::uint8_t variant = 0;
  std::int16_t owner = -1;       // dealer of *this* layer's invocation
  std::int16_t moderator = -1;   // MW-SVSS moderator, else -1
  std::int16_t svss_dealer = -1; // enclosing SVSS dealer for nested MW-SVSS
  std::uint32_t counter = 0;     // top-level counter; for kSvssCoin this is
                                 // round * kMaxN + attachee
  // Which concurrent agreement instance this session serves.  Every layer
  // of one instance's cascade — ABA votes, coin rounds, their SVSS and
  // MW-SVSS children — carries the same instance id, so one node/transport
  // stack multiplexes any number of instances and a receiver routes purely
  // on the sid.  0 for single-instance protocols and all non-ABA stacks.
  std::uint32_t instance = 0;
  // Which membership epoch this session belongs to (core/epoch.hpp).  The
  // epoch layer stamps outbound envelopes with the current epoch and drops
  // inbound traffic from other epochs at the transport seam, so protocol
  // code always runs with epoch 0 and never branches on this field.  Last
  // so existing aggregate initializers stay valid.
  std::uint32_t epoch = 0;

  friend auto operator<=>(const SessionId&, const SessionId&) = default;
  friend bool operator==(const SessionId&, const SessionId&) = default;

  [[nodiscard]] std::string str() const;
};

// The enclosing session, or nullopt for top-level sessions.
std::optional<SessionId> parent_session(const SessionId& sid);

// The one SessionId byte layout (26 bytes), shared by Message::serialize
// and the socket backend's kRb frames (net/frame.hpp).  read_sid returns
// nullopt on a short read or a path byte beyond kTest.
void write_sid(Writer& w, const SessionId& sid);
std::optional<SessionId> read_sid(Reader& r);

// Message types across all layers.  One flat enum keeps serialization and
// logging trivial; each protocol only consumes its own values.  The values
// are wire format, and the batching layer's codecs (src/batch/codec.hpp)
// name each client's per-session and envelope types as contiguous ranges.
enum class MsgType : std::uint8_t {
  // --- MW-SVSS (Section 3.2) ---
  kMwDealerShares = 1,  // dealer -> j: f_1(j) .. f_n(j)           (direct)
  kMwDealerPoly = 2,    // dealer -> l: f_l(1) .. f_l(t+1)         (direct)
  kMwDealerWhole = 3,   // dealer -> moderator: f(1) .. f(t+1)     (direct)
  kMwEchoVal = 4,       // j -> l: the value f_l(j) j received     (direct)
  kMwMonitorVal = 5,    // monitor j -> moderator: f_j(0)          (direct)
  kMwAck = 6,           // j: "I received my shares"               (RB)
  kMwLset = 7,          // monitor j: the confirmer set L_j        (RB)
  kMwMset = 8,          // moderator: the accepted monitor set M   (RB)
  kMwOk = 9,            // dealer: OK                              (RB)
  kMwReconVal = 10,     // j: (l, f_l(j)) in reconstruct           (RB)
  // --- MW envelopes (src/batch/mw_codec.cpp) ---
  // One envelope coalesces the same-type messages a sender emits, within
  // one delivery cascade, for the n sibling MW children (attachees) of one
  // (round, dealer, owner, moderator, variant) coin group.  Direct
  // envelopes carry mixed per-session sub-types; each RB type keeps its own
  // envelope so one kMwBatch* RBC instance per (group, sender, type, flush)
  // replaces up to n per-session instances.
  kMwBatchDirect = 11,    // (type, j, len) triples in ints; vals concat
  kMwBatchAck = 12,       // ints = attachee list                  (RB)
  kMwBatchLset = 13,      // ints = (j, len, members...) runs      (RB)
  kMwBatchMset = 14,      // ints = (j, len, members...) runs      (RB)
  kMwBatchOk = 15,        // ints = attachee list                  (RB)
  kMwBatchReconVal = 16,  // ints = (j, l) pairs; vals = values    (RB)
  // --- SVSS (Section 4) ---
  kSvssDealerShares = 20,  // dealer -> j: g_j, h_j points         (direct)
  kSvssGset = 21,          // dealer: G and {G_j}                  (RB)
  // --- coin-round SVSS envelopes (src/batch/coin_codec.cpp) ---
  kSvssBatchShares = 22,   // dealer -> j: all n sessions' g/h pts (direct)
  kSvssBatchGset = 23,     // dealer: all n sessions' G-set blobs  (RB)
  // --- Common coin (Section 5) ---
  kCoinGset = 30,       // i: set of n-t dealers whose shares done (RB)
  kCoinStartRecon = 31, // i: entering reconstruction, support set (RB)
  // --- Byzantine agreement ---
  kAbaVote = 40,        // (round, phase, value)                   (RB)
  // --- cross-instance vote envelopes (src/batch/vote_codec.cpp) ---
  // One envelope coalesces every ABA vote a sender emits within one
  // delivery cascade, across all concurrent instances and rounds: at scale
  // nearly 100% of ideal-coin agreement bytes are aba-vote, so this is the
  // packet lever once coin/MW traffic is already batched.
  kAbaBatchVote = 41,   // (instance, round, subtype, value) runs (direct)
  kAbaBatchConf = 42,   // (instance, round, setcode) triples      (RB)
  // --- extensions ---
  kAcsProposal = 50,     // ACS: opaque proposal                (RB)
  kSumPoint = 51,        // ASMPC secure sum: summed share point (RB)
  // --- epoch/recovery control plane (core/epoch.hpp, core/recovery.hpp) ---
  // These bypass the epoch fence: a rejoining daemon must be able to ask
  // for state regardless of which epoch it crashed in.  `ints` of the
  // request carries the (epoch, instance) pairs already known; the state
  // reply's `blob` is encode_catchup_state().
  kEpochCatchupReq = 52,   // rejoiner -> all: what did I miss?   (direct)
  kEpochCatchupState = 53, // peer -> rejoiner: decisions + epoch (direct)
  // --- tests/examples ---
  kTestPayload = 60,
};

// One application-level message.  `a`/`b` are small integer arguments whose
// meaning depends on `type` (e.g. the poly index l in kMwReconVal).
struct Message {
  SessionId sid;
  MsgType type = MsgType::kTestPayload;
  std::int16_t a = -1;
  std::int16_t b = -1;
  FieldVec vals;
  std::vector<int> ints;
  Bytes blob;

  [[nodiscard]] Bytes serialize() const;
  static std::optional<Message> deserialize(const Bytes& raw);
  // deserialize() into this message, reusing its buffers (the RB accept
  // path parses every accepted value into one).  On false the message
  // holds a partial value.
  bool parse(const Bytes& raw);

  // Exact size of serialize()'s output, computed without allocating.  The
  // engine meters every enqueued packet, so this must stay in sync with
  // serialize() (serialization_test pins the equality).
  [[nodiscard]] std::size_t serialized_size() const;

  friend bool operator==(const Message&, const Message&) = default;
};

// Human-readable MsgType name (metrics attribution, logs).
[[nodiscard]] const char* msg_type_name(MsgType type);

// Identity of one reliable-broadcast instance: who originated it and which
// logical slot of which session it fills.  Every process must derive the
// same id for the same logical broadcast.
struct BcastId {
  std::int16_t origin = -1;
  SessionId sid;
  MsgType slot = MsgType::kTestPayload;
  std::int16_t a = -1;  // disambiguates per-index slots (kMwReconVal)

  friend auto operator<=>(const BcastId&, const BcastId&) = default;
  friend bool operator==(const BcastId&, const BcastId&) = default;
};

// Phases of the RB transport (Appendix A): 1 = WRB initial send,
// 2 = WRB echo, 3 = Bracha ready.
enum class RbPhase : std::uint8_t { kSend = 1, kEcho = 2, kReady = 3 };

// What actually travels on a channel: either a direct (private) application
// message or one step of a reliable-broadcast instance.
struct Packet {
  bool is_rb = false;
  Message app;     // valid when !is_rb
  BcastId bid;     // valid when is_rb
  RbPhase phase = RbPhase::kSend;
  // RB value payload (a serialized Message).  Shared among the n
  // per-recipient copies of one send_all burst — an RB step used to copy
  // its payload n+1 times, which dominated allocation traffic.  Mutating
  // interceptors replace the pointer on their recipient's copy
  // (copy-on-write), so recipients still get independent views.
  std::shared_ptr<const Bytes> value;

  // The RB payload bytes (empty if unset).
  [[nodiscard]] const Bytes& rb_payload() const;
  [[nodiscard]] std::size_t wire_size() const;
};

Packet make_direct(Message m);
Packet make_rb(BcastId bid, RbPhase phase, Bytes value);
// Relay form: re-broadcasts an already-shared payload without copying it.
Packet make_rb(BcastId bid, RbPhase phase, std::shared_ptr<const Bytes> value);

struct SessionIdHash {
  std::size_t operator()(const SessionId& s) const;
};
struct BcastIdHash {
  std::size_t operator()(const BcastId& b) const;
};

}  // namespace svss
