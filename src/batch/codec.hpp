// Client codecs of the batching layer (batch/batch.hpp).
//
// A codec is everything one client knows about its envelopes: which
// per-session types it captures, which envelope types it owns, when its
// buckets leave, the group key (envelope sid) and bucket of a captured
// message, how an entry is packed into an envelope, and how an envelope
// unpacks back into per-session messages.  Codecs hold no state.
#pragma once

#include <cstdint>
#include <optional>

#include "batch/batch.hpp"

namespace svss::batch {

// Where a captured message goes.
struct Entry {
  SessionId group;   // the envelope sid
  MsgType envelope;  // the envelope type
  int slot;          // RB bucket index; unused for direct captures
};

struct Codec {
  // The MsgType ranges (both ends included) the client captures and the
  // envelope types it owns.
  MsgType first_captured, last_captured;
  MsgType first_envelope, last_envelope;
  int rb_slots;           // RB envelope types, i.e. RB buckets per group
  bool when_complete;     // buckets leave at n entries, not at close
  bool lone_passthrough;  // a one-entry bucket leaves per-session

  // Grouping: the bucket of per-session message `m` sent to `to` (or
  // kBroadcast), or nullopt when `m` goes out per-session.
  std::optional<Entry> (*group)(const Shape& node, const Message& m, int to);
  // Packing: appends m's entry to an envelope whose sid and type are set;
  // false drops a duplicate entry.
  bool (*pack)(const Shape& node, Message& env, const Message& m);
  // Final touch of an RB envelope before it leaves (flush sequence).
  void (*seal)(Message& env, std::uint32_t seq);
  // Unpacking: every sub-message of `env` appended to `out`, or false
  // when the envelope is malformed.
  bool (*unpack)(const Shape& node, const Message& env, bool via_rb,
                 SubMessages& out);

  [[nodiscard]] bool captures(MsgType type) const {
    return type >= first_captured && type <= last_captured;
  }
  [[nodiscard]] bool owns(MsgType type) const {
    return type >= first_envelope && type <= last_envelope;
  }
};

// The three clients, in window flush order.  Votes: every agreement
// instance's EST/AUX/DECIDE votes per recipient and CONF broadcasts
// (aba/aba.hpp).  MW: coin-nested MW-SVSS children, grouped by the n
// sibling attachees of one (round, svss dealer, dealer, moderator,
// variant) (mwsvss/mwsvss.hpp).  Coin: the n SVSS sessions a dealer runs
// per coin round (coin/coin.hpp).
extern const Codec kVoteCodec;
extern const Codec kMwCodec;
extern const Codec kCoinCodec;

// The MW envelope sid of a coin-nested child's group (variant 2 + v,
// counter at the attachee-0 slot), and the child sid of attachee j.
SessionId mw_group_sid(const SessionId& child);
SessionId mw_child_sid(const SessionId& group, int j);

}  // namespace svss::batch
