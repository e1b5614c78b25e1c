// Reliable Broadcast (paper Appendix A).
//
// Two layered primitives, implemented exactly as in the appendix:
//  * Weak Reliable Broadcast (WRB) — Dolev's crusader agreement.  Type-1
//    message from the dealer, type-2 echoes; accepting requires n-t
//    matching echoes, so no two nonfaulty processes accept different
//    values.
//  * Reliable Broadcast (RB) — Bracha's echo broadcast on top of WRB.
//    Type-3 "ready" messages with the t+1 amplification rule add the
//    all-or-none termination property.
//
// One Rbc component per process multiplexes arbitrarily many concurrent
// broadcast instances, keyed by BcastId.  The broadcast value is an opaque
// byte string (a serialized application Message); on acceptance it is
// parsed and checked against the instance id, so a Byzantine origin cannot
// smuggle a message for a different slot or session through its own
// broadcast.
//
// Storage is sized for the coin's traffic profile: a full-stack agreement
// run drives millions of transport packets through this state machine, so
// instances live in a flat open-addressing table (one hash probe per
// packet, no node allocations) and per-value sender sets are ProcSets
// (common/proc_set.hpp): fixed-width bitsets, since process ids are
// bounded by kMaxN.  A value is held as the shared payload it arrived in
// (every echo and ready of one honest burst shares one buffer), so tallying
// it copies nothing and matching it is mostly a pointer compare; accepted
// values parse into one reused Message.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/proc_set.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class Rbc {
 public:
  // Called exactly once per accepted broadcast with the parsed message.
  using DeliverFn = std::function<void(Context&, int origin, const Message&)>;

  explicit Rbc(DeliverFn deliver) : deliver_(std::move(deliver)) {}

  // Reliably broadcasts `m` as this process's broadcast for the slot
  // (m.sid, m.type, m.a).  Every process (including the sender) delivers it
  // at most once, and all nonfaulty processes that deliver agree.
  void broadcast(Context& ctx, const Message& m);

  // Feeds one RB transport packet into the state machine.  May trigger
  // echo/ready sends and, on acceptance, the deliver callback.
  void on_transport(Context& ctx, int from, const Packet& p);

 private:
  // Echo/ready tallies for one distinct broadcast value.  Almost every
  // instance sees exactly one value, so values live in a small vector
  // scanned linearly.
  struct ValueVotes {
    std::shared_ptr<const Bytes> value;  // null reads as empty
    ProcSet echoes;
    ProcSet readies;
  };

  struct Instance {
    bool sent_echo = false;
    bool sent_ready = false;
    bool accepted = false;
    std::vector<ValueVotes> votes;

    // The tally of p's value, added if new.
    ValueVotes& votes_for(const Packet& p);
  };

  void maybe_accept(Context& ctx, const BcastId& bid, Instance& inst,
                    const Packet& p, int ready_count);

  DeliverFn deliver_;
  FlatMap<BcastId, Instance, BcastIdHash> instances_;
  // The accepted value being delivered; its buffers are reused across
  // accepts.
  Message accepted_;
};

}  // namespace svss
