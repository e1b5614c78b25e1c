#include "rbc/rbc.hpp"

namespace svss {

void Rbc::broadcast(Context& ctx, const Message& m) {
  BcastId bid;
  bid.origin = static_cast<std::int16_t>(ctx.self());
  bid.sid = m.sid;
  bid.slot = m.type;
  bid.a = m.a;
  ctx.send_all(make_rb(bid, RbPhase::kSend, m.serialize()));
}

Rbc::ValueVotes& Rbc::Instance::votes_for(const Packet& p) {
  static const Bytes kEmpty;
  const Bytes& bytes = p.rb_payload();
  for (ValueVotes& v : votes) {
    // An honest burst shares one buffer: the pointer usually decides.
    if (v.value == p.value || (v.value ? *v.value : kEmpty) == bytes) {
      return v;
    }
  }
  votes.push_back(ValueVotes{p.value, {}, {}});
  return votes.back();
}

void Rbc::on_transport(Context& ctx, int from, const Packet& p) {
  if (!p.is_rb) return;
  const BcastId& bid = p.bid;
  // No instance is created while this handler runs (broadcast() never
  // touches the table), so the reference stays valid across the sends.
  Instance& inst = instances_[bid];
  if (inst.accepted) return;
  const int n = ctx.n();
  const int t = ctx.t();

  switch (p.phase) {
    case RbPhase::kSend: {
      // WRB step 2: echo the dealer's type-1 message, once, only if it
      // really came from the claimed origin.  Relaying reuses the shared
      // payload: no copy per echo.
      if (from != bid.origin || inst.sent_echo) return;
      inst.sent_echo = true;
      ctx.send_all(make_rb(bid, RbPhase::kEcho, p.value));
      return;
    }
    case RbPhase::kEcho: {
      ValueVotes& votes = inst.votes_for(p);
      if (!votes.echoes.insert(from)) return;
      // WRB step 3: n-t matching echoes -> WRB-accept; RB step 2: send
      // ready for the WRB-accepted value.
      if (votes.echoes.count() >= n - t && !inst.sent_ready) {
        inst.sent_ready = true;
        ctx.send_all(make_rb(bid, RbPhase::kReady, p.value));
      }
      return;
    }
    case RbPhase::kReady: {
      ValueVotes& votes = inst.votes_for(p);
      if (!votes.readies.insert(from)) return;
      int readies = votes.readies.count();
      // RB step 3: t+1 readies amplify.
      if (readies >= t + 1 && !inst.sent_ready) {
        inst.sent_ready = true;
        ctx.send_all(make_rb(bid, RbPhase::kReady, p.value));
      }
      // RB step 4: n-t readies accept.
      maybe_accept(ctx, bid, inst, p, readies);
      return;
    }
  }
}

void Rbc::maybe_accept(Context& ctx, const BcastId& bid, Instance& inst,
                       const Packet& p, int ready_count) {
  if (inst.accepted || ready_count < ctx.n() - ctx.t()) {
    return;
  }
  inst.accepted = true;
  // Free the per-value tallies; the instance record stays as an accept
  // marker.
  inst.votes.clear();
  inst.votes.shrink_to_fit();

  // Taken, not borrowed: the delivery's cascade may accept again.
  Message msg = std::move(accepted_);
  // A Byzantine origin can get garbage accepted, or a message whose header
  // does not match the slot it was broadcast under.  All nonfaulty
  // processes parse the same bytes, so they all drop it consistently.
  if (msg.parse(p.rb_payload()) && msg.sid == bid.sid &&
      msg.type == bid.slot && msg.a == bid.a) {
    deliver_(ctx, bid.origin, msg);
  }
  accepted_ = std::move(msg);
}

}  // namespace svss
