#include "core/node.hpp"

#include <stdexcept>

namespace svss {

Node::Node(int self, int n, int t, BatchFraming framing)
    : self_(self), n_(n), t_(t),
      rbc_([this](Context& ctx, int origin, const Message& m) {
        // Accepted broadcasts re-enter routing with the origin as sender;
        // the VSS layers' DMM filter applies the session-ordered discard.
        route_app(ctx, origin, m, /*via_rb=*/true);
      }),
      dmm_(Dmm::Hooks{
          /*on_shun=*/nullptr,
          /*redeliver=*/
          [this](Context& ctx, int from, const Message& m, bool via_rb) {
            route_app(ctx, from, m, via_rb);
          },
      }),
      batch_(*this, self, n, t, framing) {}

// The capture window brackets whole delivery cascades: everything a
// delivery (or the start action) makes the sessions emit is flushed before
// control returns to the engine.
void Node::start(Context& ctx) {
  const bool windowed = batch_.open_window();
  if (start_action_) start_action_(ctx, *this);
  if (windowed) batch_.close_window(ctx);
}

void Node::on_packet(Context& ctx, int from, const Packet& p) {
  const bool windowed = batch_.open_window();
  if (p.is_rb) {
    rbc_.on_transport(ctx, from, p);
  } else {
    route_app(ctx, from, p.app, /*via_rb=*/false);
  }
  if (windowed) batch_.close_window(ctx);
}

bool Node::sane_sid(const SessionId& sid) const {
  auto pid_ok = [this](int p) { return p >= 0 && p < n_; };
  switch (sid.path) {
    case SessionPath::kMwTop:
      return pid_ok(sid.owner) && pid_ok(sid.moderator) &&
             sid.owner != sid.moderator;
    case SessionPath::kMwInSvssTop:
      return pid_ok(sid.owner) && pid_ok(sid.moderator) &&
             pid_ok(sid.svss_dealer) && sid.owner != sid.moderator &&
             sid.variant <= 1;
    case SessionPath::kMwInSvssCoin:
      // Variants 2-3 are the MW envelope sid space (variant - 2 encodes
      // the children's variant); only envelopes may use them.
      return pid_ok(sid.owner) && pid_ok(sid.moderator) &&
             pid_ok(sid.svss_dealer) && sid.owner != sid.moderator &&
             sid.variant <= 3;
    case SessionPath::kSvssTop:
    case SessionPath::kSvssCoin:
      return pid_ok(sid.owner);
    case SessionPath::kCoin:
    case SessionPath::kAba:
    case SessionPath::kTest:
      return true;
  }
  return false;
}

void Node::route_app(Context& ctx, int sender, const Message& m,
                     bool via_rb) {
  if (!sane_sid(m.sid)) return;
  // An envelope splits into per-session messages, each of which re-enters
  // this routing.  Understood unconditionally, so batched and per-session
  // peers interoperate.
  if (batch_.unpack(ctx, sender, m, via_rb)) return;
  switch (m.sid.path) {
    case SessionPath::kMwTop:
    case SessionPath::kMwInSvssTop:
    case SessionPath::kMwInSvssCoin:
      // No session lives in the envelope sid space (variants 2-3).
      if (m.sid.variant > 1) return;
      deliver_mw(ctx, sender, m, via_rb);
      return;
    case SessionPath::kSvssTop:
    case SessionPath::kSvssCoin:
      deliver_svss(ctx, sender, m, via_rb);
      return;
    case SessionPath::kCoin:
      if (via_rb && coin_round_ok(m.sid.counter)) {
        coin(ctx, m.sid.instance, m.sid.counter).on_broadcast(ctx, sender, m);
      }
      return;
    case SessionPath::kAba: {
      // Variant 4 is the vote-envelope sid space; no session lives there.
      if (m.sid.variant >= 4) return;
      // variant 0 = the SVSS-coin agreement protocol; variant 1 = the
      // Ben-Or baseline (separate message space).
      if (m.sid.variant == 1) {
        if (benor_ && !via_rb) benor_->on_direct(ctx, sender, m);
        return;
      }
      if (m.sid.variant == 2) {
        if (!via_rb) return;
        if (acs_) {
          acs_->on_broadcast(ctx, sender, m);
        } else {
          pending_acs_.emplace_back(sender, m);
        }
        return;
      }
      if (m.sid.variant == 3) {
        if (!via_rb) return;
        if (sum_) {
          sum_->on_broadcast(ctx, sender, m);
        } else {
          pending_sum_.emplace_back(sender, m);
        }
        return;
      }
      // Create the instance lazily with the node's configured coin: ACS
      // instances receive peer votes before this process provides input.
      AbaSession& session = aba_instance(m.sid.instance);
      if (via_rb) {
        session.on_broadcast(ctx, sender, m);
      } else {
        session.on_direct(ctx, sender, m);
      }
      return;
    }
    case SessionPath::kTest:
      return;
  }
}

void Node::deliver_mw(Context& ctx, int sender, const Message& m,
                      bool via_rb) {
  if (!dmm_.filter(ctx, sender, m, via_rb)) return;
  if (via_rb && m.type == MsgType::kMwReconVal && m.vals.size() == 1 &&
      m.a >= 0 && m.a < n_) {
    // DMM rules 2-3: resolve or violate reconstruction expectations
    // before the session acts on the value.
    if (!dmm_.on_recon_value(ctx, sender, m.sid, m.a, m.vals[0])) return;
  }
  if (m.sid.path == SessionPath::kMwInSvssCoin) on_coin_contact(ctx, m.sid);
  MwSvssSession& s = mw(ctx, m.sid);
  if (via_rb) {
    s.on_broadcast(ctx, sender, m);
  } else {
    s.on_direct(ctx, sender, m);
  }
}

void Node::deliver_svss(Context& ctx, int sender, const Message& m,
                        bool via_rb) {
  if (!dmm_.filter(ctx, sender, m, via_rb)) return;
  if (m.sid.path == SessionPath::kSvssCoin) on_coin_contact(ctx, m.sid);
  SvssSession& s = svss(ctx, m.sid);
  if (via_rb) {
    s.on_broadcast(ctx, sender, m);
  } else {
    s.on_direct(ctx, sender, m);
  }
}

// ---------------------------------------------------------------------
// Session access
// ---------------------------------------------------------------------
template <class S, class... Args>
S& Node::open(const SessionId& sid, const Args&... args) {
  if (S* found = find<S>(sid)) return *found;
  // Built before the insert, so no Entry reference spans the constructor.
  auto made = std::make_unique<S>(*this, args...);
  S& session = *made;
  Entry& e = sessions_[sid];
  if (e.session.index() != 0) {
    throw std::logic_error("Node: sid " + sid.str() +
                           " already names another layer's session");
  }
  e.session = std::move(made);
  return session;
}

template <class S>
S* Node::find(const SessionId& sid) const {
  const Entry* e = sessions_.find(sid);
  if (e == nullptr) return nullptr;
  const auto* slot = std::get_if<std::unique_ptr<S>>(&e->session);
  return slot == nullptr ? nullptr : slot->get();
}

MwSvssSession& Node::mw(Context& ctx, const SessionId& sid) {
  (void)ctx;
  return open<MwSvssSession>(sid, sid, self_, n_, t_);
}

SvssSession& Node::svss(Context& ctx, const SessionId& sid) {
  (void)ctx;
  return open<SvssSession>(sid, sid, self_, n_, t_);
}

CoinSession& Node::coin(Context& ctx, std::uint32_t round) {
  return coin(ctx, 0, round);
}

CoinSession& Node::coin(Context& ctx, std::uint32_t instance,
                        std::uint32_t round) {
  (void)ctx;
  return open<CoinSession>(coin_sid(round, instance), round, self_, n_, t_,
                           instance);
}

void Node::start_aba(Context& ctx, int input, CoinMode mode,
                     std::uint64_t common_seed, std::uint32_t instance) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  // Bracket with the capture window so out-of-cascade submissions (a
  // daemon's submit() between polls) still get batched framing; inside a
  // delivery cascade the window is already open and this is a no-op.
  const bool windowed = batch_.open_window();
  aba_instance(instance).start(ctx, input);
  if (windowed) batch_.close_window(ctx);
}

AbaSession& Node::aba_instance(std::uint32_t instance) {
  return open<AbaSession>(aba_sid(instance), self_, n_, t_, aba_mode_,
                          aba_seed_, instance);
}

void Node::start_acs(Context& ctx, Bytes proposal, CoinMode mode,
                     std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  join_acs(ctx, std::move(proposal), AcsOptions{});
}

void Node::join_acs(Context& ctx, Bytes proposal, AcsOptions options) {
  if (!acs_) {
    acs_ = std::make_unique<AcsSession>(*this, self_, n_, t_, options);
    for (auto& [sender, m] : pending_acs_) acs_->on_broadcast(ctx, sender, m);
    pending_acs_.clear();
  }
  acs_->start(ctx, std::move(proposal));
}

void Node::start_secure_sum(Context& ctx, Fp input, CoinMode mode,
                            std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  if (!sum_) {
    sum_ = std::make_unique<SecureSumSession>(*this, self_, n_, t_);
  }
  sum_->start(ctx, input);
  for (auto& [sender, m] : pending_sum_) sum_->on_broadcast(ctx, sender, m);
  pending_sum_.clear();
}

void Node::sum_start_acs(Context& ctx, Bytes proposal) {
  // The secure-sum ACS vouches on share completion, not on proposals, and
  // does not gate its output on proposal payloads.
  join_acs(ctx, std::move(proposal),
           AcsOptions{/*vouch_on_proposal=*/false,
                      /*require_proposals=*/false});
}

void Node::sum_vouch(Context& ctx, int dealer) {
  if (acs_) acs_->mark_ready(ctx, dealer);
}

void Node::start_mvba(Context& ctx, Fp proposal, Fp default_value,
                      CoinMode mode, std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  if (!mvba_) {
    mvba_ = std::make_unique<MvbaSession>(*this, self_, n_, t_,
                                          default_value);
  }
  mvba_->start(ctx, proposal);
}

void Node::mvba_start_acs(Context& ctx, Bytes proposal) {
  join_acs(ctx, std::move(proposal), AcsOptions{});
}

SvssSession& Node::sum_svss(Context& ctx, const SessionId& sid) {
  return svss(ctx, sid);
}

void Node::acs_completed(Context& ctx,
                         const std::vector<std::pair<int, Bytes>>& subset) {
  if (sum_) sum_->on_acs_output(ctx, subset);
  if (mvba_) mvba_->on_acs_output(ctx, subset);
}

void Node::acs_start_aba(Context& ctx, std::uint32_t instance, int input) {
  aba_instance(instance).start(ctx, input);
}

AbaSession* Node::aba(std::uint32_t instance) {
  return find<AbaSession>(aba_sid(instance));
}

const AbaSession* Node::aba(std::uint32_t instance) const {
  return find<AbaSession>(aba_sid(instance));
}

void Node::start_benor(Context& ctx, int input) {
  if (!benor_) {
    benor_ = std::make_unique<BenOrSession>(
        [this](Context& c, int to, const Message& m) {
          send_direct(c, to, m);
        },
        self_, n_, t_);
  }
  benor_->start(ctx, input);
}

const MwSvssSession* Node::find_mw(const SessionId& sid) const {
  return find<MwSvssSession>(sid);
}

const SvssSession* Node::find_svss(const SessionId& sid) const {
  return find<SvssSession>(sid);
}

const CoinSession* Node::find_coin(std::uint32_t round) const {
  return find_coin(0, round);
}

const CoinSession* Node::find_coin(std::uint32_t instance,
                                   std::uint32_t round) const {
  return find<CoinSession>(coin_sid(round, instance));
}

// ---------------------------------------------------------------------
// Host plumbing
// ---------------------------------------------------------------------
void Node::rb_broadcast(Context& ctx, const Message& m) {
  if (batch_.capture(ctx, batch::kBroadcast, m)) return;
  rbc_.broadcast(ctx, m);
}

void Node::send_direct(Context& ctx, int to, const Message& m) {
  if (batch_.capture(ctx, to, m)) return;
  ctx.send(to, make_direct(m));
}

void Node::emit_direct(Context& ctx, int to, Message m) {
  ctx.send(to, make_direct(std::move(m)));
}

void Node::emit_rb(Context& ctx, const Message& m) { rbc_.broadcast(ctx, m); }

void Node::deliver_sub(Context& ctx, int sender, const Message& sub,
                       bool via_rb) {
  route_app(ctx, sender, sub, via_rb);
}

MwSvssSession& Node::mw_child(Context& ctx, const SessionId& child) {
  return mw(ctx, child);
}

SvssSession& Node::svss_child(Context& ctx, const SessionId& sid) {
  return svss(ctx, sid);
}

void Node::mw_share_completed(Context& ctx, const SessionId& sid) {
  if (auto parent = parent_session(sid)) {
    svss(ctx, *parent).on_child_share_complete(ctx, sid);
  }
}

void Node::mw_recon_output(Context& ctx, const SessionId& sid,
                           std::optional<Fp> value) {
  if (auto parent = parent_session(sid)) {
    svss(ctx, *parent).on_child_output(ctx, sid, value);
  }
  if (MwSvssSession* s = find<MwSvssSession>(sid)) s->compact();
}

void Node::svss_share_completed(Context& ctx, const SessionId& sid) {
  if (sid.path == SessionPath::kSvssCoin) {
    coin(ctx, sid.instance, sid.counter / kMaxN)
        .on_child_share_complete(ctx, sid);
  }
  if (sum_ && sid.path == SessionPath::kSvssTop &&
      sid.counter >= kSumCounterBase) {
    sum_->on_input_share_complete(ctx, sid);
  }
}

void Node::svss_recon_output(Context& ctx, const SessionId& sid,
                             std::optional<Fp> value) {
  if (sid.path == SessionPath::kSvssCoin) {
    coin(ctx, sid.instance, sid.counter / kMaxN).on_child_output(ctx, sid,
                                                                 value);
  }
}

void Node::coin_output(Context& ctx, std::uint32_t instance,
                       std::uint32_t round, int bit) {
  if (AbaSession* a = aba(instance)) a->on_coin(ctx, round, bit);
}

void Node::start_coin(Context& ctx, std::uint32_t instance,
                      std::uint32_t round) {
  coin(ctx, instance, round).start(ctx);
}

// Demand-driven dealing: a peer's coin-round traffic means some process
// needs that coin.  Both the SVSS sessions and their nested MW children
// carry round * kMaxN + attachee in the counter.
void Node::on_coin_contact(Context& ctx, const SessionId& sid) {
  const std::uint32_t round = sid.counter / kMaxN;
  if (!coin_round_ok(round)) return;
  const CoinSession* c = find_coin(sid.instance, round);
  if (c != nullptr && c->started()) return;
  const AbaSession* a = aba(sid.instance);
  if (a != nullptr && a->coin_mode() != CoinMode::kSvss) return;
  if (a != nullptr && a->current_round() >= round) {
    start_coin(ctx, sid.instance, round);
  } else {
    // Join on entry; the flag may precede the round's session.
    sessions_[coin_sid(round, sid.instance)].coin_contact = true;
  }
}

void Node::aba_entered_round(Context& ctx, std::uint32_t instance,
                             std::uint32_t round) {
  Entry* e = sessions_.find(coin_sid(round, instance));
  if (e == nullptr || !e->coin_contact) return;
  e->coin_contact = false;
  start_coin(ctx, instance, round);
}

void Node::aba_decided(Context& ctx, int value, std::uint32_t round,
                       std::uint32_t instance) {
  ++abas_decided_;  // AbaSession::decide calls this once per session
  if (acs_) acs_->on_aba_decided(ctx, instance, value);
  if (observers.aba_decided) {
    observers.aba_decided(ctx, value, round, instance);
  }
}

}  // namespace svss
