#include "core/node.hpp"

namespace svss {

Node::Node(int self, int n, int t, bool batched_coin, bool batched_mw,
           bool batched_votes)
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
      }) {
  if (batched_coin) {
    batch_ = std::make_unique<BatchedSvssTransport>(self, n, t);
  }
  if (batched_mw) {
    mw_batch_ = std::make_unique<MwGroupTransport>(self, n, t);
  }
  if (batched_votes) {
    vote_batch_ = std::make_unique<AbaVoteBatcher>(self, n);
  }
}

// The MW capture window brackets whole delivery cascades: everything a
// delivery (or the start action) makes the sessions emit is coalesced and
// flushed before control returns to the engine, so batching is pure
// framing — no message ever survives a cascade uncaptured or unsent.
bool Node::open_mw_window() {
  if (!mw_batch_ || mw_batch_->window_open()) return false;
  mw_batch_->open_window();
  return true;
}

void Node::close_mw_window(Context& ctx) {
  if (mw_batch_->close_window_if_empty()) return;
  mw_batch_->close_window(
      ctx, MwGroupTransport::EmitFns{
               [this](Context& c, const Message& m) { rbc_.broadcast(c, m); },
               [](Context& c, int to, Message m) {
                 c.send(to, make_direct(std::move(m)));
               },
           });
}

bool Node::open_vote_window() {
  if (!vote_batch_ || vote_batch_->window_open()) return false;
  vote_batch_->open_window();
  return true;
}

void Node::close_vote_window(Context& ctx) {
  if (vote_batch_->close_window_if_empty()) return;
  vote_batch_->close_window(
      ctx, AbaVoteBatcher::EmitFns{
               [this](Context& c, const Message& m) { rbc_.broadcast(c, m); },
               [](Context& c, int to, Message m) {
                 c.send(to, make_direct(std::move(m)));
               },
           });
}

void Node::start(Context& ctx) {
  const bool windowed = open_mw_window();
  const bool vote_windowed = open_vote_window();
  if (start_action_) start_action_(ctx, *this);
  if (vote_windowed) close_vote_window(ctx);
  if (windowed) close_mw_window(ctx);
}

void Node::on_packet(Context& ctx, int from, const Packet& p) {
  const bool windowed = open_mw_window();
  const bool vote_windowed = open_vote_window();
  if (p.is_rb) {
    rbc_.on_transport(ctx, from, p);
  } else {
    route_app(ctx, from, p.app, /*via_rb=*/false);
  }
  if (vote_windowed) close_vote_window(ctx);
  if (windowed) close_mw_window(ctx);
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
      // Variants 2-3 are the group-envelope sid space (variant - 2 encodes
      // the children's variant); only kMwBatch* messages may use them.
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
  switch (m.sid.path) {
    case SessionPath::kMwTop:
    case SessionPath::kMwInSvssTop:
    case SessionPath::kMwInSvssCoin: {
      if (MwGroupTransport::is_batch_type(m.type)) {
        // Group envelope: split into the per-session messages and run each
        // through the normal per-session path (DMM filter and recon rules
        // included).  Understood unconditionally, so batched and unbatched
        // peers interoperate.
        MwGroupTransport::unpack(
            ctx, n_, t_, sender, m, via_rb,
            [this](Context& c, int s, const Message& sub, bool rb) {
              deliver_mw(c, s, sub, rb);
            });
        return;
      }
      // Envelope sid space carrying a non-envelope type: no session lives
      // at variants 2-3.
      if (m.sid.variant > 1) return;
      deliver_mw(ctx, sender, m, via_rb);
      return;
    }
    case SessionPath::kSvssTop:
    case SessionPath::kSvssCoin: {
      if (BatchedSvssTransport::is_batch_type(m.type)) {
        // Shared-transport envelope: split into the per-session messages
        // and run each through the normal per-session path (DMM filter
        // included).  Understood unconditionally, so batched and
        // unbatched peers interoperate.
        BatchedSvssTransport::unpack(
            ctx, n_, t_, sender, m, via_rb,
            [this](Context& c, int s, const Message& sub, bool rb) {
              deliver_svss(c, s, sub, rb);
            });
        return;
      }
      deliver_svss(ctx, sender, m, via_rb);
      return;
    }
    case SessionPath::kCoin:
      if (via_rb && m.sid.counter <= kMaxN * kMaxN) {
        coin(ctx, m.sid.instance, m.sid.counter).on_broadcast(ctx, sender, m);
      }
      return;
    case SessionPath::kAba: {
      if (AbaVoteBatcher::is_batch_type(m.type)) {
        // Cross-instance vote envelope: split into the per-session votes
        // and run each through the normal per-instance path (AbaSession
        // re-applies the full vote validation).  Understood
        // unconditionally, so batched and unbatched peers interoperate.
        AbaVoteBatcher::unpack(
            ctx, sender, m, via_rb,
            [this](Context& c, int s, const Message& sub, bool rb) {
              AbaSession& session = aba_instance(sub.sid.instance);
              if (rb) {
                session.on_broadcast(c, s, sub);
              } else {
                session.on_direct(c, s, sub);
              }
            });
        return;
      }
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
MwSvssSession& Node::mw(Context& ctx, const SessionId& sid) {
  (void)ctx;
  std::unique_ptr<MwSvssSession>& slot = mw_[sid];
  if (!slot) {
    slot = std::make_unique<MwSvssSession>(*this, sid, self_, n_, t_);
  }
  return *slot;
}

SvssSession& Node::svss(Context& ctx, const SessionId& sid) {
  (void)ctx;
  std::unique_ptr<SvssSession>& slot = svss_[sid];
  if (!slot) {
    slot = std::make_unique<SvssSession>(*this, sid, self_, n_, t_);
  }
  return *slot;
}

namespace {
std::uint64_t coin_key(std::uint32_t instance, std::uint32_t round) {
  return (static_cast<std::uint64_t>(instance) << 32) | round;
}
}  // namespace

CoinSession& Node::coin(Context& ctx, std::uint32_t round) {
  return coin(ctx, 0, round);
}

CoinSession& Node::coin(Context& ctx, std::uint32_t instance,
                        std::uint32_t round) {
  (void)ctx;
  auto key = coin_key(instance, round);
  auto it = coins_.find(key);
  if (it == coins_.end()) {
    it = coins_
             .emplace(key, std::make_unique<CoinSession>(*this, round, self_,
                                                         n_, t_, instance))
             .first;
  }
  return *it->second;
}

void Node::start_aba(Context& ctx, int input, CoinMode mode,
                     std::uint64_t common_seed, std::uint32_t instance) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  // Bracket with the capture windows so out-of-cascade submissions (a
  // daemon's submit() between polls) still get batched framing; inside a
  // delivery cascade the windows are already open and these are no-ops.
  const bool windowed = open_mw_window();
  const bool vote_windowed = open_vote_window();
  aba_instance(instance).start(ctx, input);
  if (vote_windowed) close_vote_window(ctx);
  if (windowed) close_mw_window(ctx);
}

AbaSession& Node::aba_instance(std::uint32_t instance) {
  auto it = abas_.find(instance);
  if (it == abas_.end()) {
    it = abas_.emplace(instance,
                       std::make_unique<AbaSession>(*this, self_, n_, t_,
                                                    aba_mode_, aba_seed_,
                                                    instance))
             .first;
  }
  return *it->second;
}

void Node::start_acs(Context& ctx, Bytes proposal, CoinMode mode,
                     std::uint64_t common_seed) {
  aba_mode_ = mode;
  aba_seed_ = common_seed;
  if (!acs_) {
    acs_ = std::make_unique<AcsSession>(*this, self_, n_, t_);
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
  if (!acs_) {
    // The secure-sum ACS vouches on share completion, not on proposals,
    // and does not gate its output on proposal payloads.
    acs_ = std::make_unique<AcsSession>(
        *this, self_, n_, t_,
        AcsOptions{/*vouch_on_proposal=*/false, /*require_proposals=*/false});
    for (auto& [sender, m] : pending_acs_) acs_->on_broadcast(ctx, sender, m);
    pending_acs_.clear();
  }
  acs_->start(ctx, std::move(proposal));
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
  if (!acs_) {
    acs_ = std::make_unique<AcsSession>(*this, self_, n_, t_);
    for (auto& [sender, m] : pending_acs_) acs_->on_broadcast(ctx, sender, m);
    pending_acs_.clear();
  }
  acs_->start(ctx, std::move(proposal));
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
  auto it = abas_.find(instance);
  return it == abas_.end() ? nullptr : it->second.get();
}

const AbaSession* Node::aba(std::uint32_t instance) const {
  auto it = abas_.find(instance);
  return it == abas_.end() ? nullptr : it->second.get();
}

void Node::start_benor(Context& ctx, int input) {
  if (!benor_) {
    benor_ = std::make_unique<BenOrSession>(
        [this](Context& c, int to, Message m) {
          send_direct(c, to, std::move(m));
        },
        self_, n_, t_);
  }
  benor_->start(ctx, input);
}

const MwSvssSession* Node::find_mw(const SessionId& sid) const {
  const std::unique_ptr<MwSvssSession>* slot = mw_.find(sid);
  return slot == nullptr ? nullptr : slot->get();
}

const SvssSession* Node::find_svss(const SessionId& sid) const {
  const std::unique_ptr<SvssSession>* slot = svss_.find(sid);
  return slot == nullptr ? nullptr : slot->get();
}

const CoinSession* Node::find_coin(std::uint32_t round) const {
  return find_coin(0, round);
}

const CoinSession* Node::find_coin(std::uint32_t instance,
                                   std::uint32_t round) const {
  auto it = coins_.find(coin_key(instance, round));
  return it == coins_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------
// Host plumbing
// ---------------------------------------------------------------------
void Node::rb_broadcast(Context& ctx, const Message& m) {
  if (vote_batch_ && vote_batch_->window_open() &&
      vote_batch_->capture_broadcast(m)) {
    // Coalesced into the cascade's kAbaBatchConf envelope; flushed when
    // the vote window closes.
    return;
  }
  if (mw_batch_ && mw_batch_->window_open() &&
      mw_batch_->capture_broadcast(m)) {
    // Coalesced into the group's kMwBatch* envelope; flushed when the
    // current delivery cascade's window closes.
    return;
  }
  if (batch_ && m.type == MsgType::kSvssGset &&
      m.sid.path == SessionPath::kSvssCoin && m.sid.owner == self_) {
    // Batch the n sibling sessions' G-sets into one RBC instance: the
    // shared echo/ready rounds replace n per-session ones.  The combined
    // broadcast goes out when the last sibling produced its set.
    if (auto batched = batch_->capture_gset(m)) {
      rbc_.broadcast(ctx, *batched);
    }
    return;
  }
  rbc_.broadcast(ctx, m);
}

void Node::send_direct(Context& ctx, int to, Message m) {
  if (vote_batch_ && vote_batch_->window_open() &&
      vote_batch_->capture_direct(to, m)) {
    return;
  }
  if (mw_batch_ && mw_batch_->window_open() &&
      mw_batch_->capture_direct(to, m)) {
    return;
  }
  if (batch_ && batch_->capture_dealer_shares(to, m)) return;
  ctx.send(to, make_direct(std::move(m)));
}

void Node::svss_batch_window(Context& ctx, std::uint32_t instance,
                             std::uint32_t round, bool open) {
  if (!batch_) return;
  if (open) {
    batch_->open_window(instance, round);
  } else {
    batch_->close_window(ctx);
  }
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
  if (observers.mw_share_complete) observers.mw_share_complete(ctx, sid);
}

void Node::mw_recon_output(Context& ctx, const SessionId& sid,
                           std::optional<Fp> value) {
  if (auto parent = parent_session(sid)) {
    svss(ctx, *parent).on_child_output(ctx, sid, value);
  }
  if (observers.mw_output) observers.mw_output(ctx, sid, value);
  if (auto* slot = mw_.find(sid); slot != nullptr && *slot) {
    (*slot)->compact();
  }
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
  if (observers.svss_share_complete) observers.svss_share_complete(ctx, sid);
}

void Node::svss_recon_output(Context& ctx, const SessionId& sid,
                             std::optional<Fp> value) {
  if (sid.path == SessionPath::kSvssCoin) {
    coin(ctx, sid.instance, sid.counter / kMaxN).on_child_output(ctx, sid,
                                                                 value);
  }
  if (observers.svss_output) observers.svss_output(ctx, sid, value);
}

void Node::coin_output(Context& ctx, std::uint32_t instance,
                       std::uint32_t round, int bit) {
  auto it = abas_.find(instance);
  if (it != abas_.end()) it->second->on_coin(ctx, round, bit);
  if (instance == 0 && observers.coin_output) {
    observers.coin_output(ctx, round, bit);
  }
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
  if (round < 1 || round >= kCoinRoundsPerInstance) return;
  const CoinSession* c = find_coin(sid.instance, round);
  if (c != nullptr && c->started()) return;
  const AbaSession* a = aba(sid.instance);
  if (a != nullptr && a->coin_mode() != CoinMode::kSvss) return;
  if (a != nullptr && a->current_round() >= round) {
    start_coin(ctx, sid.instance, round);
  } else {
    coin_contact_.insert(coin_key(sid.instance, round));  // join on entry
  }
}

void Node::aba_entered_round(Context& ctx, std::uint32_t instance,
                             std::uint32_t round) {
  if (coin_contact_.erase(coin_key(instance, round)) != 0) {
    start_coin(ctx, instance, round);
  }
}

void Node::aba_decided(Context& ctx, int value, std::uint32_t round,
                       std::uint32_t instance) {
  if (acs_) acs_->on_aba_decided(ctx, instance, value);
  if (observers.aba_decided) {
    observers.aba_decided(ctx, value, round, instance);
  }
}

}  // namespace svss
