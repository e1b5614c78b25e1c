#include "mwsvss/mwsvss.hpp"

#include <span>

namespace svss {

// L-hat rows store ids as bytes.
static_assert(kMaxN <= 256);

MwSvssSession::MwSvssSession(MwHost& host, SessionId sid, int self, int n,
                             int t)
    : host_(host), sid_(sid), self_(self), n_(n), t_(t) {
  host_.dmm().note_begin(sid_);
}

Message MwSvssSession::base_msg(MsgType type) const {
  Message m;
  m.sid = sid_;
  m.type = type;
  return m;
}

std::optional<ProcSet> MwSvssSession::pid_set(
    const std::vector<int>& ids) const {
  if (static_cast<int>(ids.size()) < n_ - t_) return std::nullopt;
  ProcSet set;
  for (int id : ids) {
    if (!valid_pid(id) || !set.insert(id)) return std::nullopt;
  }
  return set;
}

// ---------------------------------------------------------------------
// S' step 1: the dealer draws f with f(0) = s and f_l with
// f_l(0) = f(point(l)), then distributes.
// ---------------------------------------------------------------------
void MwSvssSession::deal(Context& ctx, Fp secret) {
  if (dealt_ || self_ != dealer()) return;
  dealt_ = true;
  dealer_f_ = Polynomial::random_with_constant(secret, t_, ctx.rng());
  dealer_polys_.reserve(static_cast<std::size_t>(n_));
  for (int l = 0; l < n_; ++l) {
    dealer_polys_.push_back(Polynomial::random_with_constant(
        dealer_f_.eval(point(l)), t_, ctx.rng()));
  }
  for (int j = 0; j < n_; ++j) {
    // f_1(j) .. f_n(j): one value of every monitored polynomial.
    Message shares = base_msg(MsgType::kMwDealerShares);
    shares.vals.reserve(static_cast<std::size_t>(n_));
    for (int l = 0; l < n_; ++l) {
      shares.vals.push_back(dealer_polys_[static_cast<std::size_t>(l)].eval(
          point(j)));
    }
    host_.send_direct(ctx, j, std::move(shares));
    // f_j(1) .. f_j(t+1): enough for j to reconstruct its own polynomial.
    Message poly = base_msg(MsgType::kMwDealerPoly);
    poly.vals = dealer_polys_[static_cast<std::size_t>(j)].evaluate_range(
        t_ + 1);
    host_.send_direct(ctx, j, std::move(poly));
  }
  Message whole = base_msg(MsgType::kMwDealerWhole);
  whole.vals = dealer_f_.evaluate_range(t_ + 1);
  host_.send_direct(ctx, moderator(), std::move(whole));
}

void MwSvssSession::set_moderator_input(Context& ctx, Fp s_prime) {
  if (self_ != moderator() || mod_input_) return;
  mod_input_ = s_prime;
  progress(ctx, kModerate);
}

void MwSvssSession::on_direct(Context& ctx, int from, const Message& m) {
  // A compacted session has nothing left to do.
  if (compacted_ || !valid_pid(from)) return;
  unsigned steps = 0;
  switch (m.type) {
    case MsgType::kMwDealerShares:
      if (from != dealer() || row_vals_ ||
          static_cast<int>(m.vals.size()) != n_) {
        return;
      }
      row_vals_ = m.vals;
      steps = kEcho;
      break;
    case MsgType::kMwDealerPoly: {
      if (from != dealer() || my_poly_ ||
          static_cast<int>(m.vals.size()) != t_ + 1) {
        return;
      }
      my_poly_ = Polynomial::interpolate_consecutive(m.vals);
      steps = kEcho | kConfirm;
      break;
    }
    case MsgType::kMwDealerWhole: {
      if (from != dealer() || self_ != moderator() || whole_poly_ ||
          static_cast<int>(m.vals.size()) != t_ + 1) {
        return;
      }
      whole_poly_ = Polynomial::interpolate_consecutive(m.vals);
      steps = kModerate;
      break;
    }
    case MsgType::kMwEchoVal:
      // from sends f-hat^from_self: its received value of f_self(from).
      if (m.vals.size() != 1 || !echo_from_.insert(from)) return;
      peer(from).echo = m.vals[0];
      steps = kConfirm;
      break;
    case MsgType::kMwMonitorVal:
      // Monitor `from` hands the moderator its f-hat_from(0).
      if (self_ != moderator() || m.vals.size() != 1 ||
          !monitor_from_.insert(from)) {
        return;
      }
      peer(from).monitor = m.vals[0];
      steps = kModerate;
      break;
    default:
      return;
  }
  progress(ctx, steps);
}

void MwSvssSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  if (compacted_ || !valid_pid(origin)) return;
  unsigned steps = 0;
  switch (m.type) {
    case MsgType::kMwAck:
      if (!acked_.insert(origin)) return;
      steps = kConfirm | kModerate | kComplete;
      break;
    case MsgType::kMwLset: {
      if (lset_from_.contains(origin)) return;
      auto ids = pid_set(m.ints);
      if (!ids) return;
      lset_from_.insert(origin);
      peer(origin).lset = *ids;
      if (lset_order_.empty()) {
        lset_order_.resize(static_cast<std::size_t>(n_) *
                           static_cast<std::size_t>(n_));
      }
      std::size_t row =
          static_cast<std::size_t>(origin) * static_cast<std::size_t>(n_);
      for (int id : m.ints) lset_order_[row++] = static_cast<std::uint8_t>(id);
      steps = kModerate | kComplete;
      break;
    }
    case MsgType::kMwMset: {
      if (origin != moderator() || mset_) return;
      auto ids = pid_set(m.ints);
      if (!ids) return;
      mset_ = m.ints;
      mset_bits_ = *ids;
      // S' step 8: a process outside M-hat drops its DEAL expectations for
      // this session — its polynomial no longer matters.
      if (!mset_bits_.contains(self_)) {
        host_.dmm().clear_deal_entries(ctx, sid_);
      }
      steps = kComplete;
      break;
    }
    case MsgType::kMwOk:
      if (origin != dealer()) return;
      ok_seen_ = true;
      steps = kComplete;
      break;
    case MsgType::kMwReconVal: {
      // DMM rules 2-3 ran before this handler (see core::Node routing).
      if (m.vals.size() != 1 || !valid_pid(m.a)) return;
      if (!peer(m.a).recon_from.insert(origin)) return;
      recon_vals_.push_back(ReconVal{origin, m.a, m.vals[0]});
      break;  // feeds only R'
    }
    default:
      return;
  }
  progress(ctx, steps);
}

void MwSvssSession::progress(Context& ctx, unsigned steps) {
  if (compacted_) return;
  if ((steps & kEcho) != 0) try_echo_and_ack(ctx);
  if ((steps & kConfirm) != 0) {
    try_add_deal_entries(ctx);
    try_broadcast_lset(ctx);
  }
  if ((steps & kModerate) != 0 && self_ == moderator()) {
    moderator_progress(ctx);
  }
  if (self_ == dealer()) dealer_progress(ctx);
  if ((steps & kComplete) != 0) try_complete_share(ctx);
  if (recon_started_) recon_progress(ctx);
}

// S' step 2: once both dealer messages are in, echo each value to its
// monitor and publicly acknowledge.
void MwSvssSession::try_echo_and_ack(Context& ctx) {
  if (echoed_ || !row_vals_ || !my_poly_) return;
  echoed_ = true;
  for (int l = 0; l < n_; ++l) {
    Message echo = base_msg(MsgType::kMwEchoVal);
    echo.vals.push_back((*row_vals_)[static_cast<std::size_t>(l)]);
    host_.send_direct(ctx, l, std::move(echo));
  }
  host_.rb_broadcast(ctx, base_msg(MsgType::kMwAck));
}

// S' step 3: confirmer l checks out for f_self — register the expectation
// that l will publicly confirm f_self(l) during reconstruction.  Entries
// are only added while L_self is still open: a confirmer outside the
// frozen L-hat set never broadcasts for us, so its expectation could never
// be resolved and would wrongly delay an honest process forever (this is
// the one place we deviate from the paper's letter; see DESIGN.md).
void MwSvssSession::try_add_deal_entries(Context& ctx) {
  if (!my_poly_ || lset_sent_) return;
  // S' step 8 extension: once M-hat is known and we are not a monitor in
  // it, f_self is irrelevant — registering further expectations would
  // create obligations nobody ever fulfills.
  if (mset_ && !mset_bits_.contains(self_)) return;
  // Each acked echo is compared once: its value and f-hat_self are both
  // fixed, so a mismatch is final.
  ProcSet fresh = (echo_from_ & acked_).minus(deal_checked_);
  fresh.for_each([&](int l) {
    deal_checked_.insert(l);
    Fp val = peer(l).echo;
    if (val == my_poly_->eval(point(l))) {
      deal_added_.insert(l);
      host_.dmm().add_deal_entry(ctx, l, sid_, val);
    }
  });
}

// S' step 4: enough confirmers — publish L_self and give the moderator the
// monitored point f_self(0).
void MwSvssSession::try_broadcast_lset(Context& ctx) {
  if (lset_sent_ || !my_poly_ || deal_added_.count() < n_ - t_) return;
  lset_sent_ = true;
  Message lset = base_msg(MsgType::kMwLset);
  deal_added_.for_each([&](int l) { lset.ints.push_back(l); });
  host_.rb_broadcast(ctx, lset);
  Message mv = base_msg(MsgType::kMwMonitorVal);
  mv.vals.push_back(my_poly_->constant());
  host_.send_direct(ctx, moderator(), std::move(mv));
}

// S' steps 5-6: the moderator accepts monitors whose point agrees with the
// dealer's f and whose confirmers all acked, provided f(0) equals its own
// input s'; with n-t accepted monitors it publishes M.
void MwSvssSession::moderator_progress(Context& ctx) {
  if (mset_sent_ || !whole_poly_ || !mod_input_) return;
  if (whole_poly_->constant() != *mod_input_) return;  // dealer != moderator
  ProcSet candidates = (monitor_from_ & lset_from_).minus(m_building_);
  candidates.for_each([&](int j) {
    const Peer& p = peer(j);
    if (p.monitor != whole_poly_->eval(point(j))) return;
    if (p.lset.subset_of(acked_)) m_building_.insert(j);
  });
  if (m_building_.count() >= n_ - t_) {
    mset_sent_ = true;
    Message mset = base_msg(MsgType::kMwMset);
    m_building_.for_each([&](int j) { mset.ints.push_back(j); });
    host_.rb_broadcast(ctx, mset);
  }
}

MwSvssSession::Peer& MwSvssSession::peer(int l) {
  if (peers_.empty()) peers_.resize(static_cast<std::size_t>(n_));
  return peers_[static_cast<std::size_t>(l)];
}

bool MwSvssSession::mset_covered() {
  if (!mset_ || !mset_bits_.subset_of(lset_from_)) return false;
  for (int j : *mset_) {
    if (!peer(j).lset.subset_of(acked_)) return false;
  }
  return true;
}

// S' step 7: the dealer cross-checks the moderator's M against the L sets
// and acks it saw itself, registers ACK expectations for every (monitor,
// confirmer) pair, and publishes OK.
void MwSvssSession::dealer_progress(Context& ctx) {
  if (ok_sent_ || !dealt_ || !mset_covered()) return;
  ok_sent_ = true;
  for (int j : *mset_) {
    const Polynomial& fj = dealer_polys_[static_cast<std::size_t>(j)];
    const std::uint8_t* row = &lset_order_[static_cast<std::size_t>(j) *
                                           static_cast<std::size_t>(n_)];
    int size = peer(j).lset.count();
    for (int k = 0; k < size; ++k) {
      int l = row[k];
      host_.dmm().add_ack_entry(ctx, l, j, sid_, fj.eval(point(l)));
    }
  }
  host_.rb_broadcast(ctx, base_msg(MsgType::kMwOk));
}

// S' step 9: OK + M-hat + all L-hat sets + all their acks == done.
void MwSvssSession::try_complete_share(Context& ctx) {
  if (share_done_ || !ok_seen_ || !mset_covered()) return;
  share_done_ = true;
  ctx.log().record(
      Event{EventKind::kMwShareComplete, self_, -1, sid_, 0, false});
  host_.mw_share_completed(ctx, sid_);
}

// R' step 1: publish every value this process confirmed as some monitor's
// confirmer.
void MwSvssSession::start_reconstruct(Context& ctx) {
  if (recon_started_) return;
  recon_started_ = true;
  progress(ctx, 0);
}

void MwSvssSession::recon_progress(Context& ctx) {
  // Everything below relies on the S' completion invariant: M-hat and the
  // L-hat set of every monitor in it are present.
  if (output_ready_ || !share_done_ || !mset_) return;
  if (!recon_broadcast_done_ && row_vals_) {
    recon_broadcast_done_ = true;
    for (int l : *mset_) {
      if (!peer(l).lset.contains(self_)) continue;
      Message rv = base_msg(MsgType::kMwReconVal);
      rv.a = static_cast<std::int16_t>(l);
      rv.vals.push_back((*row_vals_)[static_cast<std::size_t>(l)]);
      host_.rb_broadcast(ctx, rv);
    }
  }

  // R' steps 2-3: fold broadcast values into K_{self,l} in arrival order;
  // the first t+1 points of each monitor determine f-bar_l, of which R'
  // step 4 needs only f-bar_l(0).
  const auto width = static_cast<std::size_t>(t_) + 1;
  if (kvals_.empty()) kvals_.resize(static_cast<std::size_t>(n_) * width);
  for (; recon_cursor_ < recon_vals_.size(); ++recon_cursor_) {
    const ReconVal& rv = recon_vals_[recon_cursor_];
    Peer& p = peer(rv.l);
    if (!mset_bits_.contains(rv.l) || !p.lset.contains(rv.from)) continue;
    if (p.kcount >= t_ + 1) continue;
    std::size_t row = static_cast<std::size_t>(rv.l) * width;
    kvals_[row + static_cast<std::size_t>(p.kcount++)] = {point(rv.from), rv.x};
    if (p.kcount == t_ + 1) {
      p.fbar0 = Polynomial::interpolate_at_zero(
          std::span<const std::pair<Fp, Fp>>(&kvals_[row], width));
      fbar_from_.insert(rv.l);
    }
  }

  // R' step 4: with every monitor's polynomial in hand, interpolate f-bar
  // through the monitored points, or output bottom.
  if (!mset_bits_.subset_of(fbar_from_)) return;
  std::vector<std::pair<Fp, Fp>> pts;
  pts.reserve(mset_->size());
  for (int l : *mset_) {
    pts.emplace_back(point(l), peer(l).fbar0);
  }
  auto f = Polynomial::interpolate_checked(pts, t_);
  output_ready_ = true;
  output_ = f ? std::optional<Fp>(f->constant()) : std::nullopt;
  ctx.log().record(Event{EventKind::kMwReconOutput, self_, -1, sid_,
                         output_ ? static_cast<std::int64_t>(output_->value())
                                 : 0,
                         output_.has_value()});
  host_.dmm().note_complete(sid_);
  host_.mw_recon_output(ctx, sid_, output_);
}

void MwSvssSession::compact() {
  if (!share_done_ || !output_ready_ || compacted_) return;
  compacted_ = true;
  dealer_polys_ = {};
  row_vals_.reset();
  peers_ = {};
  lset_order_ = {};
  recon_vals_ = {};
  kvals_ = {};
}

}  // namespace svss
