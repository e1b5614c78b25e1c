#include "svss/svss.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace svss {

SessionId mw_child_id(const SessionId& parent, int dealer, int moderator,
                      int variant) {
  SessionId child;
  child.path = parent.path == SessionPath::kSvssCoin
                   ? SessionPath::kMwInSvssCoin
                   : SessionPath::kMwInSvssTop;
  child.variant = static_cast<std::uint8_t>(variant);
  child.owner = static_cast<std::int16_t>(dealer);
  child.moderator = static_cast<std::int16_t>(moderator);
  child.svss_dealer = parent.owner;
  child.counter = parent.counter;
  child.instance = parent.instance;
  return child;
}

SvssSession::SvssSession(SvssHost& host, SessionId sid, int self, int n,
                         int t)
    : host_(host), sid_(sid), self_(self), n_(n), t_(t),
      g_building_(static_cast<std::size_t>(n)) {
  host_.dmm().note_begin(sid_);
  // G_j contains j itself; pairs (j, l) contribute the other members.
  for (int j = 0; j < n; ++j) g_building_[static_cast<std::size_t>(j)].insert(j);
}

std::array<SessionId, 4> SvssSession::pair_children(int a, int b) const {
  return {mw_child_id(sid_, a, b, 0), mw_child_id(sid_, a, b, 1),
          mw_child_id(sid_, b, a, 0), mw_child_id(sid_, b, a, 1)};
}

// ---------------------------------------------------------------------
// S step 1
// ---------------------------------------------------------------------
void SvssSession::deal(Context& ctx, Fp secret) {
  if (dealt_ || self_ != dealer()) return;
  dealt_ = true;
  f_ = BivariatePolynomial::random_with_secret(secret, t_, ctx.rng());
  FieldVec scratch;
  for (int j = 0; j < n_; ++j) {
    // g_j(1..t+1) then h_j(1..t+1): enough to reconstruct both slices.
    // Evaluated in one pass over the coefficient grid (no per-recipient
    // polynomial allocations — the coin deals n of these per process per
    // round).
    Message m;
    m.sid = sid_;
    m.type = MsgType::kSvssDealerShares;
    f_.append_share_points(j + 1, t_ + 1, m.vals, scratch);
    host_.send_direct(ctx, j, std::move(m));
  }
}

void SvssSession::on_direct(Context& ctx, int from, const Message& m) {
  if (m.type != MsgType::kSvssDealerShares) return;
  if (from != dealer() || g_ ||
      static_cast<int>(m.vals.size()) != 2 * (t_ + 1)) {
    return;
  }
  const auto half = static_cast<std::size_t>(t_ + 1);
  g_ = Polynomial::interpolate_consecutive(std::span(m.vals).first(half));
  h_ = Polynomial::interpolate_consecutive(std::span(m.vals).subspan(half));
  start_children(ctx);
}

// ---------------------------------------------------------------------
// S step 2: per counterpart l, run four MW-SVSS invocations committing the
// grid entries f(l, self) and f(self, l), alternating dealer/moderator.
// ---------------------------------------------------------------------
void SvssSession::start_children(Context& ctx) {
  if (children_started_ || !g_ || !h_) return;
  children_started_ = true;
  for (int l = 0; l < n_; ++l) {
    if (l == self_) continue;
    // (a) self deals f(l, self) = h_self(point(l)), l moderates (variant 0:
    //     f(moderator, dealer) from the child's perspective).
    host_.mw_child(ctx, mw_child_id(sid_, self_, l, 0))
        .deal(ctx, h_->eval(point(l)));
    // (b) self deals f(self, l) = g_self(point(l)), l moderates.
    host_.mw_child(ctx, mw_child_id(sid_, self_, l, 1))
        .deal(ctx, g_->eval(point(l)));
    // (c) l deals f(self, l); self moderates with its own g value.
    host_.mw_child(ctx, mw_child_id(sid_, l, self_, 0))
        .set_moderator_input(ctx, g_->eval(point(l)));
    // (d) l deals f(l, self); self moderates with its own h value.
    host_.mw_child(ctx, mw_child_id(sid_, l, self_, 1))
        .set_moderator_input(ctx, h_->eval(point(l)));
  }
}

// ---------------------------------------------------------------------
// S steps 3-5 (dealer bookkeeping) and step 6 (completion)
// ---------------------------------------------------------------------
void SvssSession::on_child_share_complete(Context& ctx,
                                          const SessionId& child) {
  completed_children_.insert(child);
  if (self_ == dealer()) dealer_track_pairs(ctx, child);
  try_complete_share(ctx);
}

void SvssSession::dealer_track_pairs(Context& ctx, const SessionId& child) {
  int a = std::min<int>(child.owner, child.moderator);
  int b = std::max<int>(child.owner, child.moderator);
  int done = ++pair_done_[{a, b}];
  if (done == 4) {
    g_building_[static_cast<std::size_t>(a)].insert(b);
    g_building_[static_cast<std::size_t>(b)].insert(a);
    try_broadcast_gset(ctx);
  }
}

void SvssSession::try_broadcast_gset(Context& ctx) {
  if (gset_sent_) return;
  std::vector<int> g;
  for (int j = 0; j < n_; ++j) {
    if (static_cast<int>(g_building_[static_cast<std::size_t>(j)].size()) >=
        n_ - t_) {
      g.push_back(j);
    }
  }
  if (static_cast<int>(g.size()) < n_ - t_) return;
  gset_sent_ = true;
  Message m;
  m.sid = sid_;
  m.type = MsgType::kSvssGset;
  m.ints = g;
  Writer w;
  for (int j : g) {
    w.i32(j);
    const auto& gj = g_building_[static_cast<std::size_t>(j)];
    w.int_vec(std::vector<int>(gj.begin(), gj.end()));
  }
  m.blob = std::move(w).take();
  host_.rb_broadcast(ctx, m);
}

void SvssSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  if (m.type != MsgType::kSvssGset) return;
  if (origin != dealer() || gset_) return;
  // Validate: G has >= n-t distinct valid members, each with a G_j of
  // >= n-t distinct valid members containing j itself.
  if (static_cast<int>(m.ints.size()) < n_ - t_) return;
  std::set<int> seen;
  for (int j : m.ints) {
    if (j < 0 || j >= n_ || !seen.insert(j).second) return;
  }
  Reader r(m.blob);
  std::map<int, std::vector<int>> sub;
  for (std::size_t i = 0; i < m.ints.size(); ++i) {
    auto j = r.i32();
    auto gj = r.int_vec(static_cast<std::size_t>(n_));
    if (!j || !gj || *j != m.ints[i]) return;
    if (static_cast<int>(gj->size()) < n_ - t_) return;
    std::set<int> sub_seen;
    bool has_self = false;
    for (int l : *gj) {
      if (l < 0 || l >= n_ || !sub_seen.insert(l).second) return;
      if (l == *j) has_self = true;
    }
    if (!has_self) return;
    sub.emplace(*j, std::move(*gj));
  }
  if (!r.exhausted()) return;
  gset_ = m.ints;
  gsub_ = std::move(sub);
  try_complete_share(ctx);
  try_finish_recon(ctx);
}

void SvssSession::try_complete_share(Context& ctx) {
  if (share_done_ || !gset_) return;
  for (int j : *gset_) {
    for (int l : gsub_.at(j)) {
      if (l == j) continue;
      for (const SessionId& child : pair_children(j, l)) {
        if (completed_children_.count(child) == 0) return;
      }
    }
  }
  share_done_ = true;
  ctx.log().record(
      Event{EventKind::kSvssShareComplete, self_, -1, sid_, 0, false});
  host_.svss_share_completed(ctx, sid_);
}

// ---------------------------------------------------------------------
// R step 1: reconstruct every pair's four entries.
// ---------------------------------------------------------------------
void SvssSession::start_reconstruct(Context& ctx) {
  if (recon_started_) return;
  recon_started_ = true;
  if (!gset_) return;  // caller invariant: S completed, so G-hat is known
  for (int k : *gset_) {
    for (int l : gsub_.at(k)) {
      if (l == k) continue;
      for (const SessionId& child : pair_children(k, l)) {
        if (recon_children_.insert(child).second) {
          host_.mw_child(ctx, child).start_reconstruct(ctx);
        }
      }
    }
  }
  try_finish_recon(ctx);
}

void SvssSession::on_child_output(Context& ctx, const SessionId& child,
                                  std::optional<Fp> value) {
  child_out_.emplace(child, value);
  try_finish_recon(ctx);
}

// ---------------------------------------------------------------------
// R steps 2-3: build the ignore set I, interpolate g_k/h_k per surviving
// process, cross-check, and reassemble the bivariate polynomial.
// ---------------------------------------------------------------------
void SvssSession::try_finish_recon(Context& ctx) {
  if (output_ready_ || !recon_started_ || !share_done_ || !gset_) return;
  // All four outputs for every needed pair must be in.
  for (int k : *gset_) {
    for (int l : gsub_.at(k)) {
      if (l == k) continue;
      for (const SessionId& child : pair_children(k, l)) {
        if (child_out_.count(child) == 0) return;
      }
    }
  }

  // r_kkl: entry f(k, l) dealt by k == child (dealer k, moderator l, v1).
  // r_klk: entry f(l, k) dealt by k == child (dealer k, moderator l, v0).
  auto r_kkl = [&](int k, int l) {
    return child_out_.at(mw_child_id(sid_, k, l, 1));
  };
  auto r_klk = [&](int k, int l) {
    return child_out_.at(mw_child_id(sid_, k, l, 0));
  };

  // Step 2: the ignore set.
  std::set<int> ignored;
  std::map<int, Polynomial> gk;
  std::map<int, Polynomial> hk;
  for (int k : *gset_) {
    bool bad = false;
    std::vector<std::pair<Fp, Fp>> gpts;
    std::vector<std::pair<Fp, Fp>> hpts;
    for (int l : gsub_.at(k)) {
      if (l == k) continue;
      auto v1 = r_kkl(k, l);
      auto v0 = r_klk(k, l);
      if (!v1 || !v0) {
        bad = true;
        break;
      }
      gpts.emplace_back(point(l), *v1);
      hpts.emplace_back(point(l), *v0);
    }
    if (!bad) {
      auto gpoly = Polynomial::interpolate_checked(gpts, t_);
      auto hpoly = Polynomial::interpolate_checked(hpts, t_);
      if (gpoly && hpoly) {
        gk.emplace(k, std::move(*gpoly));
        hk.emplace(k, std::move(*hpoly));
      } else {
        bad = true;
      }
    }
    if (bad) ignored.insert(k);
  }

  // Step 3: cross-consistency and bivariate reassembly.
  std::vector<int> survivors;
  for (int k : *gset_) {
    if (ignored.count(k) == 0) survivors.push_back(k);
  }
  std::optional<Fp> result;
  bool consistent = static_cast<int>(survivors.size()) >= t_ + 1;
  if (consistent) {
    for (int k : survivors) {
      for (int l : survivors) {
        if (hk.at(k).eval(point(l)) != gk.at(l).eval(point(k))) {
          consistent = false;
          break;
        }
      }
      if (!consistent) break;
    }
  }
  if (consistent) {
    std::vector<Fp> xs;
    std::vector<std::vector<std::pair<Fp, Fp>>> rows;
    for (int k : survivors) {
      xs.push_back(point(k));
      std::vector<std::pair<Fp, Fp>> row;
      for (int l : survivors) {
        row.emplace_back(point(l), gk.at(k).eval(point(l)));
      }
      rows.push_back(std::move(row));
    }
    auto fbar = BivariatePolynomial::interpolate_checked(xs, rows, t_);
    if (fbar) result = fbar->secret();
  }

  output_ready_ = true;
  output_ = result;
  ctx.log().record(Event{EventKind::kSvssReconOutput, self_, -1, sid_,
                         output_ ? static_cast<std::int64_t>(output_->value())
                                 : 0,
                         output_.has_value()});
  host_.dmm().note_complete(sid_);
  host_.svss_recon_output(ctx, sid_, output_);
}

}  // namespace svss
