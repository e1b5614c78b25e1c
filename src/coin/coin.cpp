#include "coin/coin.hpp"

#include <algorithm>

namespace svss {

SessionId coin_svss_id(std::uint32_t round, int dealer, int attachee,
                       std::uint32_t instance) {
  SessionId sid;
  sid.path = SessionPath::kSvssCoin;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.counter = round * kMaxN + static_cast<std::uint32_t>(attachee);
  sid.instance = instance;
  return sid;
}

SessionId coin_sid(std::uint32_t round, std::uint32_t instance) {
  return SessionId{SessionPath::kCoin, 0, -1, -1, -1, round, instance};
}

CoinSession::CoinSession(CoinHost& host, std::uint32_t round, int self, int n,
                         int t, std::uint32_t instance)
    : host_(host), round_(round), self_(self), n_(n), t_(t),
      instance_(instance), share_done_(static_cast<std::size_t>(n)) {}

void CoinSession::start(Context& ctx) {
  if (started_) return;
  started_ = true;
  // Attachee order: the batching layer packs each recipient's n dealings
  // in capture order (src/batch/coin_codec.cpp).
  for (int j = 0; j < n_; ++j) {
    // Secret attached to j: uniform in {0, .., n-1}.  Sums of attached
    // secrets stay far below the field modulus, so the mod-n coin value of
    // an honest party is uniform as long as one contributing dealer is
    // honest.
    Fp secret(static_cast<std::int64_t>(
        ctx.rng().next_below(static_cast<std::uint64_t>(n_))));
    host_.svss_child(ctx, coin_svss_id(round_, self_, j, instance_)).deal(ctx, secret);
  }
}

bool CoinSession::dealer_done(int d) const {
  return static_cast<int>(share_done_[static_cast<std::size_t>(d)].size()) ==
         n_;
}

void CoinSession::on_child_share_complete(Context& ctx,
                                          const SessionId& sid) {
  int dealer = sid.owner;
  int attachee = static_cast<int>(sid.counter % kMaxN);
  share_done_[static_cast<std::size_t>(dealer)].insert(attachee);
  progress(ctx);
}

void CoinSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  switch (m.type) {
    case MsgType::kCoinGset: {
      if (gsets_.count(origin) != 0) return;
      if (static_cast<int>(m.ints.size()) < n_ - t_) return;
      std::set<int> seen;
      for (int d : m.ints) {
        if (d < 0 || d >= n_ || !seen.insert(d).second) return;
      }
      gsets_.emplace(origin, m.ints);
      break;
    }
    case MsgType::kCoinStartRecon:
      recon_enabled_ = true;
      break;
    default:
      return;
  }
  progress(ctx);
}

void CoinSession::progress(Context& ctx) {
  // Publish G_self once n-t dealers finished all n of their shares.
  if (g_.empty()) {
    std::vector<int> done;
    for (int d = 0; d < n_; ++d) {
      if (dealer_done(d)) done.push_back(d);
    }
    if (static_cast<int>(done.size()) >= n_ - t_) {
      done.resize(static_cast<std::size_t>(n_ - t_));
      g_ = done;
      Message m;
      m.sid = coin_sid(round_, instance_);
      m.type = MsgType::kCoinGset;
      m.ints = g_;
      host_.rb_broadcast(ctx, m);
    }
  }
  recheck_support(ctx);
  if (recon_enabled_) start_reconstructions(ctx);
  try_output(ctx);
}

void CoinSession::recheck_support(Context& ctx) {
  for (const auto& [j, gj] : gsets_) {
    if (support_.count(j) != 0) continue;
    bool all_done = true;
    for (int d : gj) {
      if (!dealer_done(d)) {
        all_done = false;
        break;
      }
    }
    if (all_done) support_.insert(j);
  }
  if (frozen_support_.empty() &&
      static_cast<int>(support_.size()) >= n_ - t_) {
    frozen_support_.assign(support_.begin(), support_.end());
    frozen_support_.resize(static_cast<std::size_t>(n_ - t_));
    if (!recon_announced_) {
      recon_announced_ = true;
      recon_enabled_ = true;
      Message m;
      m.sid = coin_sid(round_, instance_);
      m.type = MsgType::kCoinStartRecon;
      host_.rb_broadcast(ctx, m);
    }
  }
}

// Reconstruct every attached secret of every process whose G set we know;
// any of them may be in some nonfaulty process's frozen support.
void CoinSession::start_reconstructions(Context& ctx) {
  for (const auto& [j, gj] : gsets_) {
    for (int d : gj) {
      SessionId sid = coin_svss_id(round_, d, j, instance_);
      if (recon_started_.count(sid) != 0) continue;
      // R may only start after S completed locally.
      if (share_done_[static_cast<std::size_t>(d)].count(j) == 0) continue;
      recon_started_.insert(sid);
      host_.svss_child(ctx, sid).start_reconstruct(ctx);
    }
  }
}

void CoinSession::on_child_output(Context& ctx, const SessionId& sid,
                                  std::optional<Fp> value) {
  values_.emplace(sid, value);
  try_output(ctx);
}

void CoinSession::try_output(Context& ctx) {
  if (output_ || frozen_support_.empty()) return;
  bool zero_seen = false;
  for (int j : frozen_support_) {
    auto gj = gsets_.find(j);
    if (gj == gsets_.end()) return;  // cannot happen: support implies G_j
    std::uint64_t sum = 0;
    for (int d : gj->second) {
      auto it = values_.find(coin_svss_id(round_, d, j, instance_));
      if (it == values_.end()) return;  // still reconstructing
      // Bottom implies a broken (shunning) session; count it as 0.
      std::uint64_t v = it->second ? it->second->value() : 0;
      sum += v % static_cast<std::uint64_t>(n_);
    }
    if (sum % static_cast<std::uint64_t>(n_) == 0) zero_seen = true;
  }
  output_ = zero_seen ? 0 : 1;
  ctx.log().record(Event{EventKind::kCoinOutput, self_, -1,
                         coin_sid(round_, instance_), *output_, true});
  host_.coin_output(ctx, instance_, round_, *output_);
}

}  // namespace svss
