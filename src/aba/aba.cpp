#include "aba/aba.hpp"

#include <algorithm>

namespace svss {

SessionId aba_sid(std::uint32_t instance) {
  return SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, instance};
}

namespace {

Message vote_msg(std::uint32_t instance, std::uint32_t round, int subtype,
                 int payload) {
  Message m;
  m.sid = aba_sid(instance);
  m.type = MsgType::kAbaVote;
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints.push_back(payload);
  return m;
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

AbaSession::AbaSession(AbaHost& host, int self, int n, int t, CoinMode mode,
                       std::uint64_t common_seed, std::uint32_t instance)
    : host_(host), self_(self), n_(n), t_(t), mode_(mode),
      common_seed_(common_seed), instance_(instance) {}

AbaSession::Round& AbaSession::round_state(std::uint32_t r) {
  // Votes mostly name the newest round: check it before searching.
  if (!round_index_.empty() && round_index_.back().first == r) {
    return rounds_[round_index_.back().second];
  }
  // Rounds are unique, so (r, 0) sorts at or before r's entry.
  auto it = std::lower_bound(round_index_.begin(), round_index_.end(),
                             std::pair<std::uint32_t, std::uint32_t>(r, 0));
  if (it != round_index_.end() && it->first == r) return rounds_[it->second];
  round_index_.emplace(it, r, static_cast<std::uint32_t>(rounds_.size()));
  return rounds_.emplace_back();
}

const AbaSession::Round* AbaSession::find_round(std::uint32_t r) const {
  auto it = std::lower_bound(round_index_.begin(), round_index_.end(),
                             std::pair<std::uint32_t, std::uint32_t>(r, 0));
  if (it == round_index_.end() || it->first != r) return nullptr;
  return &rounds_[it->second];
}

AbaSession::RoundSnapshot AbaSession::snapshot(std::uint32_t r) const {
  RoundSnapshot s;
  const Round* st = find_round(r);
  if (st == nullptr) return s;
  s.est_senders[0] = static_cast<std::size_t>(st->est_from[0].count());
  s.est_senders[1] = static_cast<std::size_t>(st->est_from[1].count());
  s.bin[0] = (st->bin & 1) != 0;
  s.bin[1] = (st->bin & 2) != 0;
  s.aux_sent = st->aux_sent;
  s.aux_senders = static_cast<std::size_t>(st->aux_from[0].count() +
                                           st->aux_from[1].count());
  s.v_frozen = st->v != 0;
  s.conf_sent = st->conf_sent;
  for (const ProcSet& origins : st->conf_from) {
    s.conf_senders += static_cast<std::size_t>(origins.count());
  }
  s.conf_frozen = st->conf_frozen;
  s.has_coin = st->coin.has_value();
  s.coin_requested = st->coin_requested;
  return s;
}

void AbaSession::start(Context& ctx, int input) {
  if (started_) return;
  started_ = true;
  est_ = input != 0 ? 1 : 0;
  enter_round(ctx, 1);
}

void AbaSession::enter_round(Context& ctx, std::uint32_t r) {
  round_ = r;
  Round& st = round_state(r);
  send_est(ctx, r, est_);
  switch (mode_) {
    case CoinMode::kSvss:
      // Dealt on demand: progress() requests the coin only if the tier rule
      // falls through to it.
      host_.aba_entered_round(ctx, instance_, r);
      break;
    case CoinMode::kLocal:
      st.coin = ctx.rng().next_bool() ? 1 : 0;
      break;
    case CoinMode::kIdealCommon:
      st.coin = static_cast<int>(
          mix64(common_seed_ ^ (instance_ * kCoinRoundsPerInstance + r)) & 1);
      break;
  }
  progress(ctx);
}

void AbaSession::send_est(Context& ctx, std::uint32_t r, int v) {
  Round& st = round_state(r);
  if (st.est_sent[v]) return;
  st.est_sent[v] = true;
  send_all(ctx, r, 0, v);
}

void AbaSession::send_all(Context& ctx, std::uint32_t r, int subtype,
                          int payload) {
  const Message m = vote_msg(instance_, r, subtype, payload);
  for (int to = 0; to < n_; ++to) host_.send_direct(ctx, to, m);
}

void AbaSession::on_direct(Context& ctx, int from, const Message& m) {
  if (m.type != MsgType::kAbaVote || m.ints.size() != 1) return;
  if (from < 0 || from >= n_) return;
  auto r = static_cast<std::uint32_t>(m.a);
  if (!coin_round_ok(r)) return;
  int v = m.ints[0];
  if (v != 0 && v != 1) return;
  switch (m.b) {
    case 0:  // EST
      round_state(r).est_from[v].insert(from);
      break;
    case 1: {  // AUX: a sender's first one counts
      Round& st = round_state(r);
      if (!st.aux_from[1 - v].contains(from)) st.aux_from[v].insert(from);
      break;
    }
    case 3:  // DECIDE
      decide_from_[v].insert(from);
      if (decide_from_[v].count() >= t_ + 1) decide(ctx, v);
      break;
    default:
      return;
  }
  if (started_ && r == round_) progress(ctx);
}

void AbaSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  if (m.type != MsgType::kAbaVote || m.b != 2 || m.ints.size() != 1) return;
  if (origin < 0 || origin >= n_) return;
  auto r = static_cast<std::uint32_t>(m.a);
  if (!coin_round_ok(r)) return;
  const int code = m.ints[0];
  if (code < 1 || code > 3) return;
  // An origin's first CONF counts.
  Round& st = round_state(r);
  bool seen = false;
  for (const ProcSet& origins : st.conf_from) seen |= origins.contains(origin);
  if (!seen) st.conf_from[code - 1].insert(origin);
  if (started_ && r == round_) progress(ctx);
}

void AbaSession::on_coin(Context& ctx, std::uint32_t round, int bit) {
  if (mode_ != CoinMode::kSvss) return;
  if (!coin_round_ok(round)) return;
  round_state(round).coin = bit != 0 ? 1 : 0;
  if (started_ && round == round_) progress(ctx);
}

void AbaSession::progress(Context& ctx) {
  // Rounds can advance several times per delivery (buffered future-round
  // messages may already satisfy the next round's thresholds).
  for (;;) {
    std::uint32_t r = round_;
    Round& st = round_state(r);
    if (st.advanced) return;

    // Stage 1 — BV-broadcast: relay at t+1, accept into bin at 2t+1.
    for (int v = 0; v < 2; ++v) {
      if (st.est_from[v].count() >= t_ + 1) send_est(ctx, r, v);
      if ((st.bin >> v & 1) == 0 && st.est_from[v].count() >= 2 * t_ + 1) {
        st.bin = static_cast<std::uint8_t>(st.bin | 1 << v);
        if (!st.aux_sent) {
          st.aux_sent = true;
          send_all(ctx, r, 1, v);
        }
      }
    }

    // Stage 2 — AUX: freeze V as the union of n-t justified AUX values.
    if (st.v == 0 && st.aux_sent) {
      int count = 0;
      std::uint8_t vals = 0;
      for (int v = 0; v < 2; ++v) {
        const int senders = st.aux_from[v].count();
        if ((st.bin >> v & 1) != 0 && senders > 0) {
          count += senders;
          vals = static_cast<std::uint8_t>(vals | 1 << v);
        }
      }
      if (count >= n_ - t_) st.v = vals;
    }

    // Stage 3 — CONF via RB.
    if (st.v != 0 && !st.conf_sent) {
      st.conf_sent = true;
      host_.rb_broadcast(ctx, vote_msg(instance_, r, 2, st.v));
    }
    if (st.v == 0) return;
    if (!st.conf_frozen) {
      // A CONF code is justified iff its values all lie in bin.
      int sample = 0;
      for (int code = 1; code <= 3; ++code) {
        if ((code & ~st.bin) == 0) sample += st.conf_from[code - 1].count();
      }
      if (sample < n_ - t_) return;
      st.conf_frozen = true;
      // Code 1 << v is {v}, tallied at index v.
      for (int v = 0; v < 2; ++v) {
        if ((st.bin >> v & 1) != 0) st.singleton[v] = st.conf_from[v].count();
      }
    }

    // Tier rule on the frozen sample.  Re-entered when the coin arrives
    // later than the CONF quota.
    bool have_est = false;
    for (int v = 0; v < 2; ++v) {
      if (st.singleton[v] >= 2 * t_ + 1) {
        decide(ctx, v);
        est_ = v;
        have_est = true;
      } else if (st.singleton[v] >= t_ + 1) {
        est_ = v;
        have_est = true;
      }
    }
    if (!have_est) {
      if (!st.coin) {
        // Only the SVSS coin can be missing here; ask for it once and wait.
        if (!st.coin_requested) {
          st.coin_requested = true;
          host_.start_coin(ctx, instance_, r);
        }
        return;
      }
      est_ = *st.coin;
    }
    st.advanced = true;
    enter_round(ctx, r + 1);
    return;  // enter_round already re-ran progress for the new round
  }
}

void AbaSession::decide(Context& ctx, int value) {
  if (decision_) return;
  decision_ = value;
  decision_round_ = round_;
  ctx.log().record(Event{EventKind::kAbaDecide, self_,
                         static_cast<int>(round_), aba_sid(instance_), value,
                         true});
  host_.aba_decided(ctx, value, round_, instance_);
  if (!decide_sent_) {
    decide_sent_ = true;
    send_all(ctx, round_, 3, value);
  }
}

}  // namespace svss
