#include "aba/aba.hpp"

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
  return rounds_[r];
}

// CONF sets over {0,1} travel as a 2-bit code.
int AbaSession::encode_set(const std::set<int>& s) {
  int code = 0;
  for (int v : s) code |= 1 << v;
  return code;
}

std::optional<std::set<int>> AbaSession::decode_set(int code) {
  if (code < 1 || code > 3) return std::nullopt;
  std::set<int> s;
  if (code & 1) s.insert(0);
  if (code & 2) s.insert(1);
  return s;
}

AbaSession::RoundSnapshot AbaSession::snapshot(std::uint32_t r) const {
  RoundSnapshot s;
  auto it = rounds_.find(r);
  if (it == rounds_.end()) return s;
  const Round& st = it->second;
  s.est_senders[0] = st.est_from[0].size();
  s.est_senders[1] = st.est_from[1].size();
  s.bin[0] = st.bin[0];
  s.bin[1] = st.bin[1];
  s.aux_sent = st.aux_sent;
  s.aux_senders = st.aux_from.size();
  s.v_frozen = st.v.has_value();
  s.conf_sent = st.conf_sent;
  s.conf_senders = st.conf_from.size();
  s.conf_frozen = st.conf_frozen;
  s.has_coin = st.coin.has_value();
  s.coin_requested = st.coin_requested;
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
  for (int to = 0; to < n_; ++to) {
    host_.send_direct(ctx, to, vote_msg(instance_, r, 0, v));
  }
}

void AbaSession::on_direct(Context& ctx, int from, const Message& m) {
  if (m.type != MsgType::kAbaVote || m.ints.size() != 1) return;
  auto r = static_cast<std::uint32_t>(m.a);
  if (!coin_round_ok(r)) return;
  int v = m.ints[0];
  switch (m.b) {
    case 0:  // EST
      if (v != 0 && v != 1) return;
      round_state(r).est_from[v].insert(from);
      break;
    case 1:  // AUX
      if (v != 0 && v != 1) return;
      round_state(r).aux_from.emplace(from, v);
      break;
    case 3:  // DECIDE
      if (v != 0 && v != 1) return;
      decide_from_[v].insert(from);
      if (static_cast<int>(decide_from_[v].size()) >= t_ + 1) {
        decide(ctx, v);
      }
      break;
    default:
      return;
  }
  if (started_ && r == round_) progress(ctx);
}

void AbaSession::on_broadcast(Context& ctx, int origin, const Message& m) {
  if (m.type != MsgType::kAbaVote || m.b != 2 || m.ints.size() != 1) return;
  auto r = static_cast<std::uint32_t>(m.a);
  if (!coin_round_ok(r)) return;
  auto set = decode_set(m.ints[0]);
  if (!set) return;
  round_state(r).conf_from.emplace(origin, std::move(*set));
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
      if (static_cast<int>(st.est_from[v].size()) >= t_ + 1) {
        send_est(ctx, r, v);
      }
      if (!st.bin[v] &&
          static_cast<int>(st.est_from[v].size()) >= 2 * t_ + 1) {
        st.bin[v] = true;
        if (!st.aux_sent) {
          st.aux_sent = true;
          for (int to = 0; to < n_; ++to) {
            host_.send_direct(ctx, to, vote_msg(instance_, r, 1, v));
          }
        }
      }
    }

    // Stage 2 — AUX: freeze V as the union of n-t justified AUX values.
    if (!st.v && st.aux_sent) {
      std::set<int> vals;
      int count = 0;
      for (const auto& [sender, v] : st.aux_from) {
        if (st.bin[v]) {
          ++count;
          vals.insert(v);
        }
      }
      if (count >= n_ - t_) st.v = std::move(vals);
    }

    // Stage 3 — CONF via RB.
    if (st.v && !st.conf_sent) {
      st.conf_sent = true;
      host_.rb_broadcast(ctx, vote_msg(instance_, r, 2, encode_set(*st.v)));
    }
    if (!st.v) return;
    if (!st.conf_frozen) {
      std::vector<const std::set<int>*> sample;
      for (const auto& [origin, set] : st.conf_from) {
        bool justified = true;
        for (int v : set) {
          if (!st.bin[v]) {
            justified = false;
            break;
          }
        }
        if (justified) sample.push_back(&set);
      }
      if (static_cast<int>(sample.size()) < n_ - t_) return;
      st.conf_frozen = true;
      for (const auto* s : sample) {
        if (s->size() == 1) st.singleton[*s->begin()]++;
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
    for (int to = 0; to < n_; ++to) {
      host_.send_direct(ctx, to, vote_msg(instance_, round_, 3, value));
    }
  }
}

}  // namespace svss
