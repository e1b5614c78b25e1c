#include "dmm/dmm.hpp"

#include <algorithm>
#include <utility>

namespace svss {

namespace {

// Facts sort by (sender, poly), poly >= kDeal = -1.
int key(int sender, int poly) { return sender * 0x10000 + poly + 1; }

// The first fact not ordered before (sender, poly).
template <typename Facts>
auto lower(Facts& facts, int sender, int poly) {
  return std::ranges::lower_bound(
      facts, key(sender, poly), {},
      [](const auto& f) { return key(f.sender, f.poly); });
}

}  // namespace

Dmm::Fact* Dmm::find(Facts& facts, int sender, int poly) {
  auto it = lower(facts, sender, poly);
  return it != facts.end() && it->sender == sender && it->poly == poly
             ? &*it
             : nullptr;
}

void Dmm::insert(Facts& facts, int sender, int poly, Fp x, std::size_t room) {
  if (facts.empty()) facts.reserve(room);
  auto it = lower(facts, sender, poly);
  if (it != facts.end() && it->sender == sender && it->poly == poly) return;
  facts.insert(it, Fact{static_cast<std::int16_t>(sender),
                        static_cast<std::int16_t>(poly), x});
}

bool Dmm::names(const Facts& facts, int sender) {
  auto it = lower(facts, sender, kDeal);
  return it != facts.end() && it->sender == sender;
}

bool Dmm::filter(Context& ctx, int from, const Message& m, bool via_rb) {
  (void)ctx;
  if (discard_applies(from, m.sid)) return false;  // rule 4: discard
  if (is_blocked(from, m.sid)) {                   // rule 5: delay
    at_sender(delayed_, from).push_back(Delayed{from, via_rb, m});
    return false;
  }
  return true;
}

bool Dmm::discard_applies(int j, const SessionId& s) const {
  auto it = anchor_.find(j);
  return it != anchor_.end() && precedes(it->second, s);
}

bool Dmm::is_blocked(int from, const SessionId& sid) const {
  // Equivalent to: exists an open expectation about `from` in a session s
  // with s ->_i sid.  Only completed sessions can precede anything, and
  // s ->_i sid iff completion_order(s) <= birth(sid) (or sid has not begun
  // locally), so the existential collapses to a minimum comparison.
  if (static_cast<std::size_t>(from) >= blocking_orders_.size()) return false;
  const auto& orders = blocking_orders_[static_cast<std::size_t>(from)];
  if (orders.empty()) return false;
  const SessionState* st = sessions_.find(sid);
  return st == nullptr || orders.front() <= st->birth;
}

bool Dmm::precedes(const SessionId& s, const SessionId& s2) const {
  if (s == s2) return false;
  const SessionState* first = sessions_.find(s);
  if (first == nullptr || first->done == 0) return false;
  // If s2 has not begun locally, every already-completed session will have
  // completed before it begins (kUnborn compares above every order).
  const SessionState* second = sessions_.find(s2);
  return second == nullptr || first->done <= second->birth;
}

void Dmm::note_begin(const SessionId& sid) {
  SessionState& st = sessions_[sid];
  if (st.birth == kUnborn) st.birth = completions_;
}

void Dmm::note_complete(const SessionId& sid) {
  SessionState& st = sessions_[sid];
  if (st.done != 0) return;
  st.done = ++completions_;
  Facts().swap(st.seen);
  // Sessions completing with expectations still open become blocking.
  ProcSet senders;
  for (const Fact& f : st.open) senders.insert(f.sender);
  senders.for_each([&](int sender) {
    auto& orders = at_sender(blocking_orders_, sender);
    orders.insert(std::upper_bound(orders.begin(), orders.end(), st.done),
                  st.done);
  });
}

void Dmm::resolve(Context& ctx, int sender, int poly, const SessionId& sid) {
  SessionState& st = *sessions_.find(sid);
  Fact* f = find(st.open, sender, poly);
  st.open.erase(st.open.begin() + (f - st.open.data()));
  if (st.open.empty()) Facts().swap(st.open);  // most sessions end here
  // If the session had completed while this was the sender's last open
  // expectation there, its order is in the blocking index; retract it.
  if (st.done != 0 && !names(st.open, sender) &&
      static_cast<std::size_t>(sender) < blocking_orders_.size()) {
    auto& orders = blocking_orders_[static_cast<std::size_t>(sender)];
    auto it = std::lower_bound(orders.begin(), orders.end(), st.done);
    if (it != orders.end() && *it == st.done) orders.erase(it);
  }
  flush_delayed(ctx, sender);
}

void Dmm::add_ack_entry(Context& ctx, int sender, int poly,
                        const SessionId& sid, Fp x) {
  SessionState& st = sessions_[sid];
  if (const Fact* seen = find(st.seen, sender, poly)) {
    // The broadcast already happened: resolve or detect immediately.
    if (seen->x != x) add_to_d(ctx, sender, sid);
    return;
  }
  // A dealer registers one ACK per (monitor, confirmer) pair.
  const auto n = static_cast<std::size_t>(ctx.n());
  insert(st.open, sender, poly, x, n * n);
}

void Dmm::add_deal_entry(Context& ctx, int sender, const SessionId& sid,
                         Fp x) {
  SessionState& st = sessions_[sid];
  if (const Fact* seen = find(st.seen, sender, ctx.self())) {
    if (seen->x != x) add_to_d(ctx, sender, sid);
    return;
  }
  insert(st.open, sender, kDeal, x, static_cast<std::size_t>(ctx.n()));
}

void Dmm::clear_deal_entries(Context& ctx, const SessionId& sid) {
  const SessionState* st = sessions_.find(sid);
  if (st == nullptr) return;
  ProcSet dealt;
  for (const Fact& f : st->open) {
    if (f.poly == kDeal) dealt.insert(f.sender);
  }
  // Each resolution may re-enter DMM through a redelivery, so every sender
  // is looked up afresh.
  dealt.for_each([&](int sender) {
    SessionState& cur = *sessions_.find(sid);
    if (find(cur.open, sender, kDeal) != nullptr) {
      resolve(ctx, sender, kDeal, sid);
    }
  });
}

bool Dmm::on_recon_value(Context& ctx, int origin, const SessionId& sid,
                         int poly, Fp x) {
  SessionState& st = sessions_[sid];
  // Record the broadcast so expectations registered later can still be
  // matched (RB delivers each broadcast exactly once).  Skip sessions that
  // already completed locally — no expectations are added past completion.
  if (st.done == 0) {
    // Every process reconstructs every monitored polynomial.
    const auto n = static_cast<std::size_t>(ctx.n());
    insert(st.seen, origin, poly, x, n * n);
  }
  // Rule 2: ACK expectations (this process dealt session `sid`).
  if (const Fact* ack = find(st.open, origin, poly)) {
    if (ack->x != x) {
      add_to_d(ctx, origin, sid);
      return false;
    }
    resolve(ctx, origin, poly, sid);
  }
  // Rule 3: DEAL expectations (this process monitors f_self in `sid`).
  // Looked up afresh: the resolution above may have re-entered DMM.
  if (poly == ctx.self()) {
    SessionState& cur = *sessions_.find(sid);
    if (const Fact* deal = find(cur.open, origin, kDeal)) {
      if (deal->x != x) {
        add_to_d(ctx, origin, sid);
        return false;
      }
      resolve(ctx, origin, kDeal, sid);
    }
  }
  return true;
}

void Dmm::add_to_d(Context& ctx, int j, const SessionId& where) {
  if (!d_.insert(j).second) return;
  anchor_.emplace(j, where);
  ctx.log().record(Event{EventKind::kShun, ctx.self(), j, where, 0, false});
  if (hooks_.on_shun) hooks_.on_shun(ctx, j, where);
  // Buffered messages of now-discardable sessions are dropped by the next
  // flush; messages of concurrent sessions may still be released.
  flush_delayed(ctx, j);
}

void Dmm::flush_delayed(Context& ctx, int sender) {
  if (static_cast<std::size_t>(sender) >= delayed_.size()) return;
  auto& buffered = delayed_[static_cast<std::size_t>(sender)];
  if (buffered.empty()) return;
  // Re-test each buffered message; releasable ones are re-injected through
  // the owner's routing (which may re-enter this Dmm), after the buffer is
  // compacted in place.
  std::vector<Delayed> release;
  std::size_t kept = 0;
  for (Delayed& d : buffered) {
    if (discard_applies(sender, d.msg.sid)) continue;  // rule 4: drop
    if (is_blocked(sender, d.msg.sid)) {
      if (&buffered[kept] != &d) buffered[kept] = std::move(d);
      ++kept;
    } else {
      release.push_back(std::move(d));
    }
  }
  buffered.erase(buffered.begin() + static_cast<std::ptrdiff_t>(kept),
                 buffered.end());
  for (auto& d : release) {
    hooks_.redeliver(ctx, d.from, d.msg, d.via_rb);
  }
}

std::size_t Dmm::pending_expectations(int sender) const {
  std::size_t total = 0;
  for (const auto& [sid, st] : sessions_.entries()) {
    total += static_cast<std::size_t>(
        std::count_if(st.open.begin(), st.open.end(),
                      [sender](const Fact& f) { return f.sender == sender; }));
  }
  return total;
}

std::vector<Dmm::OpenEntry> Dmm::blocking_entries() const {
  std::vector<OpenEntry> out;
  for (const auto& [sid, st] : sessions_.entries()) {
    if (st.done == 0) continue;
    for (const Fact& f : st.open) {
      out.push_back(OpenEntry{f.sender, sid, f.poly != kDeal});
    }
  }
  return out;
}

std::size_t Dmm::buffered_messages() const {
  std::size_t total = 0;
  for (const auto& msgs : delayed_) total += msgs.size();
  return total;
}

}  // namespace svss
