// A literal transcription of DMM's rules 1-5 (paper Section 3.3), for
// differential tests of src/dmm/.  Ordered containers, no indexes: every
// query scans the expectation arrays as the paper states them, so the
// reference is slow and obviously right.
//
// Contract shared with Dmm: a session is begun before it completes (every
// VSS session calls note_begin on construction); expectations are added
// only before the session completes (they belong to its share phase);
// polynomial indices and process ids lie in [0, n).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/field.hpp"
#include "sim/message.hpp"

namespace svss::test {

class DmmReference {
 public:
  using ShunFn = std::function<void(int suspect, const SessionId& where)>;
  using RedeliverFn = std::function<void(int from, const Message& m)>;

  DmmReference(int self, ShunFn on_shun, RedeliverFn redeliver)
      : self_(self),
        on_shun_(std::move(on_shun)),
        redeliver_(std::move(redeliver)) {}

  // ->_i: s precedes s2 iff s completed locally before s2 began (a
  // session not begun yet begins after every completed one).
  [[nodiscard]] bool precedes(const SessionId& s, const SessionId& s2) const {
    if (s == s2 || done_.count(s) == 0) return false;
    auto born = birth_.find(s2);
    return born == birth_.end() || done_.at(s) <= born->second;
  }

  // Rule 4: j is in D_i and s comes after the session that detected it.
  [[nodiscard]] bool discard_applies(int j, const SessionId& s) const {
    auto it = anchor_.find(j);
    return it != anchor_.end() && precedes(it->second, s);
  }

  // Rule 5: some expectation about `from` is open in a session that
  // completed no later than `sid` began.
  [[nodiscard]] bool is_blocked(int from, const SessionId& sid) const {
    auto before = [&](const SessionId& s) {
      if (done_.count(s) == 0) return false;
      auto born = birth_.find(sid);
      return born == birth_.end() || done_.at(s) <= born->second;
    };
    for (const auto& [key, x] : ack_) {
      if (std::get<0>(key) == from && before(std::get<2>(key))) return true;
    }
    for (const auto& [key, x] : deal_) {
      if (key.first == from && before(key.second)) return true;
    }
    return false;
  }

  bool filter(int from, const Message& m) {
    if (discard_applies(from, m.sid)) return false;
    if (is_blocked(from, m.sid)) {
      delayed_.emplace_back(from, m);
      return false;
    }
    return true;
  }

  void note_begin(const SessionId& sid) { birth_.emplace(sid, completions_); }

  void note_complete(const SessionId& sid) {
    if (done_.count(sid) != 0) return;
    done_[sid] = ++completions_;
    std::erase_if(seen_, [&](const auto& e) {
      return std::get<0>(e.first) == sid;
    });
  }

  void add_ack_entry(int sender, int poly, const SessionId& sid, Fp x) {
    if (auto it = seen_.find({sid, sender, poly}); it != seen_.end()) {
      if (it->second != x) add_to_d(sender, sid);
      return;
    }
    ack_.emplace(std::make_tuple(sender, poly, sid), x);
  }

  void add_deal_entry(int sender, const SessionId& sid, Fp x) {
    if (auto it = seen_.find({sid, sender, self_}); it != seen_.end()) {
      if (it->second != x) add_to_d(sender, sid);
      return;
    }
    deal_.emplace(std::make_pair(sender, sid), x);
  }

  void clear_deal_entries(const SessionId& sid) {
    std::set<int> senders;
    for (const auto& [key, x] : deal_) {
      if (key.second == sid) senders.insert(key.first);
    }
    for (int s : senders) {
      deal_.erase({s, sid});
      flush(s);
    }
  }

  // Rules 2-3.
  bool on_recon_value(int origin, const SessionId& sid, int poly, Fp x) {
    if (done_.count(sid) == 0) seen_.emplace(std::make_tuple(sid, origin, poly), x);
    if (auto it = ack_.find({origin, poly, sid}); it != ack_.end()) {
      if (it->second != x) {
        add_to_d(origin, sid);
        return false;
      }
      ack_.erase(it);
      flush(origin);
    }
    if (poly == self_) {
      if (auto it = deal_.find({origin, sid}); it != deal_.end()) {
        if (it->second != x) {
          add_to_d(origin, sid);
          return false;
        }
        deal_.erase(it);
        flush(origin);
      }
    }
    return true;
  }

  [[nodiscard]] const std::set<int>& detected() const { return d_; }
  [[nodiscard]] std::size_t pending_expectations(int sender) const {
    std::size_t total = 0;
    for (const auto& [key, x] : ack_) total += std::get<0>(key) == sender;
    for (const auto& [key, x] : deal_) total += key.first == sender;
    return total;
  }
  [[nodiscard]] std::size_t buffered_messages() const {
    return delayed_.size();
  }
  // (sender, sid, is_ack) of every open expectation of a completed
  // session, sorted.
  [[nodiscard]] std::vector<std::tuple<int, SessionId, bool>> blocking_entries()
      const {
    std::vector<std::tuple<int, SessionId, bool>> out;
    for (const auto& [key, x] : ack_) {
      if (done_.count(std::get<2>(key)) != 0) {
        out.emplace_back(std::get<0>(key), std::get<2>(key), true);
      }
    }
    for (const auto& [key, x] : deal_) {
      if (done_.count(key.second) != 0) {
        out.emplace_back(key.first, key.second, false);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  // Rule 1: j enters D_i at the session whose expectation it violated.
  void add_to_d(int j, const SessionId& where) {
    if (!d_.insert(j).second) return;
    anchor_.emplace(j, where);
    on_shun_(j, where);
    flush(j);
  }

  // Re-tests j's delayed messages in arrival order: discards are dropped,
  // unblocked ones are released after the rest stay buffered.
  void flush(int j) {
    std::vector<std::pair<int, Message>> keep;
    std::vector<Message> release;
    for (auto& [from, m] : delayed_) {
      if (from != j) {
        keep.emplace_back(from, m);
      } else if (!discard_applies(j, m.sid)) {
        if (is_blocked(j, m.sid)) {
          keep.emplace_back(from, m);
        } else {
          release.push_back(m);
        }
      }
    }
    delayed_ = std::move(keep);
    for (const Message& m : release) redeliver_(j, m);
  }

  int self_;
  ShunFn on_shun_;
  RedeliverFn redeliver_;
  std::set<int> d_;
  std::map<int, SessionId> anchor_;
  std::map<std::tuple<int, int, SessionId>, Fp> ack_;   // (j, l, c) -> x
  std::map<std::pair<int, SessionId>, Fp> deal_;        // (j, c) -> x
  std::map<std::tuple<SessionId, int, int>, Fp> seen_;  // recon broadcasts
  std::map<SessionId, std::uint64_t> birth_;
  std::map<SessionId, std::uint64_t> done_;
  std::uint64_t completions_ = 0;
  std::vector<std::pair<int, Message>> delayed_;
};

}  // namespace svss::test
