// Ben-Or's 1983 agreement protocol — the classic local-coin baseline.
//
// This is the comparison point the paper's introduction starts from:
// almost-surely terminating, but only resilient for n > 5t, and with an
// expected number of rounds exponential in n (the honest local coins have
// to line up).  The Bracha-84 baseline (optimal resilience, still
// exponential) is AbaSession with CoinMode::kLocal; see aba.hpp.
//
// Round structure (plain point-to-point sends, no broadcast primitive):
//   Phase R: send (R, r, est); collect n - t.  If more than (n + t)/2 carry
//            the same v, propose v, else propose "?".
//   Phase P: send (P, r, proposal); collect n - t.  If >= 2t+1 carry the
//            same v != ?, decide v; if >= t+1, est := v; else est := a
//            private random bit.
// Deciders announce DECIDE(v); t+1 matching announcements let others adopt.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

class BenOrSession {
 public:
  // `send` delivers a direct message (the only primitive Ben-Or needs).
  using SendFn = std::function<void(Context&, int to, const Message&)>;
  BenOrSession(SendFn send, int self, int n, int t);

  void start(Context& ctx, int input);
  void on_direct(Context& ctx, int from, const Message& m);

  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] int decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t decision_round() const {
    return decision_round_;
  }
  [[nodiscard]] std::uint32_t current_round() const { return round_; }

 private:
  static constexpr int kQuestion = 2;  // the "?" proposal

  struct Round {
    std::map<int, int> r_from;  // sender -> first R value
    std::map<int, int> p_from;  // sender -> first P value
    bool r_sent = false;
    bool p_sent = false;
    bool advanced = false;
  };

  void progress(Context& ctx);
  void enter_round(Context& ctx, std::uint32_t r);
  void decide(Context& ctx, int value);

  SendFn send_;
  int self_;
  int n_;
  int t_;
  bool started_ = false;
  int est_ = 0;
  std::uint32_t round_ = 0;
  std::map<std::uint32_t, Round> rounds_;
  std::optional<int> decision_;
  std::uint32_t decision_round_ = 0;
  bool decide_sent_ = false;
  std::map<int, std::set<int>> decide_from_;
};

}  // namespace svss
