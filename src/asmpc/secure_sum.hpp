// ASMPC secure sum — the "family of functionalities" extension sketched in
// the paper's conclusion (Section 6): asynchronous secure multiparty
// computation with optimal resilience and almost-sure termination, here
// instantiated for the summation functionality (private inputs, public
// sum), the canonical linear ASMPC building block (voting tallies,
// aggregate statistics, sealed-bid totals).
//
// Protocol:
//  1. Input sharing.  Every party deals its private input through a full
//     SVSS session — inputs stay hidden (SVSS Hiding) and are bound
//     (SVSS Binding-or-shun).
//  2. Input selection.  The parties run ACS over "my share of dealer d
//     completed" to agree on a common core Q of >= n - t input providers
//     (asynchrony makes waiting for all n impossible).
//  3. Output reconstruction.  Party j's slices of the included bivariate
//     polynomials sum to a slice of f_sum = sum_{d in Q} f_d; its
//     monitored point g_sum_j(0) = f_sum(point(j), 0) is one Reed-Solomon
//     share of the degree-t polynomial F(x) = f_sum(x, 0) with
//     F(0) = sum of inputs.  Every party RB-broadcasts its point and runs
//     online error correction: a polynomial agreeing with >= 2t+1
//     broadcast points agrees with >= t+1 honest ones and is F itself, so
//     Byzantine points are corrected, not just detected.
//
// Privacy: only the n summed points are ever opened; individual f_d
// slices are never broadcast, so any t-subset's view remains independent
// of the individual inputs (they see t points of each degree-t slice).
//
// Caveat (documented in DESIGN.md): a *Byzantine dealer* in Q may have
// withheld slices from up to t honest parties, which then cannot compute
// their summed point and abstain; with fewer than 2t+1 broadcast points
// the reveal can stall (output stays unset) — but it never produces a
// wrong sum and never leaks inputs.  Full robustness needs the share
// recovery machinery of later AVSS constructions, outside this paper's
// scope.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "acs/acs.hpp"
#include "common/reed_solomon.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "svss/svss.hpp"

namespace svss {

// Counter namespace of input-sharing sessions, disjoint from user-driven
// SVSS counters.
inline constexpr std::uint32_t kSumCounterBase = 0x0A500000;

// The SVSS session in which party `dealer` shares its summand.
SessionId sum_input_sid(int dealer);

class SecureSumHost {
 public:
  virtual ~SecureSumHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  // Get-or-create the local state of an input-sharing SVSS session.
  virtual SvssSession& sum_svss(Context& ctx, const SessionId& sid) = 0;
  // Joins the input-selection ACS with this process's readiness vector.
  virtual void sum_start_acs(Context& ctx, Bytes proposal) = 0;
  // Vouches for dealer d's inclusion in the common core.
  virtual void sum_vouch(Context& ctx, int dealer) = 0;
};

class SecureSumSession {
 public:
  SecureSumSession(SecureSumHost& host, int self, int n, int t);

  // Contributes `input` and joins the protocol.
  void start(Context& ctx, Fp input);

  // Host notifications.
  void on_input_share_complete(Context& ctx, const SessionId& sid);
  void on_acs_output(Context& ctx,
                     const std::vector<std::pair<int, Bytes>>& subset);
  void on_broadcast(Context& ctx, int origin, const Message& m);

  [[nodiscard]] bool has_output() const { return output_.has_value(); }
  [[nodiscard]] Fp output() const { return *output_; }
  // The agreed set of included input providers (valid once ACS finished).
  [[nodiscard]] const std::optional<std::set<int>>& core() const {
    return core_;
  }

 private:
  void maybe_broadcast_point(Context& ctx);

  SecureSumHost& host_;
  int self_;
  int n_;
  int t_;
  bool started_ = false;
  std::set<int> inputs_ready_;  // dealers whose share completed locally
  bool acs_joined_ = false;
  std::optional<std::set<int>> core_;
  bool point_sent_ = false;
  OnlineDecoder decoder_;
  std::optional<Fp> output_;
};

}  // namespace svss
