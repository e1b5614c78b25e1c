// SVSS — Shunning Verifiable Secret Sharing (paper Section 4).
//
// The dealer hides its secret as f(0,0) of a random degree-(t,t) bivariate
// polynomial and gives process j the slices g_j(y) = f(point(j), y) and
// h_j(x) = f(x, point(j)).  Every (ordered) pair of processes then commits
// the two grid entries f(point(j), point(l)), f(point(l), point(j)) through
// four MW-SVSS invocations in which they alternate dealer and moderator
// roles, so each entry is vouched for by both of its owners.  Reconstruction
// reassembles the bivariate polynomial from the per-pair reconstructions,
// ignoring processes whose dealings were inconsistent (the I_j set).
//
// Properties (binding / validity with a shunning escape clause) are
// inherited from MW-SVSS: if any reconstruction deviates, some nonfaulty
// process has started shunning some faulty process in this very session.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bivariate.hpp"
#include "common/field.hpp"
#include "mwsvss/mwsvss.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace svss {

// Child-session id for the MW-SVSS invocation with the given dealer,
// moderator and variant nested in SVSS session `parent`.
// variant 0 shares f(point(moderator), point(dealer));
// variant 1 shares f(point(dealer), point(moderator)).
SessionId mw_child_id(const SessionId& parent, int dealer, int moderator,
                      int variant);

class SvssHost {
 public:
  virtual ~SvssHost() = default;
  virtual void rb_broadcast(Context& ctx, const Message& m) = 0;
  virtual void send_direct(Context& ctx, int to, const Message& m) = 0;
  virtual Dmm& dmm() = 0;
  // Get-or-create the local state machine of a nested MW-SVSS session.
  virtual MwSvssSession& mw_child(Context& ctx, const SessionId& child) = 0;
  virtual void svss_share_completed(Context& ctx, const SessionId& sid) = 0;
  virtual void svss_recon_output(Context& ctx, const SessionId& sid,
                                 std::optional<Fp> value) = 0;
};

class SvssSession {
 public:
  SvssSession(SvssHost& host, SessionId sid, int self, int n, int t);

  // Dealer only (S step 1): draw the bivariate polynomial and distribute
  // slices.
  void deal(Context& ctx, Fp secret);
  // Begins R.  The caller guarantees S completed locally.
  void start_reconstruct(Context& ctx);

  // Pre-filtered message entry points.
  void on_direct(Context& ctx, int from, const Message& m);
  void on_broadcast(Context& ctx, int origin, const Message& m);

  // Child MW-SVSS event notifications, routed by the host.
  void on_child_share_complete(Context& ctx, const SessionId& child);
  void on_child_output(Context& ctx, const SessionId& child,
                       std::optional<Fp> value);

  [[nodiscard]] const SessionId& sid() const { return sid_; }
  [[nodiscard]] bool share_complete() const { return share_done_; }
  [[nodiscard]] bool recon_started() const { return recon_started_; }
  [[nodiscard]] bool has_output() const { return output_ready_; }
  [[nodiscard]] std::optional<Fp> output() const { return output_; }
  // This process's row slice g_self(y) = f(point(self), y), once received
  // from the dealer.  Used by the ASMPC layer for linear share arithmetic.
  [[nodiscard]] const std::optional<Polynomial>& g_slice() const {
    return g_;
  }
  [[nodiscard]] const std::optional<Polynomial>& h_slice() const {
    return h_;
  }

 private:
  [[nodiscard]] int dealer() const { return sid_.owner; }
  void start_children(Context& ctx);
  void dealer_track_pairs(Context& ctx, const SessionId& child);
  void try_broadcast_gset(Context& ctx);
  void try_complete_share(Context& ctx);
  void try_finish_recon(Context& ctx);
  // The four MW-SVSS sessions committing the pair {a, b}'s grid entries.
  [[nodiscard]] std::array<SessionId, 4> pair_children(int a, int b) const;

  SvssHost& host_;
  SessionId sid_;
  int self_;
  int n_;
  int t_;

  // --- dealer state ---
  BivariatePolynomial f_;
  bool dealt_ = false;
  bool gset_sent_ = false;
  // pair_done_[{a,b}] counts completed child shares (dealer view).
  std::map<std::pair<int, int>, int> pair_done_;
  std::vector<std::set<int>> g_building_;  // G_j, j included in its own set

  // --- participant state ---
  std::optional<Polynomial> g_;  // g_self
  std::optional<Polynomial> h_;  // h_self
  bool children_started_ = false;
  std::set<SessionId> completed_children_;
  std::optional<std::vector<int>> gset_;          // G-hat
  std::map<int, std::vector<int>> gsub_;          // j -> G-hat_j
  bool share_done_ = false;

  // --- reconstruct state ---
  bool recon_started_ = false;
  std::map<SessionId, std::optional<Fp>> child_out_;
  std::set<SessionId> recon_children_;  // children whose R' we started
  bool output_ready_ = false;
  std::optional<Fp> output_;
};

}  // namespace svss
