// Step-level unit tests for the SVSS state machine (paper Section 4),
// driven through a mock host: child-session bookkeeping, G-set validation,
// completion conditions, and the reconstruct-phase ignore set I_j with its
// bottom/shun outcomes.
#include <gtest/gtest.h>

#include "common/bivariate.hpp"
#include "sim/scheduler.hpp"
#include "svss/svss.hpp"

namespace svss {
namespace {

class Noop : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet&) override {}
};

class MockSvssHost : public SvssHost {
 public:
  MockSvssHost(int n, int t) : n_(n), t_(t) {}

  void rb_broadcast(Context&, const Message& m) override {
    broadcasts.push_back(m);
  }
  void send_direct(Context&, int to, const Message& m) override {
    directs.emplace_back(to, m);
  }
  Dmm& dmm() override { return dmm_; }
  MwSvssSession& mw_child(Context&, const SessionId& child) override {
    auto it = children.find(child);
    if (it == children.end()) {
      it = children
               .emplace(child, std::make_unique<MwSvssSession>(
                                   mw_host_, child, /*self=*/self, n_, t_))
               .first;
    }
    return *it->second;
  }
  void svss_share_completed(Context&, const SessionId&) override {
    share_completed = true;
  }
  void svss_recon_output(Context&, const SessionId&,
                         std::optional<Fp> value) override {
    output = value;
    output_seen = true;
  }

  int self = 0;
  int n_;
  int t_;
  std::vector<Message> broadcasts;
  std::vector<std::pair<int, Message>> directs;
  std::map<SessionId, std::unique_ptr<MwSvssSession>> children;
  bool share_completed = false;
  bool output_seen = false;
  std::optional<Fp> output;

 private:
  // Children run against a throwaway MW host (their traffic is not under
  // test here).
  class NullMwHost : public MwHost {
   public:
    void rb_broadcast(Context&, const Message&) override {}
    void send_direct(Context&, int, const Message&) override {}
    Dmm& dmm() override { return dmm_; }
    void mw_share_completed(Context&, const SessionId&) override {}
    void mw_recon_output(Context&, const SessionId&,
                         std::optional<Fp>) override {}

   private:
    Dmm dmm_{Dmm::Hooks{nullptr, [](Context&, int, const Message&, bool) {}}};
  };

  NullMwHost mw_host_;
  Dmm dmm_{Dmm::Hooks{nullptr, [](Context&, int, const Message&, bool) {}}};
};

struct SvssUnit : public ::testing::Test {
  static constexpr int kN = 4;
  static constexpr int kT = 1;

  SvssUnit()
      : engine(kN, kT, 5, std::make_unique<FifoScheduler>()),
        host(kN, kT) {
    for (int i = 0; i < kN; ++i) engine.set_process(i, std::make_unique<Noop>());
  }

  SessionId sid() const { return svss_top_id_(); }
  static SessionId svss_top_id_() {
    SessionId s;
    s.path = SessionPath::kSvssTop;
    s.owner = 0;
    s.counter = 1;
    return s;
  }

  // Crafts the dealer's slice message for process `self` from `f`.
  Message slices_msg(const BivariatePolynomial& f, int self) const {
    Message m;
    m.sid = sid();
    m.type = MsgType::kSvssDealerShares;
    FieldVec gp = f.row(self + 1).evaluate_range(kT + 1);
    FieldVec hp = f.column(self + 1).evaluate_range(kT + 1);
    m.vals.insert(m.vals.end(), gp.begin(), gp.end());
    m.vals.insert(m.vals.end(), hp.begin(), hp.end());
    return m;
  }

  // The dealer's G broadcast for the all-inclusive case.
  Message gset_msg(const std::vector<int>& g) const {
    Message m;
    m.sid = sid();
    m.type = MsgType::kSvssGset;
    m.ints = g;
    Writer w;
    for (int j : g) {
      w.i32(j);
      w.int_vec(g);  // every G_j = G (j in its own set)
    }
    m.blob = std::move(w).take();
    return m;
  }

  // Marks all 4 MW children of every pair in g x g as complete.
  void complete_all_children(Context& ctx, SvssSession& s,
                             const std::vector<int>& g) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        for (int v : {0, 1}) {
          s.on_child_share_complete(ctx, mw_child_id(sid(), g[i], g[j], v));
          s.on_child_share_complete(ctx, mw_child_id(sid(), g[j], g[i], v));
        }
      }
    }
  }

  // Feeds consistent child outputs derived from `f` for pairs in g x g.
  void feed_outputs(Context& ctx, SvssSession& s, const BivariatePolynomial& f,
                    const std::vector<int>& g) {
    for (int a : g) {
      for (int b : g) {
        if (a == b) continue;
        // Child (dealer a, moderator b, v0) commits f(b, a); v1 f(a, b).
        s.on_child_output(ctx, mw_child_id(sid(), a, b, 0),
                          f.eval(point(b), point(a)));
        s.on_child_output(ctx, mw_child_id(sid(), a, b, 1),
                          f.eval(point(a), point(b)));
      }
    }
  }

  Engine engine;
  MockSvssHost host;
};

TEST_F(SvssUnit, DealerSendsSlicesToEveryone) {
  Context ctx = engine.host(0).ctx();
  SvssSession dealer(host, sid(), /*self=*/0, kN, kT);
  dealer.deal(ctx, Fp(777));
  auto slices = host.directs;
  ASSERT_EQ(slices.size(), static_cast<std::size_t>(kN));
  for (int j = 0; j < kN; ++j) {
    EXPECT_EQ(slices[static_cast<std::size_t>(j)].first, j);
    EXPECT_EQ(slices[static_cast<std::size_t>(j)].second.vals.size(),
              static_cast<std::size_t>(2 * (kT + 1)));
  }
}

TEST_F(SvssUnit, SlicesSpawnFourChildRolesPerCounterpart) {
  Context ctx = engine.host(2).ctx();
  host.self = 2;
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  Rng rng(1);
  auto f = BivariatePolynomial::random_with_secret(Fp(9), kT, rng);
  s.on_direct(ctx, 0, slices_msg(f, 2));
  // For each of the 3 counterparts: 2 dealings by self were started (the
  // mock records their child sessions), 2 moderator roles got inputs.
  int dealt = 0;
  for (const auto& [child_sid, child] : host.children) {
    if (child_sid.owner == 2) ++dealt;
  }
  EXPECT_EQ(dealt, 6);  // 2 dealings x 3 counterparts
  EXPECT_EQ(host.children.size(), 12u);  // + 2 moderated x 3
}

TEST_F(SvssUnit, MalformedGsetsRejected) {
  Context ctx = engine.host(2).ctx();
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  // Not from the dealer.
  {
    Message m = gset_msg({0, 1, 2});
    s.on_broadcast(ctx, 1, m);
  }
  // Undersized G.
  {
    Message m = gset_msg({0, 1});
    s.on_broadcast(ctx, 0, m);
  }
  // G_j missing j itself.
  {
    Message m;
    m.sid = sid();
    m.type = MsgType::kSvssGset;
    m.ints = {0, 1, 2};
    Writer w;
    for (int j : {0, 1, 2}) {
      w.i32(j);
      w.int_vec({1, 2, 3});  // 0's set lacks 0
    }
    m.blob = std::move(w).take();
    s.on_broadcast(ctx, 0, m);
  }
  // Trailing bytes in the blob.
  {
    Message m = gset_msg({0, 1, 2});
    m.blob.push_back(0);
    s.on_broadcast(ctx, 0, m);
  }
  complete_all_children(ctx, s, {0, 1, 2});
  EXPECT_FALSE(s.share_complete());
}

TEST_F(SvssUnit, ShareCompletesWithGsetAndChildren) {
  Context ctx = engine.host(2).ctx();
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  std::vector<int> g{0, 1, 2};
  s.on_broadcast(ctx, 0, gset_msg(g));
  EXPECT_FALSE(s.share_complete());
  complete_all_children(ctx, s, g);
  EXPECT_TRUE(s.share_complete());
  EXPECT_TRUE(host.share_completed);
}

TEST_F(SvssUnit, ReconstructRecoversSecretFromChildOutputs) {
  Context ctx = engine.host(2).ctx();
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  Rng rng(2);
  auto f = BivariatePolynomial::random_with_secret(Fp(424242), kT, rng);
  std::vector<int> g{0, 1, 2};
  s.on_broadcast(ctx, 0, gset_msg(g));
  complete_all_children(ctx, s, g);
  s.start_reconstruct(ctx);
  feed_outputs(ctx, s, f, g);
  ASSERT_TRUE(s.has_output());
  ASSERT_TRUE(s.output().has_value());
  EXPECT_EQ(*s.output(), Fp(424242));
}

// A process whose dealings reconstruct to bottom lands in I_j; with t+1
// surviving processes the secret still comes out.
TEST_F(SvssUnit, BottomDealingsAreIgnoredNotFatal) {
  Context ctx = engine.host(2).ctx();
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  Rng rng(3);
  auto f = BivariatePolynomial::random_with_secret(Fp(31337), kT, rng);
  std::vector<int> g{0, 1, 2};
  s.on_broadcast(ctx, 0, gset_msg(g));
  complete_all_children(ctx, s, g);
  s.start_reconstruct(ctx);
  for (int a : g) {
    for (int b : g) {
      if (a == b) continue;
      // All of process 1's dealings reconstruct bottom.
      if (a == 1) {
        s.on_child_output(ctx, mw_child_id(sid(), a, b, 0), std::nullopt);
        s.on_child_output(ctx, mw_child_id(sid(), a, b, 1), std::nullopt);
      } else {
        s.on_child_output(ctx, mw_child_id(sid(), a, b, 0),
                          f.eval(point(b), point(a)));
        s.on_child_output(ctx, mw_child_id(sid(), a, b, 1),
                          f.eval(point(a), point(b)));
      }
    }
  }
  ASSERT_TRUE(s.has_output());
  ASSERT_TRUE(s.output().has_value());
  EXPECT_EQ(*s.output(), Fp(31337));
}

// Cross-inconsistent (non-bottom) dealings that evade the per-process
// degree check force the bottom output (paper R step 3).
TEST_F(SvssUnit, CrossInconsistencyForcesBottom) {
  Context ctx = engine.host(2).ctx();
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  Rng rng(4);
  auto f = BivariatePolynomial::random_with_secret(Fp(5), kT, rng);
  // Process 1 dealt a *different* consistent polynomial f2: its rows pass
  // the degree check but clash with everyone else's columns.
  auto f2 = BivariatePolynomial::random_with_secret(Fp(6), kT, rng);
  std::vector<int> g{0, 1, 2};
  s.on_broadcast(ctx, 0, gset_msg(g));
  complete_all_children(ctx, s, g);
  s.start_reconstruct(ctx);
  for (int a : g) {
    for (int b : g) {
      if (a == b) continue;
      const auto& fa = a == 1 ? f2 : f;
      s.on_child_output(ctx, mw_child_id(sid(), a, b, 0),
                        fa.eval(point(b), point(a)));
      s.on_child_output(ctx, mw_child_id(sid(), a, b, 1),
                        fa.eval(point(a), point(b)));
    }
  }
  ASSERT_TRUE(s.has_output());
  EXPECT_FALSE(s.output().has_value());
}

TEST_F(SvssUnit, OutputWaitsForAllChildren) {
  Context ctx = engine.host(2).ctx();
  SvssSession s(host, sid(), /*self=*/2, kN, kT);
  Rng rng(5);
  auto f = BivariatePolynomial::random_with_secret(Fp(1), kT, rng);
  std::vector<int> g{0, 1, 2};
  s.on_broadcast(ctx, 0, gset_msg(g));
  complete_all_children(ctx, s, g);
  s.start_reconstruct(ctx);
  // Feed all but one output.
  s.on_child_output(ctx, mw_child_id(sid(), 0, 1, 0),
                    f.eval(point(1), point(0)));
  EXPECT_FALSE(s.has_output());
}

TEST_F(SvssUnit, ChildIdRoundTripsThroughParent) {
  SessionId child = mw_child_id(sid(), 3, 1, 1);
  EXPECT_EQ(child.path, SessionPath::kMwInSvssTop);
  EXPECT_EQ(child.owner, 3);
  EXPECT_EQ(child.moderator, 1);
  auto parent = parent_session(child);
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(*parent, sid());
  // Coin-nested SVSS produces coin-nested children.
  SessionId coin_svss;
  coin_svss.path = SessionPath::kSvssCoin;
  coin_svss.owner = 2;
  coin_svss.counter = 3 * kMaxN + 1;
  SessionId coin_child = mw_child_id(coin_svss, 0, 1, 0);
  EXPECT_EQ(coin_child.path, SessionPath::kMwInSvssCoin);
  EXPECT_EQ(*parent_session(coin_child), coin_svss);
}

}  // namespace
}  // namespace svss
