// Step-level unit tests for the MW-SVSS state machine (paper S' steps 1-9
// and R' steps 1-4), driven through a mock host without a network.
//
// These complement mwsvss_test.cpp (whole-protocol properties through the
// simulator) by pinning the exact per-step conditions: what each message
// must contain, which arrivals trigger which transitions, and how
// malformed input is rejected.
#include <gtest/gtest.h>

#include "mwsvss/mwsvss.hpp"
#include "sim/scheduler.hpp"

namespace svss {
namespace {

class Noop : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet&) override {}
};

// Captures everything a session tries to do.
class MockHost : public MwHost {
 public:
  void rb_broadcast(Context&, const Message& m) override {
    broadcasts.push_back(m);
  }
  void send_direct(Context&, int to, const Message& m) override {
    directs.emplace_back(to, m);
  }
  Dmm& dmm() override { return dmm_; }
  void mw_share_completed(Context&, const SessionId&) override {
    share_completed = true;
  }
  void mw_recon_output(Context&, const SessionId&,
                       std::optional<Fp> value) override {
    output = value;
    output_seen = true;
  }

  [[nodiscard]] std::vector<Message> broadcasts_of(MsgType type) const {
    std::vector<Message> out;
    for (const auto& m : broadcasts) {
      if (m.type == type) out.push_back(m);
    }
    return out;
  }
  [[nodiscard]] std::vector<std::pair<int, Message>> directs_of(
      MsgType type) const {
    std::vector<std::pair<int, Message>> out;
    for (const auto& [to, m] : directs) {
      if (m.type == type) out.emplace_back(to, m);
    }
    return out;
  }

  std::vector<Message> broadcasts;
  std::vector<std::pair<int, Message>> directs;
  bool share_completed = false;
  bool output_seen = false;
  std::optional<Fp> output;

 private:
  Dmm dmm_{Dmm::Hooks{nullptr, [](Context&, int, const Message&, bool) {}}};
};

// Fixture: n = 4, t = 1, dealer 0, moderator 1; the session under test
// runs at `self`.
struct MwUnit : public ::testing::Test {
  static constexpr int kN = 4;
  static constexpr int kT = 1;

  MwUnit()
      : engine(kN, kT, 7, std::make_unique<FifoScheduler>()) {
    for (int i = 0; i < kN; ++i) engine.set_process(i, std::make_unique<Noop>());
  }

  SessionId sid() const {
    SessionId s;
    s.path = SessionPath::kMwTop;
    s.owner = 0;
    s.moderator = 1;
    s.counter = 1;
    return s;
  }

  Message msg(MsgType type, FieldVec vals = {}, std::vector<int> ints = {},
              int a = -1) const {
    Message m;
    m.sid = sid();
    m.type = type;
    m.vals = std::move(vals);
    m.ints = std::move(ints);
    m.a = static_cast<std::int16_t>(a);
    return m;
  }

  Engine engine;
  MockHost host;
};

// --- S' step 1: the dealer's message layout ----------------------------
TEST_F(MwUnit, DealerDistributesConsistentShares) {
  Context ctx = engine.host(0).ctx();
  MwSvssSession dealer(host, sid(), /*self=*/0, kN, kT);
  dealer.deal(ctx, Fp(12345));

  auto shares = host.directs_of(MsgType::kMwDealerShares);
  auto polys = host.directs_of(MsgType::kMwDealerPoly);
  auto wholes = host.directs_of(MsgType::kMwDealerWhole);
  ASSERT_EQ(shares.size(), static_cast<std::size_t>(kN));
  ASSERT_EQ(polys.size(), static_cast<std::size_t>(kN));
  ASSERT_EQ(wholes.size(), 1u);
  EXPECT_EQ(wholes[0].first, 1);  // to the moderator

  // Reconstruct f from the moderator's message and check every invariant:
  // f_l(0) = f(point(l)); shares[j][l] = f_l(point(j)).
  std::vector<std::pair<Fp, Fp>> fpts;
  for (int x = 1; x <= kT + 1; ++x) {
    fpts.emplace_back(Fp(x),
                      wholes[0].second.vals[static_cast<std::size_t>(x - 1)]);
  }
  Polynomial f = Polynomial::interpolate(fpts);
  EXPECT_EQ(f.eval(Fp(0)), Fp(12345));

  for (int l = 0; l < kN; ++l) {
    std::vector<std::pair<Fp, Fp>> lpts;
    for (int x = 1; x <= kT + 1; ++x) {
      lpts.emplace_back(
          Fp(x),
          polys[static_cast<std::size_t>(l)].second.vals[static_cast<std::size_t>(x - 1)]);
    }
    Polynomial fl = Polynomial::interpolate(lpts);
    EXPECT_EQ(fl.eval(Fp(0)), f.eval(point(l))) << l;
    for (int j = 0; j < kN; ++j) {
      EXPECT_EQ(shares[static_cast<std::size_t>(j)]
                    .second.vals[static_cast<std::size_t>(l)],
                fl.eval(point(j)))
          << j << "," << l;
    }
  }
}

TEST_F(MwUnit, OnlyTheDealerCanDeal) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  session.deal(ctx, Fp(1));
  EXPECT_TRUE(host.directs.empty());
  EXPECT_TRUE(host.broadcasts.empty());
}

// --- S' step 2: echo requires both dealer messages ----------------------
TEST_F(MwUnit, EchoOnlyAfterSharesAndPolynomial) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerShares,
                                {Fp(1), Fp(2), Fp(3), Fp(4)}));
  EXPECT_TRUE(host.directs_of(MsgType::kMwEchoVal).empty());
  EXPECT_TRUE(host.broadcasts_of(MsgType::kMwAck).empty());

  session.on_direct(ctx, 0, msg(MsgType::kMwDealerPoly, {Fp(10), Fp(20)}));
  auto echoes = host.directs_of(MsgType::kMwEchoVal);
  ASSERT_EQ(echoes.size(), static_cast<std::size_t>(kN));
  // Echo to l carries the value the dealer claimed for f_l(self).
  for (int l = 0; l < kN; ++l) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(l)].first, l);
    EXPECT_EQ(echoes[static_cast<std::size_t>(l)].second.vals[0], Fp(l + 1));
  }
  EXPECT_EQ(host.broadcasts_of(MsgType::kMwAck).size(), 1u);
}

TEST_F(MwUnit, MalformedDealerMessagesIgnored) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  // Wrong vector sizes.
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerShares, {Fp(1)}));
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerPoly, {Fp(1), Fp(2), Fp(3)}));
  // Wrong sender.
  session.on_direct(ctx, 3, msg(MsgType::kMwDealerShares,
                                {Fp(1), Fp(2), Fp(3), Fp(4)}));
  EXPECT_TRUE(host.directs.empty());
  EXPECT_TRUE(host.broadcasts.empty());
}

// --- S' steps 3-4: confirmations, DEAL entries, the L broadcast ---------
struct MwMonitorFixture : public MwUnit {
  // Drives `session` (self = 2) to the L-broadcast: my_poly is y(x) = c + x
  // style polynomial derived from the dealer's messages below.
  void feed_dealer_and_confirmers(Context& ctx, MwSvssSession& session) {
    // my_poly f_2 with f_2(x) interpolating (1,11),(2,22): degree 1.
    session.on_direct(ctx, 0, msg(MsgType::kMwDealerPoly, {Fp(11), Fp(22)}));
    std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(11)}, {Fp(2), Fp(22)}};
    my_poly = Polynomial::interpolate(pts);
    session.on_direct(ctx, 0,
                      msg(MsgType::kMwDealerShares,
                          {Fp(5), Fp(6), my_poly.eval(point(2)), Fp(8)}));
    // Confirmers 0, 1, 3 echo correct values of f_2 at their points and
    // publicly ack.
    for (int l : {0, 1, 3}) {
      session.on_direct(ctx, l,
                        msg(MsgType::kMwEchoVal, {my_poly.eval(point(l))}));
      session.on_broadcast(ctx, l, msg(MsgType::kMwAck));
    }
  }
  Polynomial my_poly;
};

TEST_F(MwMonitorFixture, LBroadcastAfterEnoughConfirmations) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  feed_dealer_and_confirmers(ctx, session);
  auto lsets = host.broadcasts_of(MsgType::kMwLset);
  ASSERT_EQ(lsets.size(), 1u);
  // 0, 1, 3 plus self (echo to self happens via the network normally; here
  // self never echoed, so L = {0,1,3} of size n-t).
  EXPECT_EQ(lsets[0].ints, (std::vector<int>{0, 1, 3}));
  // The monitored point goes to the moderator.
  auto mv = host.directs_of(MsgType::kMwMonitorVal);
  ASSERT_EQ(mv.size(), 1u);
  EXPECT_EQ(mv[0].first, 1);
  EXPECT_EQ(mv[0].second.vals[0], my_poly.eval(Fp(0)));
  // DEAL expectations were registered for every confirmer.
  EXPECT_EQ(host.dmm().pending_expectations(0), 1u);
  EXPECT_EQ(host.dmm().pending_expectations(3), 1u);
}

TEST_F(MwMonitorFixture, WrongEchoValueNeverConfirms) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerPoly, {Fp(11), Fp(22)}));
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(11)}, {Fp(2), Fp(22)}};
  Polynomial my_poly = Polynomial::interpolate(pts);
  session.on_direct(ctx, 0,
                    msg(MsgType::kMwDealerShares,
                        {Fp(5), Fp(6), my_poly.eval(point(2)), Fp(8)}));
  for (int l : {0, 1, 3}) {
    // Echo values off by one: step 3's equality check fails.
    session.on_direct(
        ctx, l, msg(MsgType::kMwEchoVal, {my_poly.eval(point(l)) + Fp(1)}));
    session.on_broadcast(ctx, l, msg(MsgType::kMwAck));
  }
  EXPECT_TRUE(host.broadcasts_of(MsgType::kMwLset).empty());
  EXPECT_EQ(host.dmm().pending_expectations(0), 0u);
}

TEST_F(MwMonitorFixture, EchoWithoutAckDoesNotConfirm) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerPoly, {Fp(11), Fp(22)}));
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(11)}, {Fp(2), Fp(22)}};
  Polynomial my_poly = Polynomial::interpolate(pts);
  session.on_direct(ctx, 0,
                    msg(MsgType::kMwDealerShares,
                        {Fp(5), Fp(6), my_poly.eval(point(2)), Fp(8)}));
  for (int l : {0, 1, 3}) {
    session.on_direct(ctx, l,
                      msg(MsgType::kMwEchoVal, {my_poly.eval(point(l))}));
  }
  EXPECT_TRUE(host.broadcasts_of(MsgType::kMwLset).empty());
}

// --- validation of set broadcasts ---------------------------------------
TEST_F(MwUnit, UndersizedOrInvalidSetsRejected) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  // L set too small.
  session.on_broadcast(ctx, 3, msg(MsgType::kMwLset, {}, {0, 1}));
  // M set from a non-moderator.
  session.on_broadcast(ctx, 3, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  // M set with duplicate ids.
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 0, 2}));
  // M set with out-of-range ids.
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 2, 9}));
  // OK from a non-dealer.
  session.on_broadcast(ctx, 1, msg(MsgType::kMwOk));
  EXPECT_FALSE(session.share_complete());
  EXPECT_TRUE(host.broadcasts.empty());
}

// --- S' step 8: dropping DEAL expectations when outside M-hat ------------
TEST_F(MwMonitorFixture, OutsideMhatClearsDealExpectations) {
  Context ctx = engine.host(2).ctx();
  MwSvssSession session(host, sid(), /*self=*/2, kN, kT);
  feed_dealer_and_confirmers(ctx, session);
  ASSERT_EQ(host.dmm().pending_expectations(0), 1u);
  // Moderator publishes M-hat without self (2).
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 3}));
  EXPECT_EQ(host.dmm().pending_expectations(0), 0u);
  EXPECT_EQ(host.dmm().pending_expectations(3), 0u);
}

// --- moderator steps 5-6 -------------------------------------------------
TEST_F(MwUnit, ModeratorRejectsDealerWithWrongSecret) {
  Context ctx = engine.host(1).ctx();
  MwSvssSession session(host, sid(), /*self=*/1, kN, kT);
  session.set_moderator_input(ctx, Fp(999));
  // Dealer's f has f(0) = 123 != 999: interpolates (1,124),(2,125).
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerWhole, {Fp(124), Fp(125)}));
  // Even with plausible monitor values and L sets, M must never form.
  for (int j : {0, 2, 3}) {
    session.on_direct(ctx, j, msg(MsgType::kMwMonitorVal, {Fp(j + 124)}));
    session.on_broadcast(ctx, j, msg(MsgType::kMwLset, {}, {0, 2, 3}));
  }
  for (int l : {0, 2, 3}) session.on_broadcast(ctx, l, msg(MsgType::kMwAck));
  EXPECT_TRUE(host.broadcasts_of(MsgType::kMwMset).empty());
}

TEST_F(MwUnit, ModeratorAcceptsConsistentMonitors) {
  Context ctx = engine.host(1).ctx();
  MwSvssSession session(host, sid(), /*self=*/1, kN, kT);
  // f interpolating (1,11),(2,22) => f(0) = 0; moderator input matches.
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(11)}, {Fp(2), Fp(22)}};
  Polynomial f = Polynomial::interpolate(pts);
  session.set_moderator_input(ctx, f.eval(Fp(0)));
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerWhole, {Fp(11), Fp(22)}));
  for (int j : {0, 2, 3}) {
    session.on_direct(ctx, j,
                      msg(MsgType::kMwMonitorVal, {f.eval(point(j))}));
    session.on_broadcast(ctx, j, msg(MsgType::kMwLset, {}, {0, 2, 3}));
  }
  for (int l : {0, 2, 3}) session.on_broadcast(ctx, l, msg(MsgType::kMwAck));
  auto msets = host.broadcasts_of(MsgType::kMwMset);
  ASSERT_EQ(msets.size(), 1u);
  EXPECT_EQ(msets[0].ints, (std::vector<int>{0, 2, 3}));
}

TEST_F(MwUnit, ModeratorRejectsMonitorValueMismatch) {
  Context ctx = engine.host(1).ctx();
  MwSvssSession session(host, sid(), /*self=*/1, kN, kT);
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(11)}, {Fp(2), Fp(22)}};
  Polynomial f = Polynomial::interpolate(pts);
  session.set_moderator_input(ctx, f.eval(Fp(0)));
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerWhole, {Fp(11), Fp(22)}));
  for (int j : {0, 2, 3}) {
    // Monitor 2 lies about its point.
    Fp v = f.eval(point(j)) + (j == 2 ? Fp(1) : Fp(0));
    session.on_direct(ctx, j, msg(MsgType::kMwMonitorVal, {v}));
    session.on_broadcast(ctx, j, msg(MsgType::kMwLset, {}, {0, 2, 3}));
  }
  for (int l : {0, 2, 3}) session.on_broadcast(ctx, l, msg(MsgType::kMwAck));
  // Only 2 acceptable monitors < n - t: no M broadcast.
  EXPECT_TRUE(host.broadcasts_of(MsgType::kMwMset).empty());
}

// --- step 9 completion requires the full transcript ----------------------
TEST_F(MwUnit, CompletionNeedsOkMsetLsetsAndAcks) {
  Context ctx = engine.host(3).ctx();
  MwSvssSession session(host, sid(), /*self=*/3, kN, kT);
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  EXPECT_FALSE(session.share_complete());
  session.on_broadcast(ctx, 0, msg(MsgType::kMwOk));
  EXPECT_FALSE(session.share_complete());
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, l, msg(MsgType::kMwLset, {}, {0, 1, 2}));
  }
  EXPECT_FALSE(session.share_complete());  // acks still missing
  for (int k : {0, 1}) session.on_broadcast(ctx, k, msg(MsgType::kMwAck));
  EXPECT_FALSE(session.share_complete());
  session.on_broadcast(ctx, 2, msg(MsgType::kMwAck));
  EXPECT_TRUE(session.share_complete());
  EXPECT_TRUE(host.share_completed);
}

// --- R': output computation ----------------------------------------------
TEST_F(MwUnit, ReconstructOutputsSecretFromConsistentValues) {
  // Observer 3 completed the share phase with M-hat = {0,1,2}; all recon
  // values are consistent with a line f, so the output is f(0).
  Context ctx = engine.host(3).ctx();
  MwSvssSession session(host, sid(), /*self=*/3, kN, kT);
  // Underlying f with f(0) = 500: f(x) = 500 + x.
  Polynomial f(FieldVec{Fp(500), Fp(1)});
  // Monitored polys f_l with f_l(0) = f(point(l)): f_l(x) = f(l+1) + x.
  auto fl = [&](int l) {
    return Polynomial(FieldVec{f.eval(point(l)), Fp(1)});
  };
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  session.on_broadcast(ctx, 0, msg(MsgType::kMwOk));
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, l, msg(MsgType::kMwLset, {}, {0, 1, 2}));
  }
  for (int k : {0, 1, 2}) session.on_broadcast(ctx, k, msg(MsgType::kMwAck));
  ASSERT_TRUE(session.share_complete());

  session.start_reconstruct(ctx);
  for (int l : {0, 1, 2}) {
    for (int k : {0, 1}) {  // t + 1 = 2 points suffice
      session.on_broadcast(
          ctx, k, msg(MsgType::kMwReconVal, {fl(l).eval(point(k))}, {}, l));
    }
  }
  ASSERT_TRUE(session.has_output());
  ASSERT_TRUE(session.output().has_value());
  EXPECT_EQ(*session.output(), Fp(500));
  EXPECT_TRUE(host.output_seen);
}

TEST_F(MwUnit, ReconstructOutputsBottomOnInconsistentMonitors) {
  Context ctx = engine.host(3).ctx();
  MwSvssSession session(host, sid(), /*self=*/3, kN, kT);
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  session.on_broadcast(ctx, 0, msg(MsgType::kMwOk));
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, l, msg(MsgType::kMwLset, {}, {0, 1, 2}));
  }
  for (int k : {0, 1, 2}) session.on_broadcast(ctx, k, msg(MsgType::kMwAck));
  session.start_reconstruct(ctx);
  // Monitored points 7, 7, 9999 at x = 1,2,3 do not lie on a line... they
  // always do for 3 points of degree 1?  No: degree bound t = 1 means the
  // three points (1,c0),(2,c1),(3,c2) must be collinear; pick them not so.
  FieldVec consts{Fp(7), Fp(8), Fp(9999)};
  for (int l : {0, 1, 2}) {
    Polynomial fl(FieldVec{consts[static_cast<std::size_t>(l)], Fp(1)});
    for (int k : {0, 1}) {
      session.on_broadcast(
          ctx, k, msg(MsgType::kMwReconVal, {fl.eval(point(k))}, {}, l));
    }
  }
  ASSERT_TRUE(session.has_output());
  EXPECT_FALSE(session.output().has_value());  // bottom
}

TEST_F(MwUnit, ReconValuesFromOutsideLhatIgnored) {
  Context ctx = engine.host(3).ctx();
  MwSvssSession session(host, sid(), /*self=*/3, kN, kT);
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  session.on_broadcast(ctx, 0, msg(MsgType::kMwOk));
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, l, msg(MsgType::kMwLset, {}, {0, 1, 2}));
  }
  for (int k : {0, 1, 2}) session.on_broadcast(ctx, k, msg(MsgType::kMwAck));
  session.start_reconstruct(ctx);
  // Process 3 is not in any L-hat: its values must not count.
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, 3,
                         msg(MsgType::kMwReconVal, {Fp(1)}, {}, l));
  }
  EXPECT_FALSE(session.has_output());
}

TEST_F(MwUnit, CompactKeepsOutputs) {
  Context ctx = engine.host(3).ctx();
  MwSvssSession session(host, sid(), /*self=*/3, kN, kT);
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  session.on_broadcast(ctx, 0, msg(MsgType::kMwOk));
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, l, msg(MsgType::kMwLset, {}, {0, 1, 2}));
  }
  for (int k : {0, 1, 2}) session.on_broadcast(ctx, k, msg(MsgType::kMwAck));
  session.start_reconstruct(ctx);
  Polynomial f(FieldVec{Fp(500), Fp(1)});
  auto fl = [&](int l) {
    return Polynomial(FieldVec{f.eval(point(l)), Fp(1)});
  };
  for (int l : {0, 1, 2}) {
    for (int k : {0, 1}) {
      session.on_broadcast(
          ctx, k, msg(MsgType::kMwReconVal, {fl(l).eval(point(k))}, {}, l));
    }
  }
  ASSERT_TRUE(session.has_output());
  session.compact();
  EXPECT_TRUE(session.share_complete());
  ASSERT_TRUE(session.output().has_value());
  EXPECT_EQ(*session.output(), Fp(500));
}

// --- hostile ids against the per-peer arrays ------------------------------
// Ids outside [0, n) index nothing: every such input is dropped before it
// touches session state (the asan-ubsan CI job runs this binary, so an
// out-of-bounds access fails there), and so are malformed sets.  A valid
// transcript afterwards must then run exactly as on a fresh session.
constexpr int kBadIds[] = {-1, MwUnit::kN, 127, 128, 1000, -32768};

TEST_F(MwUnit, HostileIdsAndSetsIgnored) {
  Context ctx = engine.host(3).ctx();
  MwSvssSession session(host, sid(), /*self=*/3, kN, kT);
  for (int bad : kBadIds) {
    session.on_broadcast(ctx, bad, msg(MsgType::kMwAck));
    session.on_broadcast(ctx, bad, msg(MsgType::kMwLset, {}, {0, 1, 2}));
    session.on_broadcast(ctx, bad, msg(MsgType::kMwOk));
    session.on_broadcast(ctx, bad, msg(MsgType::kMwReconVal, {Fp(1)}, {}, 0));
    session.on_broadcast(ctx, 0, msg(MsgType::kMwReconVal, {Fp(1)}, {}, bad));
    session.on_direct(ctx, bad, msg(MsgType::kMwEchoVal, {Fp(1)}));
    session.on_direct(ctx, bad, msg(MsgType::kMwMonitorVal, {Fp(1)}));
    // A set naming an out-of-range id.
    session.on_broadcast(ctx, 0, msg(MsgType::kMwLset, {}, {0, 1, bad}));
    session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, bad}));
  }
  for (const std::vector<int>& ids : std::vector<std::vector<int>>{
           {0, 1},           // fewer than n - t
           {0, 0, 1},        // duplicate
           {0, 1, 2, 2},     // duplicate past n - t
           {0, 1, 2, 3, 0},  // more ids than processes
       }) {
    for (int origin : {0, 1, 2}) {
      session.on_broadcast(ctx, origin, msg(MsgType::kMwLset, {}, ids));
    }
    session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, ids));
  }
  EXPECT_TRUE(host.broadcasts.empty());
  EXPECT_TRUE(host.directs.empty());
  EXPECT_FALSE(session.state().have_mset);

  // The genuine transcript of ReconstructOutputsSecretFromConsistentValues.
  session.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {0, 1, 2}));
  session.on_broadcast(ctx, 0, msg(MsgType::kMwOk));
  for (int l : {0, 1, 2}) {
    session.on_broadcast(ctx, l, msg(MsgType::kMwLset, {}, {0, 1, 2}));
  }
  for (int k : {0, 1, 2}) session.on_broadcast(ctx, k, msg(MsgType::kMwAck));
  ASSERT_TRUE(session.share_complete());
  session.start_reconstruct(ctx);
  Polynomial f(FieldVec{Fp(500), Fp(1)});
  for (int l : {0, 1, 2}) {
    Polynomial fl(FieldVec{f.eval(point(l)), Fp(1)});
    for (int k : {0, 1}) {
      session.on_broadcast(
          ctx, k, msg(MsgType::kMwReconVal, {fl.eval(point(k))}, {}, l));
    }
  }
  ASSERT_TRUE(session.has_output());
  ASSERT_TRUE(session.output().has_value());
  EXPECT_EQ(*session.output(), Fp(500));
}

TEST_F(MwUnit, HostileMonitorAndEchoSendersIgnoredByModerator) {
  Context ctx = engine.host(1).ctx();
  MwSvssSession session(host, sid(), /*self=*/1, kN, kT);
  std::vector<std::pair<Fp, Fp>> pts{{Fp(1), Fp(11)}, {Fp(2), Fp(22)}};
  Polynomial f = Polynomial::interpolate(pts);
  session.set_moderator_input(ctx, f.eval(Fp(0)));
  session.on_direct(ctx, 0, msg(MsgType::kMwDealerWhole, {Fp(11), Fp(22)}));
  for (int bad : kBadIds) {
    session.on_direct(ctx, bad, msg(MsgType::kMwMonitorVal, {Fp(0)}));
    session.on_direct(ctx, bad, msg(MsgType::kMwEchoVal, {Fp(0)}));
    session.on_broadcast(ctx, bad, msg(MsgType::kMwAck));
  }
  EXPECT_TRUE(host.broadcasts.empty());
  // The run of ModeratorAcceptsConsistentMonitors still forms M.
  for (int j : {0, 2, 3}) {
    session.on_direct(ctx, j,
                      msg(MsgType::kMwMonitorVal, {f.eval(point(j))}));
    session.on_broadcast(ctx, j, msg(MsgType::kMwLset, {}, {0, 2, 3}));
  }
  for (int l : {0, 2, 3}) session.on_broadcast(ctx, l, msg(MsgType::kMwAck));
  auto msets = host.broadcasts_of(MsgType::kMwMset);
  ASSERT_EQ(msets.size(), 1u);
  EXPECT_EQ(msets[0].ints, (std::vector<int>{0, 2, 3}));
}

// S' step 7 with an M-hat and L-hat sets out of id order: OK goes out on
// the last missing ack, after one ACK expectation per (monitor,
// confirmer) pair.
TEST_F(MwUnit, DealerKeepsLsetOrderForAckEntries) {
  Context ctx = engine.host(0).ctx();
  MwSvssSession dealer(host, sid(), /*self=*/0, kN, kT);
  dealer.deal(ctx, Fp(9));
  host.broadcasts.clear();
  dealer.on_broadcast(ctx, 1, msg(MsgType::kMwMset, {}, {3, 1, 2}));
  for (int j : {1, 2, 3}) {
    dealer.on_broadcast(ctx, j, msg(MsgType::kMwLset, {}, {3, 0, 2}));
  }
  for (int l : {0, 2}) dealer.on_broadcast(ctx, l, msg(MsgType::kMwAck));
  EXPECT_TRUE(host.broadcasts_of(MsgType::kMwOk).empty());
  dealer.on_broadcast(ctx, 3, msg(MsgType::kMwAck));
  ASSERT_EQ(host.broadcasts_of(MsgType::kMwOk).size(), 1u);
  // One ACK expectation per (monitor, confirmer): three per confirmer.
  for (int l : {0, 2, 3}) {
    EXPECT_EQ(host.dmm().pending_expectations(l), 3u) << l;
  }
}

}  // namespace
}  // namespace svss
