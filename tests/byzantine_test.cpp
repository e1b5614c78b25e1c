// Unit tests: the Byzantine wire-interceptor library ("honest code,
// corrupted wire") — each strategy's observable effect on packets.
#include "core/byzantine.hpp"

#include <gtest/gtest.h>

#include "sim/message.hpp"

namespace svss {
namespace {

Packet direct_packet(MsgType type, FieldVec vals) {
  Message m;
  m.sid.path = SessionPath::kMwTop;
  m.sid.owner = 0;
  m.sid.moderator = 1;
  m.type = type;
  m.vals = std::move(vals);
  return make_direct(m);
}

Packet own_rb_send(int self, MsgType type, FieldVec vals) {
  Message m;
  m.sid.path = SessionPath::kMwTop;
  m.sid.owner = 0;
  m.sid.moderator = 1;
  m.type = type;
  m.vals = std::move(vals);
  BcastId bid;
  bid.origin = static_cast<std::int16_t>(self);
  bid.sid = m.sid;
  bid.slot = m.type;
  return make_rb(bid, RbPhase::kSend, m.serialize());
}

TEST(Byzantine, HonestKindHasNoInterceptor) {
  EXPECT_EQ(make_byzantine_interceptor(ByzConfig{ByzKind::kHonest}, 0, 4, 1, 1),
            nullptr);
}

TEST(Byzantine, SilentDropsEverything) {
  auto f = make_byzantine_interceptor(ByzConfig{ByzKind::kSilent}, 3, 4, 1, 1);
  Packet p = direct_packet(MsgType::kMwAck, {});
  EXPECT_FALSE(f(0, p));
  EXPECT_FALSE(f(3, p));
}

TEST(Byzantine, CrashMidwayDropsAfterBudget) {
  ByzConfig cfg{ByzKind::kCrashMidway};
  cfg.crash_after = 3;
  auto f = make_byzantine_interceptor(cfg, 3, 4, 1, 1);
  Packet p = direct_packet(MsgType::kMwAck, {});
  EXPECT_TRUE(f(0, p));
  EXPECT_TRUE(f(1, p));
  EXPECT_TRUE(f(2, p));
  EXPECT_FALSE(f(0, p));
  EXPECT_FALSE(f(1, p));
}

TEST(Byzantine, EquivocateSplitsByRecipient) {
  auto f =
      make_byzantine_interceptor(ByzConfig{ByzKind::kEquivocate}, 0, 4, 1, 1);
  Packet low = direct_packet(MsgType::kMwEchoVal, {Fp(100)});
  Packet high = direct_packet(MsgType::kMwEchoVal, {Fp(100)});
  EXPECT_TRUE(f(1, low));   // lower half: untouched
  EXPECT_TRUE(f(2, high));  // upper half: perturbed
  EXPECT_EQ(low.app.vals[0], Fp(100));
  EXPECT_EQ(high.app.vals[0], Fp(101));
}

TEST(Byzantine, EquivocateRewritesOwnRbSends) {
  auto f =
      make_byzantine_interceptor(ByzConfig{ByzKind::kEquivocate}, 0, 4, 1, 1);
  Packet p = own_rb_send(0, MsgType::kMwAck, {Fp(5)});
  ASSERT_TRUE(f(3, p));
  auto m = Message::deserialize(p.rb_payload());
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->vals[0], Fp(6));
}

TEST(Byzantine, EquivocateLeavesRelayedRbAlone) {
  auto f =
      make_byzantine_interceptor(ByzConfig{ByzKind::kEquivocate}, 0, 4, 1, 1);
  // Echo for someone else's broadcast: not this process's own send.
  Message m;
  m.type = MsgType::kMwEchoVal;
  m.vals = {Fp(9)};
  BcastId bid;
  bid.origin = 2;  // origin != sender 0
  Packet p = make_rb(bid, RbPhase::kEcho, m.serialize());
  Bytes before = p.rb_payload();
  ASSERT_TRUE(f(3, p));
  EXPECT_EQ(p.rb_payload(), before);
}

TEST(Byzantine, WrongReconOnlyTouchesReconVals) {
  auto f =
      make_byzantine_interceptor(ByzConfig{ByzKind::kWrongRecon}, 2, 4, 1, 1);
  Packet recon = own_rb_send(2, MsgType::kMwReconVal, {Fp(50)});
  Packet ack = own_rb_send(2, MsgType::kMwAck, {Fp(50)});
  ASSERT_TRUE(f(0, recon));
  ASSERT_TRUE(f(0, ack));
  EXPECT_EQ(Message::deserialize(recon.rb_payload())->vals[0], Fp(51));
  EXPECT_EQ(Message::deserialize(ack.rb_payload())->vals[0], Fp(50));
}

TEST(Byzantine, LyingModeratorCorruptsMonitorValsAndMset) {
  auto f = make_byzantine_interceptor(ByzConfig{ByzKind::kLyingModerator}, 1, 4,
                                      1, 1);
  Packet mv = direct_packet(MsgType::kMwMonitorVal, {Fp(7)});
  ASSERT_TRUE(f(0, mv));
  EXPECT_EQ(mv.app.vals[0], Fp(8));

  Message mset;
  mset.sid.path = SessionPath::kMwTop;
  mset.type = MsgType::kMwMset;
  mset.ints = {0, 2, 3};
  BcastId bid;
  bid.origin = 1;
  bid.sid = mset.sid;
  bid.slot = mset.type;
  Packet p = make_rb(bid, RbPhase::kSend, mset.serialize());
  ASSERT_TRUE(f(0, p));
  auto out = Message::deserialize(p.rb_payload());
  ASSERT_TRUE(out.has_value());
  EXPECT_NE(out->ints, (std::vector<int>{0, 2, 3}));
}

TEST(Byzantine, BitFlipIsSeededAndProbabilistic) {
  ByzConfig cfg{ByzKind::kBitFlip};
  cfg.flip_prob = 1.0;  // always flips
  auto f = make_byzantine_interceptor(cfg, 3, 4, 1, 99);
  Packet p = direct_packet(MsgType::kMwEchoVal, {Fp(10)});
  ASSERT_TRUE(f(0, p));
  EXPECT_NE(p.app.vals[0], Fp(10));

  // Same seed => same mutations (determinism).
  auto f1 = make_byzantine_interceptor(cfg, 3, 4, 1, 123);
  auto f2 = make_byzantine_interceptor(cfg, 3, 4, 1, 123);
  Packet a = direct_packet(MsgType::kMwEchoVal, {Fp(10), Fp(20)});
  Packet b = direct_packet(MsgType::kMwEchoVal, {Fp(10), Fp(20)});
  ASSERT_TRUE(f1(0, a));
  ASSERT_TRUE(f2(0, b));
  EXPECT_EQ(a.app.vals, b.app.vals);
}

TEST(Byzantine, ZeroFlipProbabilityLeavesPacketsAlone) {
  ByzConfig cfg{ByzKind::kBitFlip};
  cfg.flip_prob = 0.0;
  auto f = make_byzantine_interceptor(cfg, 3, 4, 1, 5);
  Packet p = direct_packet(MsgType::kMwEchoVal, {Fp(10)});
  ASSERT_TRUE(f(0, p));
  EXPECT_EQ(p.app.vals[0], Fp(10));
}

}  // namespace
}  // namespace svss
