// Unit tests: the DMM protocol (Section 3.3) — expectation bookkeeping,
// explicit detection (rules 2-3), discard (rule 4), and the ->_i delay
// order (rule 5).
#include "dmm/dmm.hpp"

#include <gtest/gtest.h>

#include "sim/scheduler.hpp"

namespace svss {
namespace {

class Noop : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet&) override {}
};

SessionId mw_sid(std::uint32_t c, int dealer, int moderator) {
  SessionId sid;
  sid.path = SessionPath::kMwTop;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.moderator = static_cast<std::int16_t>(moderator);
  sid.counter = c;
  return sid;
}

Message mw_msg(const SessionId& sid, MsgType type) {
  Message m;
  m.sid = sid;
  m.type = type;
  return m;
}

// Hosts a no-op process in every slot of `e`.
Engine& with_noops(Engine& e) {
  for (int i = 0; i < e.n(); ++i) e.set_process(i, std::make_unique<Noop>());
  return e;
}

struct DmmFixture : public ::testing::Test {
  DmmFixture()
      : engine(4, 1, 1, std::make_unique<FifoScheduler>()),
        ctx(with_noops(engine).host(0).ctx()),
        dmm(Dmm::Hooks{
            [this](Context&, int suspect, const SessionId& where) {
              shunned.emplace_back(suspect, where);
            },
            [this](Context&, int from, const Message& m, bool via_rb) {
              released.emplace_back(from, m.sid);
              (void)via_rb;
            }}) {}

  Engine engine;
  Context ctx;
  Dmm dmm;
  std::vector<std::pair<int, SessionId>> shunned;
  std::vector<std::pair<int, SessionId>> released;
};

TEST_F(DmmFixture, FreshSenderPassesFilter) {
  EXPECT_TRUE(dmm.filter(ctx, 2, mw_msg(mw_sid(1, 0, 1), MsgType::kMwAck),
                         true));
  EXPECT_EQ(dmm.buffered_messages(), 0u);
}

TEST_F(DmmFixture, AckExpectationResolvedByMatchingBroadcast) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, /*sender=*/2, /*poly=*/3, s, Fp(55));
  EXPECT_EQ(dmm.pending_expectations(2), 1u);
  EXPECT_TRUE(dmm.on_recon_value(ctx, 2, s, 3, Fp(55)));
  EXPECT_EQ(dmm.pending_expectations(2), 0u);
  EXPECT_TRUE(dmm.detected().empty());
}

TEST_F(DmmFixture, AckExpectationViolationDetectsSender) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, s, Fp(55));
  EXPECT_FALSE(dmm.on_recon_value(ctx, 2, s, 3, Fp(56)));
  EXPECT_TRUE(dmm.discards(2));
  ASSERT_EQ(shunned.size(), 1u);
  EXPECT_EQ(shunned[0].first, 2);
  EXPECT_EQ(shunned[0].second, s);
}

TEST_F(DmmFixture, DealExpectationOnlyMatchesOwnPolyIndex) {
  SessionId s = mw_sid(1, 1, 2);
  dmm.add_deal_entry(ctx, 3, s, Fp(7));
  // Broadcast for someone else's polynomial: not our expectation.
  EXPECT_TRUE(dmm.on_recon_value(ctx, 3, s, /*poly=*/2, Fp(999)));
  EXPECT_EQ(dmm.pending_expectations(3), 1u);
  // Our polynomial (self == 0), wrong value: detection.
  EXPECT_FALSE(dmm.on_recon_value(ctx, 3, s, /*poly=*/0, Fp(8)));
  EXPECT_TRUE(dmm.discards(3));
}

TEST_F(DmmFixture, DealExpectationResolvedByMatch) {
  SessionId s = mw_sid(1, 1, 2);
  dmm.add_deal_entry(ctx, 3, s, Fp(7));
  EXPECT_TRUE(dmm.on_recon_value(ctx, 3, s, 0, Fp(7)));
  EXPECT_EQ(dmm.pending_expectations(3), 0u);
}

// Definition 1: discarding starts with sessions ordered after the anchor
// (detection) session.  Concurrent sessions still flow; sessions begun
// after the anchor completed are dropped.
TEST_F(DmmFixture, DiscardAppliesToSessionsAfterTheAnchor) {
  SessionId s = mw_sid(1, 0, 1);
  SessionId concurrent = mw_sid(2, 0, 1);
  SessionId later = mw_sid(3, 0, 1);
  dmm.note_begin(s);
  dmm.note_begin(concurrent);
  dmm.add_ack_entry(ctx, 2, 3, s, Fp(1));
  (void)dmm.on_recon_value(ctx, 2, s, 3, Fp(2));  // detection
  EXPECT_TRUE(dmm.discards(2));
  // Anchor not completed yet: nothing is "after" it.
  EXPECT_FALSE(dmm.discard_applies(2, concurrent));
  dmm.note_complete(s);
  dmm.note_begin(later);
  EXPECT_FALSE(dmm.discard_applies(2, concurrent));
  EXPECT_TRUE(dmm.discard_applies(2, later));
  EXPECT_TRUE(dmm.filter(ctx, 2, mw_msg(concurrent, MsgType::kMwAck), true));
  EXPECT_FALSE(dmm.filter(ctx, 2, mw_msg(later, MsgType::kMwAck), true));
  EXPECT_EQ(dmm.buffered_messages(), 0u);  // discarded, not buffered
}

// Rule 5: messages from a sender with an unresolved expectation in a
// *preceding* session are delayed; sessions begun before the expectation's
// session completed are unaffected.
TEST_F(DmmFixture, DelayAppliesOnlyToLaterSessions) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s2 = mw_sid(2, 0, 1);  // begun before s1 completes
  SessionId s3 = mw_sid(3, 0, 1);  // begun after s1 completes
  dmm.note_begin(s1);
  dmm.note_begin(s2);
  dmm.add_ack_entry(ctx, 2, 3, s1, Fp(5));
  dmm.note_complete(s1);
  dmm.note_begin(s3);

  EXPECT_FALSE(dmm.is_blocked(2, s2));
  EXPECT_TRUE(dmm.is_blocked(2, s3));
  EXPECT_FALSE(dmm.is_blocked(1, s3));  // other senders unaffected

  EXPECT_TRUE(dmm.filter(ctx, 2, mw_msg(s2, MsgType::kMwAck), true));
  EXPECT_FALSE(dmm.filter(ctx, 2, mw_msg(s3, MsgType::kMwAck), true));
  EXPECT_EQ(dmm.buffered_messages(), 1u);
}

TEST_F(DmmFixture, UnbeganSessionsCountAsLater) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s_future = mw_sid(9, 0, 1);  // never begun locally
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, s1, Fp(5));
  dmm.note_complete(s1);
  EXPECT_TRUE(dmm.is_blocked(2, s_future));
}

TEST_F(DmmFixture, IncompleteSessionNeverPrecedes) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s2 = mw_sid(2, 0, 1);
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, s1, Fp(5));
  // s1 never completes; s2 begins later but is not blocked.
  dmm.note_begin(s2);
  EXPECT_FALSE(dmm.is_blocked(2, s2));
}

TEST_F(DmmFixture, ResolutionReleasesBufferedMessages) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s3 = mw_sid(3, 0, 1);
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, s1, Fp(5));
  dmm.note_complete(s1);
  dmm.note_begin(s3);
  EXPECT_FALSE(dmm.filter(ctx, 2, mw_msg(s3, MsgType::kMwAck), true));
  EXPECT_EQ(dmm.buffered_messages(), 1u);

  EXPECT_TRUE(dmm.on_recon_value(ctx, 2, s1, 3, Fp(5)));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].first, 2);
  EXPECT_EQ(released[0].second, s3);
  EXPECT_EQ(dmm.buffered_messages(), 0u);
}

TEST_F(DmmFixture, DetectionDropsBufferedMessages) {
  SessionId s1 = mw_sid(1, 0, 1);
  SessionId s3 = mw_sid(3, 0, 1);
  dmm.note_begin(s1);
  dmm.add_ack_entry(ctx, 2, 3, s1, Fp(5));
  dmm.note_complete(s1);
  dmm.note_begin(s3);
  (void)dmm.filter(ctx, 2, mw_msg(s3, MsgType::kMwAck), true);
  (void)dmm.on_recon_value(ctx, 2, s1, 3, Fp(6));  // wrong value
  EXPECT_EQ(dmm.buffered_messages(), 0u);
  EXPECT_TRUE(released.empty());
}

// S' step 8: clearing DEAL expectations unblocks.
TEST_F(DmmFixture, ClearDealEntriesReleases) {
  SessionId s1 = mw_sid(1, 1, 2);
  SessionId s3 = mw_sid(3, 1, 2);
  dmm.note_begin(s1);
  dmm.add_deal_entry(ctx, 2, s1, Fp(5));
  dmm.note_complete(s1);
  dmm.note_begin(s3);
  EXPECT_FALSE(dmm.filter(ctx, 2, mw_msg(s3, MsgType::kMwAck), true));
  dmm.clear_deal_entries(ctx, s1);
  EXPECT_EQ(dmm.pending_expectations(2), 0u);
  ASSERT_EQ(released.size(), 1u);
}

TEST_F(DmmFixture, DuplicateEntriesCountedOnce) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, s, Fp(5));
  dmm.add_ack_entry(ctx, 2, 3, s, Fp(5));
  EXPECT_EQ(dmm.pending_expectations(2), 1u);
}

TEST_F(DmmFixture, ShunEventRecordedInLog) {
  SessionId s = mw_sid(1, 0, 1);
  dmm.add_ack_entry(ctx, 2, 3, s, Fp(5));
  (void)dmm.on_recon_value(ctx, 2, s, 3, Fp(6));
  auto pairs = engine.log().shun_pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(0, 2));
}

// The key quantitative fact behind the paper's O(n^2) bound: each (i, j)
// pair can produce at most one explicit detection — D_i is a set.
TEST_F(DmmFixture, RepeatedViolationsDetectOnlyOnce) {
  for (std::uint32_t c = 1; c <= 5; ++c) {
    SessionId s = mw_sid(c, 0, 1);
    dmm.add_ack_entry(ctx, 2, 3, s, Fp(5));
    (void)dmm.on_recon_value(ctx, 2, s, 3, Fp(6));
  }
  EXPECT_EQ(shunned.size(), 1u);
  EXPECT_EQ(engine.log().shun_pairs().size(), 1u);
}

}  // namespace
}  // namespace svss
