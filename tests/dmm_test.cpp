// Unit tests: the DMM protocol (Section 3.3) — expectation bookkeeping,
// explicit detection (rules 2-3), discard (rule 4), and the ->_i delay
// order (rule 5).
#include "dmm/dmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "dmm_reference.hpp"
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

// Differential test: random call sequences drive Dmm and the literal rules
// 1-5 reference (dmm_reference.hpp) side by side; every return value,
// hook call and introspection result must agree after every step.
void run_differential(int n, std::uint64_t seed) {
  Engine engine(n, (n - 1) / 3, seed, std::make_unique<FifoScheduler>());
  Context ctx(with_noops(engine).host(0).ctx());
  using Call = std::tuple<int, SessionId, int>;  // (process, sid, type)
  std::vector<Call> dmm_calls;
  std::vector<Call> ref_calls;
  Dmm dmm(Dmm::Hooks{
      [&](Context&, int j, const SessionId& where) {
        dmm_calls.emplace_back(j, where, -1);
      },
      [&](Context&, int from, const Message& m, bool) {
        dmm_calls.emplace_back(from, m.sid, static_cast<int>(m.type));
      }});
  test::DmmReference ref(
      ctx.self(),
      [&](int j, const SessionId& where) {
        ref_calls.emplace_back(j, where, -1);
      },
      [&](int from, const Message& m) {
        ref_calls.emplace_back(from, m.sid, static_cast<int>(m.type));
      });

  std::mt19937_64 rng(seed);
  auto pick = [&](int bound) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(bound));
  };
  std::vector<SessionId> sids;
  for (std::uint32_t c = 1; c <= 6; ++c) {
    sids.push_back(mw_sid(c, static_cast<int>(c) % n, (c + 1) % n));
  }
  std::vector<SessionId> begun;
  std::set<SessionId> completed;
  // Values are mostly the sender's honest f_l(j), sometimes a lie.
  auto value = [&](int j, int l, const SessionId& sid) {
    const std::int64_t honest = 1 + j * 16 + l * 4 + sid.counter;
    return Fp(pick(40) == 0 ? honest + 1 : honest);
  };
  for (int step = 0; step < 400; ++step) {
    const SessionId& sid = sids[static_cast<std::size_t>(pick(6))];
    const int j = pick(n);
    const int l = pick(n);
    switch (pick(8)) {
      case 0:
        dmm.note_begin(sid);
        ref.note_begin(sid);
        begun.push_back(sid);
        break;
      case 1:
        // A session completes only after it began (every VSS session
        // calls note_begin on construction).
        if (!begun.empty()) {
          const SessionId& b = begun[static_cast<std::size_t>(pick(
              static_cast<int>(begun.size())))];
          dmm.note_complete(b);
          ref.note_complete(b);
          completed.insert(b);
        }
        break;
      case 2: {
        // Expectations are registered in the share phase, before the
        // session's reconstruct completes.
        if (completed.count(sid) != 0) break;
        Fp x = value(j, l, sid);
        dmm.add_ack_entry(ctx, j, l, sid, x);
        ref.add_ack_entry(j, l, sid, x);
        break;
      }
      case 3: {
        if (completed.count(sid) != 0) break;
        Fp x = value(j, ctx.self(), sid);
        dmm.add_deal_entry(ctx, j, sid, x);
        ref.add_deal_entry(j, sid, x);
        break;
      }
      case 4:
        dmm.clear_deal_entries(ctx, sid);
        ref.clear_deal_entries(sid);
        break;
      case 5:
      case 6: {
        Fp x = value(j, l, sid);
        ASSERT_EQ(dmm.on_recon_value(ctx, j, sid, l, x),
                  ref.on_recon_value(j, sid, l, x))
            << "step " << step;
        break;
      }
      default: {
        Message m = mw_msg(sid, pick(2) == 0 ? MsgType::kMwAck
                                             : MsgType::kMwOk);
        ASSERT_EQ(dmm.filter(ctx, j, m, true), ref.filter(j, m))
            << "step " << step;
        break;
      }
    }
    ASSERT_EQ(dmm_calls, ref_calls) << "step " << step;
    ASSERT_EQ(dmm.detected(), ref.detected()) << "step " << step;
    ASSERT_EQ(dmm.buffered_messages(), ref.buffered_messages())
        << "step " << step;
    for (int p = 0; p < n; ++p) {
      ASSERT_EQ(dmm.pending_expectations(p), ref.pending_expectations(p))
          << "step " << step << " sender " << p;
      for (const SessionId& other : sids) {
        ASSERT_EQ(dmm.is_blocked(p, other), ref.is_blocked(p, other))
            << "step " << step;
        ASSERT_EQ(dmm.discard_applies(p, other),
                  ref.discard_applies(p, other))
            << "step " << step;
      }
    }
    std::vector<std::tuple<int, SessionId, bool>> blocking;
    for (const Dmm::OpenEntry& e : dmm.blocking_entries()) {
      blocking.emplace_back(e.sender, e.sid, e.is_ack);
    }
    std::sort(blocking.begin(), blocking.end());
    ASSERT_EQ(blocking, ref.blocking_entries()) << "step " << step;
  }
}

TEST(DmmDifferential, AgreesWithLiteralRulesAtN4) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(4, seed);
  }
}

TEST(DmmDifferential, AgreesWithLiteralRulesAtN7) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(7, seed);
  }
}

}  // namespace
}  // namespace svss
