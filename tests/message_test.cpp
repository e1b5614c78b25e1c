// Unit tests: message/session-id model — serialization round trips,
// parent-session derivation, hashing, and hostile-input parsing.
#include "sim/message.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hpp"
#include "sim/metrics.hpp"

namespace svss {
namespace {

SessionId sample_sid() {
  SessionId sid;
  sid.path = SessionPath::kMwInSvssCoin;
  sid.variant = 1;
  sid.owner = 3;
  sid.moderator = 5;
  sid.svss_dealer = 2;
  sid.counter = 777;
  return sid;
}

TEST(Message, SerializeDeserializeRoundTrip) {
  Message m;
  m.sid = sample_sid();
  m.type = MsgType::kMwReconVal;
  m.a = 4;
  m.b = -1;
  m.vals = {Fp(10), Fp(20)};
  m.ints = {1, 2, 3};
  m.blob = {9, 8, 7};
  auto rt = Message::deserialize(m.serialize());
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(*rt, m);
}

TEST(Message, EmptyFieldsRoundTrip) {
  Message m;
  m.sid.path = SessionPath::kAba;
  m.type = MsgType::kAbaVote;
  auto rt = Message::deserialize(m.serialize());
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(*rt, m);
}

TEST(Message, ParseIntoReusedMessageOverwritesEveryField) {
  // The RB accept path parses every value into one Message: a longer
  // earlier value must leave nothing behind, and a failed parse says so.
  Message big;
  big.sid = sample_sid();
  big.type = MsgType::kMwReconVal;
  big.a = 4;
  big.b = 7;
  big.vals = {Fp(10), Fp(20), Fp(30)};
  big.ints = {1, 2, 3};
  big.blob = {9, 8, 7};
  Message small;
  small.sid.path = SessionPath::kAba;
  small.type = MsgType::kAbaVote;
  small.ints = {1};
  Message reused;
  ASSERT_TRUE(reused.parse(big.serialize()));
  EXPECT_EQ(reused, big);
  ASSERT_TRUE(reused.parse(small.serialize()));
  EXPECT_EQ(reused, small);
  Bytes cut = big.serialize();
  cut.pop_back();
  EXPECT_FALSE(reused.parse(cut));
}

TEST(Message, TrailingGarbageRejected) {
  Message m;
  m.type = MsgType::kMwAck;
  Bytes buf = m.serialize();
  buf.push_back(0);
  EXPECT_FALSE(Message::deserialize(buf).has_value());
}

TEST(Message, TruncationRejected) {
  Message m;
  m.type = MsgType::kMwLset;
  m.ints = {1, 2, 3, 4};
  Bytes buf = m.serialize();
  for (std::size_t cut = 1; cut < buf.size(); cut += 3) {
    Bytes shorter(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Message::deserialize(shorter).has_value()) << cut;
  }
}

TEST(Message, InvalidPathByteRejected) {
  Message m;
  Bytes buf = m.serialize();
  buf[0] = 0xFF;
  EXPECT_FALSE(Message::deserialize(buf).has_value());
}

TEST(Message, RandomBytesDoNotCrash) {
  Rng rng(3);
  for (int len = 0; len < 64; ++len) {
    Bytes buf;
    for (int i = 0; i < len; ++i) {
      buf.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    (void)Message::deserialize(buf);  // must not crash; result irrelevant
  }
}

TEST(SessionId, ParentOfNestedMwIsItsSvss) {
  SessionId child = sample_sid();
  auto parent = parent_session(child);
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(parent->path, SessionPath::kSvssCoin);
  EXPECT_EQ(parent->owner, child.svss_dealer);
  EXPECT_EQ(parent->counter, child.counter);
}

TEST(SessionId, ParentOfCoinSvssIsItsCoinRound) {
  SessionId svss;
  svss.path = SessionPath::kSvssCoin;
  svss.owner = 1;
  svss.counter = 5 * kMaxN + 3;  // round 5, attachee 3
  auto parent = parent_session(svss);
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(parent->path, SessionPath::kCoin);
  EXPECT_EQ(parent->counter, 5u);
}

TEST(SessionId, TopLevelSessionsHaveNoParent) {
  SessionId mw;
  mw.path = SessionPath::kMwTop;
  EXPECT_FALSE(parent_session(mw).has_value());
  SessionId svss;
  svss.path = SessionPath::kSvssTop;
  EXPECT_FALSE(parent_session(svss).has_value());
}

TEST(SessionId, HashDistinguishesFields) {
  std::unordered_set<std::size_t> hashes;
  SessionIdHash h;
  SessionId base = sample_sid();
  hashes.insert(h(base));
  for (int i = 0; i < 50; ++i) {
    SessionId s = base;
    s.counter = static_cast<std::uint32_t>(i);
    hashes.insert(h(s));
  }
  EXPECT_GT(hashes.size(), 45u);  // near-perfect distribution on this set
}

TEST(BcastId, OrderingAndEquality) {
  BcastId a{1, sample_sid(), MsgType::kMwAck, -1};
  BcastId b = a;
  EXPECT_EQ(a, b);
  b.a = 3;
  EXPECT_NE(a, b);
  BcastIdHash h;
  EXPECT_NE(h(a), h(b));
}

TEST(Packet, WireSizeCountsPayload) {
  Message m;
  m.vals.assign(100, Fp(1));
  Packet small = make_direct(Message{});
  Packet large = make_direct(m);
  EXPECT_GT(large.wire_size(), small.wire_size() + 390);
}

// The engine meters bytes through serialized_size() without serializing;
// it must stay byte-exact against the real encoder for every payload
// shape.
TEST(Message, SerializedSizeMatchesSerialize) {
  Message shapes[4];
  shapes[0].sid = sample_sid();
  shapes[1].vals.assign(7, Fp(42));
  shapes[2].ints = {1, 2, 3};
  shapes[3].vals.assign(2, Fp(5));
  shapes[3].ints = {9};
  shapes[3].blob = Bytes{0xAA, 0xBB, 0xCC};
  for (const Message& m : shapes) {
    EXPECT_EQ(m.serialized_size(), m.serialize().size());
  }
}

TEST(Message, TypeNamesCoverProtocolTypes) {
  EXPECT_STREQ(msg_type_name(MsgType::kSvssBatchShares),
               "svss-batch-shares");
  EXPECT_STREQ(msg_type_name(MsgType::kSvssBatchGset), "svss-batch-gset");
  EXPECT_STREQ(msg_type_name(MsgType::kAbaVote), "aba-vote");
}

TEST(SessionId, StrIsHumanReadable) {
  EXPECT_NE(sample_sid().str().find("mw/svss/coin"), std::string::npos);
}

// Traffic-group attribution: every per-session MsgType and its batch
// envelope land in the same group, distinguished only by the batched flag
// — that pairing is what makes "N packets, M of them batched" a direct
// readout of a coalescing win.
TEST(Metrics, TypeGroupPairsEnvelopesWithTheirSessionTypes) {
  struct Case {
    MsgType session_type;
    MsgType batch_type;
    const char* group;
  };
  const Case cases[] = {
      {MsgType::kMwAck, MsgType::kMwBatchAck, "mw-rb"},
      {MsgType::kMwLset, MsgType::kMwBatchLset, "mw-rb"},
      {MsgType::kMwMset, MsgType::kMwBatchMset, "mw-rb"},
      {MsgType::kMwOk, MsgType::kMwBatchOk, "mw-rb"},
      {MsgType::kMwReconVal, MsgType::kMwBatchReconVal, "mw-rb"},
      {MsgType::kMwEchoVal, MsgType::kMwBatchDirect, "mw-direct"},
      {MsgType::kSvssDealerShares, MsgType::kSvssBatchShares, "svss-deal"},
      {MsgType::kSvssGset, MsgType::kSvssBatchGset, "svss-gset"},
  };
  for (const Case& c : cases) {
    bool batched = true;
    EXPECT_STREQ(Metrics::type_group(c.session_type, &batched), c.group)
        << msg_type_name(c.session_type);
    EXPECT_FALSE(batched) << msg_type_name(c.session_type);
    EXPECT_STREQ(Metrics::type_group(c.batch_type, &batched), c.group)
        << msg_type_name(c.batch_type);
    EXPECT_TRUE(batched) << msg_type_name(c.batch_type);
  }
  bool batched = true;
  EXPECT_STREQ(Metrics::type_group(MsgType::kAbaVote, &batched), "aba");
  EXPECT_FALSE(batched);
  EXPECT_STREQ(Metrics::type_group(MsgType::kCoinGset, &batched), "coin");
  EXPECT_FALSE(batched);
}

TEST(Metrics, GroupSummaryAttributesPacketsPerGroupWithBatchedSplit) {
  Metrics m;
  EXPECT_EQ(m.group_summary(), "");  // no packets, no line

  m.note_type(MsgType::kMwAck, 10);
  m.note_type(MsgType::kMwOk, 10);
  m.note_type(MsgType::kMwBatchAck, 30);       // mw-rb: 3 total, 1 batched
  m.note_type(MsgType::kMwEchoVal, 12);        // mw-direct: 2, 1 batched
  m.note_type(MsgType::kMwBatchDirect, 40);
  m.note_type(MsgType::kAbaVote, 8);           // aba: 1, none batched
  EXPECT_EQ(m.group_summary(),
            " [packets by group: mw-rb=3 (1 batched)"
            " mw-direct=2 (1 batched) aba=1]");
  // The attribution rides on the human-readable digest.
  EXPECT_NE(m.summary().find("mw-rb=3 (1 batched)"), std::string::npos);
}

}  // namespace
}  // namespace svss
