// Unit tests of the batching layer (src/batch/): for each client codec,
// captured per-session messages must flush into envelopes that unpack back
// into the originals, and a malformed envelope — whatever a Byzantine
// sender frames — must be dropped whole: no crash, no partial delivery, no
// double delivery.
#include "batch/batch.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "batch/codec.hpp"
#include "common/serialization.hpp"
#include "sim/engine.hpp"

namespace svss {
namespace {

constexpr BatchFraming kAllBatched{true, true, true};

// Records what a Batcher emits and delivers.
struct Recorder : BatchHost {
  std::vector<std::pair<int, Message>> direct;
  std::vector<Message> rb;
  std::vector<Message> subs;

  void emit_direct(Context&, int to, Message m) override {
    direct.emplace_back(to, std::move(m));
  }
  void emit_rb(Context&, const Message& m) override { rb.push_back(m); }
  void deliver_sub(Context&, int, const Message& sub, bool) override {
    subs.push_back(sub);
  }
};

// Runs the receiver path on one envelope and collects the per-session
// sub-messages it hands to the host.
std::vector<Message> unpack_all(const Message& env, bool via_rb,
                                int n = 4) {
  ProcessWorld world{0, n, 1};
  Context ctx(world);
  Recorder host;
  Batcher rx(host, /*self=*/0, n, /*t=*/1, kAllBatched);
  rx.unpack(ctx, /*sender=*/2, env, via_rb);
  return host.subs;
}

// ---------------------------------------------------------------------
// MW client
// ---------------------------------------------------------------------

// A coin-nested MW child session id: round 5, attachee j.
SessionId mw_child(int j, std::uint8_t variant = 0) {
  SessionId sid;
  sid.path = SessionPath::kMwInSvssCoin;
  sid.variant = variant;
  sid.owner = 1;
  sid.moderator = 2;
  sid.svss_dealer = 3;
  sid.counter = 5 * kMaxN + static_cast<std::uint32_t>(j);
  return sid;
}

Message envelope(MsgType type, std::vector<int> ints = {},
                 FieldVec vals = {}) {
  Message m;
  m.sid = batch::mw_group_sid(mw_child(0));
  m.type = type;
  m.ints = std::move(ints);
  m.vals = std::move(vals);
  return m;
}

TEST(MwGroupCodec, GroupAndChildSidsAreInverse) {
  for (int j : {0, 1, 3}) {
    for (std::uint8_t variant : {std::uint8_t{0}, std::uint8_t{1}}) {
      SessionId child = mw_child(j, variant);
      SessionId group = batch::mw_group_sid(child);
      EXPECT_EQ(group.variant, 2 + variant);
      EXPECT_EQ(group.counter % kMaxN, 0u);
      EXPECT_EQ(batch::mw_child_sid(group, j), child);
    }
  }
}

TEST(MwGroupCodec, RoundTripReproducesPerSessionMessages) {
  ProcessWorld world{1, 4, 1};
  Context ctx(world);
  Recorder host;
  Batcher tx(host, 1, 4, 1, kAllBatched);
  tx.open_window();

  for (int j = 0; j < 4; ++j) {
    Message ack;
    ack.sid = mw_child(j);
    ack.type = MsgType::kMwAck;
    ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, ack));
  }
  Message lset;
  lset.sid = mw_child(2);
  lset.type = MsgType::kMwLset;
  lset.ints = {0, 1, 3};
  ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, lset));
  Message recon;
  recon.sid = mw_child(1);
  recon.type = MsgType::kMwReconVal;
  recon.a = 3;
  recon.vals = {Fp(77)};
  ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, recon));
  Message echo;
  echo.sid = mw_child(0);
  echo.type = MsgType::kMwEchoVal;
  echo.vals = {Fp(5)};
  ASSERT_TRUE(tx.capture(ctx, 2, echo));
  Message shares;
  shares.sid = mw_child(3);
  shares.type = MsgType::kMwDealerShares;
  shares.vals = {Fp(8), Fp(9), Fp(10), Fp(11)};
  ASSERT_TRUE(tx.capture(ctx, 2, shares));

  tx.close_window(ctx);
  const std::vector<Message>& rb_envs = host.rb;
  const std::vector<std::pair<int, Message>>& direct_envs = host.direct;

  // One direct envelope (both sub-messages went to recipient 2) and one
  // RB envelope per captured type: ack, L-set, recon.
  ASSERT_EQ(direct_envs.size(), 1u);
  EXPECT_EQ(direct_envs[0].first, 2);
  ASSERT_EQ(rb_envs.size(), 3u);
  EXPECT_EQ(rb_envs[0].type, MsgType::kMwBatchAck);
  EXPECT_EQ(rb_envs[1].type, MsgType::kMwBatchLset);
  EXPECT_EQ(rb_envs[2].type, MsgType::kMwBatchReconVal);

  auto acks = unpack_all(rb_envs[0], /*via_rb=*/true);
  ASSERT_EQ(acks.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(acks[static_cast<std::size_t>(j)].sid, mw_child(j));
    EXPECT_EQ(acks[static_cast<std::size_t>(j)].type, MsgType::kMwAck);
  }

  auto lsets = unpack_all(rb_envs[1], /*via_rb=*/true);
  ASSERT_EQ(lsets.size(), 1u);
  EXPECT_EQ(lsets[0].sid, mw_child(2));
  EXPECT_EQ(lsets[0].ints, (std::vector<int>{0, 1, 3}));

  auto recons = unpack_all(rb_envs[2], /*via_rb=*/true);
  ASSERT_EQ(recons.size(), 1u);
  EXPECT_EQ(recons[0].sid, mw_child(1));
  EXPECT_EQ(recons[0].a, 3);
  EXPECT_EQ(recons[0].vals, FieldVec{Fp(77)});

  auto directs = unpack_all(direct_envs[0].second, /*via_rb=*/false);
  ASSERT_EQ(directs.size(), 2u);
  EXPECT_EQ(directs[0].sid, mw_child(0));
  EXPECT_EQ(directs[0].type, MsgType::kMwEchoVal);
  EXPECT_EQ(directs[0].vals, FieldVec{Fp(5)});
  EXPECT_EQ(directs[1].sid, mw_child(3));
  EXPECT_EQ(directs[1].type, MsgType::kMwDealerShares);
  EXPECT_EQ(directs[1].vals, (FieldVec{Fp(8), Fp(9), Fp(10), Fp(11)}));
}

TEST(MwGroupCodec, WrongTransportClassIsRejected) {
  // RB envelope arriving as a direct send, and vice versa.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchAck, {0}),
                         /*via_rb=*/false)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect,
                                  {static_cast<int>(MsgType::kMwEchoVal),
                                   0, 0}),
                         /*via_rb=*/true)
                  .empty());
}

TEST(MwGroupCodec, MalformedEnvelopeSidIsRejected) {
  // A child-variant sid, a counter off the attachee-0 slot, and a stray
  // blob are all outside the envelope shape.
  Message env = envelope(MsgType::kMwBatchAck, {0});
  env.sid.variant = 1;
  EXPECT_TRUE(unpack_all(env, true).empty());

  env = envelope(MsgType::kMwBatchAck, {0});
  env.sid.counter += 1;
  EXPECT_TRUE(unpack_all(env, true).empty());

  env = envelope(MsgType::kMwBatchAck, {0});
  env.blob = {0xFF};
  EXPECT_TRUE(unpack_all(env, true).empty());
}

TEST(MwGroupCodec, AttacheeListEnvelopesRejectBadEntries) {
  // Out-of-range attachees (n = 4), duplicates, and a payload the type
  // never carries; a valid prefix must not leak through.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchAck, {0, 4}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchOk, {-1}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchAck, {2, 1, 2}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchOk, {0}, {Fp(1)}), true)
                  .empty());
}

TEST(MwGroupCodec, SetRunEnvelopesRejectTruncation) {
  // (j, len, members...) runs: short header, length past the end,
  // negative length, duplicate session.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchLset, {0}), true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchLset, {0, 5, 1, 2}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchMset, {0, -1}), true)
                  .empty());
  EXPECT_TRUE(
      unpack_all(envelope(MsgType::kMwBatchMset, {1, 1, 0, 1, 1, 2}), true)
          .empty());
}

TEST(MwGroupCodec, ReconEnvelopesRejectMalformedPairs) {
  // Odd int run, value-count mismatch, out-of-range monitored poly,
  // duplicate (attachee, poly) pair.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal, {0, 1, 2},
                                  {Fp(1)}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal, {0, 1},
                                  {Fp(1), Fp(2)}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal, {0, 4},
                                  {Fp(1)}),
                         true)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchReconVal,
                                  {0, 1, 0, 1}, {Fp(1), Fp(2)}),
                         true)
                  .empty());
}

TEST(MwGroupCodec, DirectEnvelopesRejectMalformedTriples) {
  const int echo = static_cast<int>(MsgType::kMwEchoVal);
  // Triple run not a multiple of three, a sub-type outside the direct
  // class, a length past the value vector, trailing unclaimed values,
  // and a duplicated (type, attachee) sub-message.
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0}),
                         false)
                  .empty());
  EXPECT_TRUE(
      unpack_all(envelope(MsgType::kMwBatchDirect,
                          {static_cast<int>(MsgType::kMwAck), 0, 0}),
                 false)
          .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0, 2},
                                  {Fp(1)}),
                         false)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0, 1},
                                  {Fp(1), Fp(2)}),
                         false)
                  .empty());
  EXPECT_TRUE(unpack_all(envelope(MsgType::kMwBatchDirect,
                                  {echo, 1, 1, echo, 1, 1},
                                  {Fp(1), Fp(2)}),
                         false)
                  .empty());
}

// The fault-injection views reach the same values and sets on either
// framing.
TEST(MwGroupCodec, FaultViewsSeeBothFramings) {
  auto bump = [](Message& m, MsgType type) {
    batch::for_each_value(m, type, [](Fp& v) { v += Fp(10); });
  };
  Message monitor;
  monitor.type = MsgType::kMwMonitorVal;
  monitor.vals = {Fp(1)};
  bump(monitor, MsgType::kMwMonitorVal);
  EXPECT_EQ(monitor.vals, FieldVec{Fp(11)});
  Message direct = envelope(MsgType::kMwBatchDirect,
                            {static_cast<int>(MsgType::kMwEchoVal), 0, 2,
                             static_cast<int>(MsgType::kMwMonitorVal), 1, 1},
                            {Fp(1), Fp(2), Fp(3)});
  bump(direct, MsgType::kMwMonitorVal);
  EXPECT_EQ(direct.vals, (FieldVec{Fp(1), Fp(2), Fp(13)}));
  Message recon = envelope(MsgType::kMwBatchReconVal, {0, 1, 1, 2},
                           {Fp(5), Fp(6)});
  bump(recon, MsgType::kMwReconVal);
  EXPECT_EQ(recon.vals, (FieldVec{Fp(15), Fp(16)}));
  bump(recon, MsgType::kMwMonitorVal);  // no monitor values in there
  EXPECT_EQ(recon.vals, (FieldVec{Fp(15), Fp(16)}));

  auto sets = [](const Message& m) {
    std::vector<std::vector<int>> out;
    bool ok = batch::for_each_member_set(m, [&](std::span<const int> set) {
      out.emplace_back(set.begin(), set.end());
    });
    return ok ? out : std::vector<std::vector<int>>{{-1}};
  };
  Message mset;
  mset.type = MsgType::kMwMset;
  mset.ints = {2, 0};
  EXPECT_EQ(sets(mset), (std::vector<std::vector<int>>{{2, 0}}));
  EXPECT_EQ(*batch::first_set_member(mset), 2);
  Message runs = envelope(MsgType::kMwBatchMset, {0, 2, 1, 3, 2, 1, 0});
  EXPECT_EQ(sets(runs), (std::vector<std::vector<int>>{{1, 3}, {0}}));
  EXPECT_EQ(*batch::first_set_member(runs), 1);
  EXPECT_EQ(sets(envelope(MsgType::kMwBatchLset, {0, 3, 1})),
            (std::vector<std::vector<int>>{{-1}}));
  Message empty_run = envelope(MsgType::kMwBatchLset, {0, 0});
  EXPECT_EQ(batch::first_set_member(empty_run), nullptr);
}

// ---------------------------------------------------------------------
// Vote client
// ---------------------------------------------------------------------

Message vote(std::uint32_t instance, int round, int subtype, int value) {
  Message m;
  m.sid = SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, instance};
  m.type = MsgType::kAbaVote;
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints = {value};
  return m;
}

Message vote_envelope(MsgType type, std::vector<int> ints,
                      std::uint32_t counter = 0) {
  Message m;
  m.sid = SessionId{SessionPath::kAba, 4, -1, -1, -1, counter, 0};
  m.type = type;
  m.ints = std::move(ints);
  return m;
}

TEST(VoteCodec, RoundTripReproducesPerSessionVotes) {
  ProcessWorld world{1, 4, 1};
  Context ctx(world);
  Recorder host;
  Batcher tx(host, 1, 4, 1, kAllBatched);
  const std::vector<Message> to_two = {vote(0, 1, 0, 1), vote(7, 2, 1, 0),
                                       vote(3, 1, 3, 1)};
  const std::vector<Message> confs = {vote(0, 1, 2, 3), vote(7, 2, 2, 1)};
  tx.open_window();
  for (const Message& m : to_two) ASSERT_TRUE(tx.capture(ctx, 2, m));
  ASSERT_TRUE(tx.capture(ctx, 0, vote(5, 4, 0, 0)));
  for (const Message& m : confs) {
    ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, m));
  }
  tx.close_window(ctx);

  // Recipients ascending; the lone vote to 0 leaves per-session.
  ASSERT_EQ(host.direct.size(), 2u);
  EXPECT_EQ(host.direct[0].first, 0);
  EXPECT_EQ(host.direct[0].second, vote(5, 4, 0, 0));
  EXPECT_EQ(host.direct[1].first, 2);
  EXPECT_EQ(host.direct[1].second.type, MsgType::kAbaBatchVote);
  EXPECT_EQ(unpack_all(host.direct[1].second, false), to_two);
  ASSERT_EQ(host.rb.size(), 1u);
  EXPECT_EQ(host.rb[0].type, MsgType::kAbaBatchConf);
  EXPECT_EQ(unpack_all(host.rb[0], true), confs);

  // The next CONF flush is its own RBC instance; a lone CONF leaves
  // per-session and consumes no sequence number.
  tx.open_window();
  ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, confs[0]));
  tx.close_window(ctx);
  tx.open_window();
  for (const Message& m : confs) {
    ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, m));
  }
  tx.close_window(ctx);
  ASSERT_EQ(host.rb.size(), 3u);
  EXPECT_EQ(host.rb[1], confs[0]);
  EXPECT_EQ(host.rb[0].sid.counter, 0u);
  EXPECT_EQ(host.rb[2].sid.counter, 1u);
}

TEST(VoteCodec, FramingSwitchAndWindowGateCapture) {
  ProcessWorld world{1, 4, 1};
  Context ctx(world);
  Recorder host;
  Batcher per_session(host, 1, 4, 1, BatchFraming{true, true, false});
  per_session.open_window();
  EXPECT_FALSE(per_session.capture(ctx, 2, vote(0, 1, 0, 1)));
  Batcher batched(host, 1, 4, 1, kAllBatched);
  EXPECT_FALSE(batched.capture(ctx, 2, vote(0, 1, 0, 1)));
}

// ---------------------------------------------------------------------
// Coin client
// ---------------------------------------------------------------------

// SVSS-coin session of dealer 1, round 3, attachee j, instance 2.
SessionId coin_session(int j) {
  SessionId sid;
  sid.path = SessionPath::kSvssCoin;
  sid.owner = 1;
  sid.counter = 3 * kMaxN + static_cast<std::uint32_t>(j);
  sid.instance = 2;
  return sid;
}

Message coin_envelope(MsgType type) {
  Message m;
  m.sid = coin_session(0);
  m.sid.variant = 1;
  m.type = type;
  return m;
}

TEST(CoinCodec, RoundTripFlushesWhenAllSiblingsAreIn) {
  ProcessWorld world{1, 4, 1};
  Context ctx(world);
  Recorder host;
  Batcher tx(host, /*self=*/1, 4, 1, kAllBatched);
  // Dealing: attachee-major, recipients ascending, no window needed.
  std::vector<std::vector<Message>> dealt(4);
  for (int j = 0; j < 4; ++j) {
    for (int to = 0; to < 4; ++to) {
      Message m;
      m.sid = coin_session(j);
      m.type = MsgType::kSvssDealerShares;
      m.vals = {Fp(10 * j + to), Fp(1), Fp(2), Fp(3)};
      dealt[static_cast<std::size_t>(to)].push_back(m);
      ASSERT_TRUE(tx.capture(ctx, to, m));
      EXPECT_EQ(host.direct.size(), j == 3 ? static_cast<std::size_t>(to + 1)
                                           : 0u);
    }
  }
  for (int to = 0; to < 4; ++to) {
    const auto& [recipient, env] = host.direct[static_cast<std::size_t>(to)];
    EXPECT_EQ(recipient, to);
    EXPECT_EQ(env.type, MsgType::kSvssBatchShares);
    EXPECT_EQ(unpack_all(env, false), dealt[static_cast<std::size_t>(to)]);
  }

  // G-sets complete in any order and leave in attachee order.
  std::vector<Message> gsets(4);
  for (int j : {2, 0, 3, 1}) {
    Message& m = gsets[static_cast<std::size_t>(j)];
    m.sid = coin_session(j);
    m.type = MsgType::kSvssGset;
    m.ints = {0, 1, j};
    m.blob = Bytes(static_cast<std::size_t>(j), 0xAB);
    ASSERT_TRUE(tx.capture(ctx, batch::kBroadcast, m));
    EXPECT_EQ(host.rb.size(), j == 1 ? 1u : 0u);
  }
  EXPECT_EQ(host.rb[0].type, MsgType::kSvssBatchGset);
  EXPECT_EQ(unpack_all(host.rb[0], true), gsets);
}

TEST(CoinCodec, OnlyOwnSessionsAreCaptured) {
  ProcessWorld world{0, 4, 1};
  Context ctx(world);
  Recorder host;
  Batcher tx(host, /*self=*/0, 4, 1, kAllBatched);
  Message m;
  m.sid = coin_session(0);  // dealer 1's session
  m.type = MsgType::kSvssDealerShares;
  EXPECT_FALSE(tx.capture(ctx, 2, m));
}

// ---------------------------------------------------------------------
// One malformed-envelope table for every client: each row must deliver
// zero sub-messages.
// ---------------------------------------------------------------------
struct Malformed {
  std::string name;
  Message env;
  bool via_rb;
};

std::vector<Malformed> malformed_rows() {
  const int echo = static_cast<int>(MsgType::kMwEchoVal);
  std::vector<Malformed> rows;
  auto add = [&](std::string name, Message env, bool via_rb) {
    rows.push_back(Malformed{std::move(name), std::move(env), via_rb});
  };
  auto with = [](Message m, auto&& edit) {
    edit(m);
    return m;
  };
  const Message vote_ok = vote_envelope(MsgType::kAbaBatchVote,
                                        {0, 1, 0, 1, 1, 2, 1, 0});
  const Message conf_ok = vote_envelope(MsgType::kAbaBatchConf, {0, 1, 3});
  Message shares_ok = coin_envelope(MsgType::kSvssBatchShares);
  shares_ok.vals.assign(4 * 4, Fp(1));
  Writer w;
  for (int j = 0; j < 4; ++j) {
    w.int_vec({0, 1, 2});
    w.bytes({});
  }
  Message gset_ok = coin_envelope(MsgType::kSvssBatchGset);
  gset_ok.blob = w.data();

  // Wrong transport class.
  add("vote direct envelope via RB", vote_ok, true);
  add("vote CONF envelope via direct", conf_ok, false);
  add("mw RB envelope via direct", envelope(MsgType::kMwBatchOk, {0}), false);
  add("mw direct envelope via RB",
      envelope(MsgType::kMwBatchDirect, {echo, 0, 1}, {Fp(1)}), true);
  add("coin shares via RB", shares_ok, true);
  add("coin G-set via direct", gset_ok, false);
  // Bad envelope sid.
  add("vote envelope in variant 0",
      with(vote_ok, [](Message& m) { m.sid.variant = 0; }), false);
  add("vote envelope with an instance",
      with(vote_ok, [](Message& m) { m.sid.instance = 1; }), false);
  add("vote direct envelope with a counter",
      with(vote_ok, [](Message& m) { m.sid.counter = 1; }), false);
  add("vote envelope with roles",
      with(conf_ok, [](Message& m) { m.sid.owner = 0; }), true);
  add("mw envelope in a child variant",
      with(envelope(MsgType::kMwBatchAck, {0}),
           [](Message& m) { m.sid.variant = 0; }),
      true);
  add("coin envelope in variant 0",
      with(shares_ok, [](Message& m) { m.sid.variant = 0; }), false);
  add("coin envelope off the attachee-0 slot",
      with(gset_ok, [](Message& m) { m.sid.counter += 1; }), true);
  add("coin envelope on the top-level SVSS path",
      with(shares_ok, [](Message& m) { m.sid.path = SessionPath::kSvssTop; }),
      false);
  // Ragged or truncated runs.
  add("vote runs not a multiple of four",
      vote_envelope(MsgType::kAbaBatchVote, {0, 1, 0, 1, 0}), false);
  add("CONF runs not a multiple of three",
      vote_envelope(MsgType::kAbaBatchConf, {0, 1, 3, 0}), true);
  add("empty vote envelope", vote_envelope(MsgType::kAbaBatchVote, {}),
      false);
  add("vote envelope carrying values",
      with(vote_ok, [](Message& m) { m.vals = {Fp(1)}; }), false);
  add("mw set run past the end",
      envelope(MsgType::kMwBatchLset, {0, 3, 1}), true);
  add("mw direct triple truncated", envelope(MsgType::kMwBatchDirect, {echo}),
      false);
  add("coin G-set blob truncated",
      with(gset_ok, [](Message& m) { m.blob.pop_back(); }), true);
  // Duplicate entries.
  add("mw duplicate ack", envelope(MsgType::kMwBatchAck, {1, 1}), true);
  add("mw duplicate direct entry",
      envelope(MsgType::kMwBatchDirect, {echo, 2, 0, echo, 2, 0}), false);
  add("mw duplicate recon pair",
      envelope(MsgType::kMwBatchReconVal, {3, 0, 3, 0}, {Fp(1), Fp(2)}),
      true);
  // Out-of-range attachee, round or subtype.
  add("mw attachee past n", envelope(MsgType::kMwBatchOk, {4}), true);
  add("mw recon poly past n",
      envelope(MsgType::kMwBatchReconVal, {0, 7}, {Fp(1)}), true);
  add("vote round 0", vote_envelope(MsgType::kAbaBatchVote, {0, 0, 0, 1}),
      false);
  add("vote round past the ceiling",
      vote_envelope(MsgType::kAbaBatchVote,
                    {0, static_cast<int>(kCoinRoundsPerInstance), 0, 1}),
      false);
  add("CONF round 0", vote_envelope(MsgType::kAbaBatchConf, {0, 0, 3}), true);
  add("vote subtype CONF in a direct envelope",
      vote_envelope(MsgType::kAbaBatchVote, {0, 1, 2, 1}), false);
  add("vote subtype out of range",
      vote_envelope(MsgType::kAbaBatchVote, {0, 1, 4, 1}), false);
  // Negative vote instance.
  add("negative vote instance",
      vote_envelope(MsgType::kAbaBatchVote, {0, 1, 0, 1, -3, 1, 0, 1}),
      false);
  add("negative CONF instance",
      vote_envelope(MsgType::kAbaBatchConf, {-1, 1, 3}), true);
  // Coin share envelope of the wrong length.
  add("coin shares one value short",
      with(shares_ok, [](Message& m) { m.vals.pop_back(); }), false);
  add("coin shares one value long",
      with(shares_ok, [](Message& m) { m.vals.push_back(Fp(1)); }), false);
  add("coin shares carrying ints",
      with(shares_ok, [](Message& m) { m.ints = {0}; }), false);
  // G-set blob with trailing bytes.
  add("coin G-set trailing byte",
      with(gset_ok, [](Message& m) { m.blob.push_back(0); }), true);
  add("coin G-set member list past n",
      with(gset_ok,
           [](Message& m) {
             Writer big;
             for (int j = 0; j < 4; ++j) {
               big.int_vec({0, 1, 2, 3, 0});
               big.bytes({});
             }
             m.blob = big.data();
           }),
      true);
  return rows;
}

TEST(BatchCodec, WellFormedBaselinesUnpack) {
  // The rows above are one-field mutations of these envelopes, so each
  // row's rejection is down to its mutation.
  const int echo = static_cast<int>(MsgType::kMwEchoVal);
  EXPECT_EQ(unpack_all(vote_envelope(MsgType::kAbaBatchVote,
                                     {0, 1, 0, 1, 1, 2, 1, 0}),
                       false)
                .size(),
            2u);
  EXPECT_EQ(unpack_all(vote_envelope(MsgType::kAbaBatchConf, {0, 1, 3}), true)
                .size(),
            1u);
  EXPECT_EQ(
      unpack_all(envelope(MsgType::kMwBatchDirect, {echo, 0, 1}, {Fp(1)}),
                 false)
          .size(),
      1u);
  Message shares = coin_envelope(MsgType::kSvssBatchShares);
  shares.vals.assign(4 * 4, Fp(1));
  EXPECT_EQ(unpack_all(shares, false).size(), 4u);
  Writer w;
  for (int j = 0; j < 4; ++j) {
    w.int_vec({0, 1, 2});
    w.bytes({});
  }
  Message gset = coin_envelope(MsgType::kSvssBatchGset);
  gset.blob = w.data();
  EXPECT_EQ(unpack_all(gset, true).size(), 4u);
}

TEST(BatchCodec, MalformedEnvelopesDeliverNothing) {
  for (const Malformed& row : malformed_rows()) {
    EXPECT_TRUE(unpack_all(row.env, row.via_rb).empty()) << row.name;
  }
}

// ---------------------------------------------------------------------
// Pooled unpack: one Batcher decodes every envelope into the same slots
// ---------------------------------------------------------------------

// A receiver that keeps one Batcher across envelopes.  on_sub, if set,
// runs inside deliver_sub, after the sub is recorded.
struct PooledReceiver : BatchHost {
  ProcessWorld world{0, 4, 1};
  Context ctx{world};
  Batcher rx{*this, /*self=*/0, /*n=*/4, /*t=*/1, kAllBatched};
  std::vector<Message> subs;
  std::function<void(const Message&)> on_sub;

  std::vector<Message> unpack(const Message& env, bool via_rb) {
    subs.clear();
    rx.unpack(ctx, /*sender=*/2, env, via_rb);
    return subs;
  }
  void emit_direct(Context&, int, Message) override {}
  void emit_rb(Context&, const Message&) override {}
  void deliver_sub(Context&, int, const Message& sub, bool) override {
    subs.push_back(sub);
    if (on_sub) on_sub(sub);
  }
};

TEST(PooledUnpack, ReusedSlotsCarryNoEarlierField) {
  // A longer envelope first fills slots with a, vals, ints and blob; each
  // later, shorter envelope must unpack exactly as on a fresh Batcher.
  PooledReceiver rx;
  const int echo = static_cast<int>(MsgType::kMwEchoVal);
  const Message recon = envelope(MsgType::kMwBatchReconVal,
                                 {0, 1, 1, 2, 2, 3, 3, 0},
                                 {Fp(5), Fp(6), Fp(7), Fp(8)});
  const Message lset =
      envelope(MsgType::kMwBatchLset, {0, 3, 0, 1, 2, 1, 2, 1, 3});
  const Message direct = envelope(MsgType::kMwBatchDirect,
                                  {echo, 0, 2, echo, 1, 1},
                                  {Fp(1), Fp(2), Fp(3)});
  const Message ack = envelope(MsgType::kMwBatchAck, {3, 0});
  Writer w;
  for (int j = 0; j < 4; ++j) {
    w.int_vec({0, 1, 2});
    w.bytes({0xAB, static_cast<std::uint8_t>(j)});
  }
  Message gset = coin_envelope(MsgType::kSvssBatchGset);
  gset.blob = w.data();
  const Message votes =
      vote_envelope(MsgType::kAbaBatchVote, {0, 1, 0, 1, 1, 2, 1, 0});

  EXPECT_EQ(rx.unpack(gset, true).size(), 4u);
  EXPECT_EQ(rx.unpack(recon, true).size(), 4u);
  EXPECT_EQ(rx.unpack(lset, true).size(), 2u);
  const std::vector<Message> acks = rx.unpack(ack, true);
  ASSERT_EQ(acks.size(), 2u);
  for (const Message& m : acks) {
    EXPECT_EQ(m.type, MsgType::kMwAck);
    EXPECT_EQ(m.a, -1);  // not the ReconVal's poly index
    EXPECT_EQ(m.b, -1);
    EXPECT_TRUE(m.vals.empty());
    EXPECT_TRUE(m.ints.empty());
    EXPECT_TRUE(m.blob.empty());
  }
  EXPECT_EQ(acks, unpack_all(ack, true));
  EXPECT_EQ(rx.unpack(recon, true), unpack_all(recon, true));
  EXPECT_EQ(rx.unpack(direct, false), unpack_all(direct, false));
  EXPECT_EQ(rx.unpack(votes, false), unpack_all(votes, false));
  EXPECT_EQ(rx.unpack(lset, true), unpack_all(lset, true));
}

TEST(PooledUnpack, MalformedEnvelopeAfterGoodOnesDeliversNothing) {
  // Slots already hold the subs of earlier envelopes; a malformed one
  // that decodes a valid prefix into them still delivers none.
  PooledReceiver rx;
  const Message ack = envelope(MsgType::kMwBatchAck, {0, 1, 2, 3});
  ASSERT_EQ(rx.unpack(ack, true).size(), 4u);
  EXPECT_TRUE(rx.unpack(envelope(MsgType::kMwBatchAck, {0, 1, 1}), true)
                  .empty());
  for (const Malformed& row : malformed_rows()) {
    ASSERT_EQ(rx.unpack(ack, true).size(), 4u);
    EXPECT_TRUE(rx.unpack(row.env, row.via_rb).empty()) << row.name;
  }
}

TEST(PooledUnpack, NestedUnpackLeavesOuterSubsIntact) {
  // The first sub of the outer envelope unpacks another envelope from
  // inside its delivery, as a sub's cascade can; the outer subs after it
  // must arrive unchanged.
  PooledReceiver rx;
  const Message outer = envelope(MsgType::kMwBatchReconVal,
                                 {0, 1, 1, 2, 2, 3},
                                 {Fp(5), Fp(6), Fp(7)});
  const Message inner = envelope(MsgType::kMwBatchLset,
                                 {0, 3, 0, 1, 2, 1, 2, 1, 3, 2, 1, 0, 3, 1, 2});
  const std::vector<Message> outer_subs = unpack_all(outer, true);
  const std::vector<Message> inner_subs = unpack_all(inner, true);
  ASSERT_EQ(outer_subs.size(), 3u);
  ASSERT_EQ(inner_subs.size(), 4u);
  bool nested = false;
  rx.on_sub = [&](const Message&) {
    if (nested) return;
    nested = true;
    rx.rx.unpack(rx.ctx, /*sender=*/2, inner, /*via_rb=*/true);
  };
  const std::vector<Message> got = rx.unpack(outer, true);
  std::vector<Message> want = {outer_subs[0]};
  want.insert(want.end(), inner_subs.begin(), inner_subs.end());
  want.insert(want.end(), outer_subs.begin() + 1, outer_subs.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace svss
