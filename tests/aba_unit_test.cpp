// Step-level unit tests for the agreement round machinery: BV-broadcast
// thresholds, AUX justification, CONF tier rules, coin fallback, and
// DECIDE aggregation — driven through a mock host.  The last group drives
// a real Node to pin how it joins SVSS coin rounds on peer contact.
#include <gtest/gtest.h>

#include "aba/aba.hpp"
#include "coin/coin.hpp"
#include "core/node.hpp"
#include "sim/scheduler.hpp"

namespace svss {
namespace {

class Noop : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet&) override {}
};

class MockAbaHost : public AbaHost {
 public:
  void rb_broadcast(Context&, const Message& m) override {
    broadcasts.push_back(m);
  }
  void send_direct(Context&, int to, const Message& m) override {
    directs.emplace_back(to, m);
  }
  void start_coin(Context&, std::uint32_t instance,
                  std::uint32_t round) override {
    coin_requests.emplace_back(instance, round);
  }
  void aba_entered_round(Context&, std::uint32_t instance,
                         std::uint32_t round) override {
    entered.emplace_back(instance, round);
  }
  void aba_decided(Context&, int value, std::uint32_t round,
                   std::uint32_t instance) override {
    decided_value = value;
    decided_round = round;
    decided_instance = instance;
  }

  // Messages of a given (subtype, round) sent to process 0 (one per
  // send_all fan-out).
  [[nodiscard]] std::vector<int> sent_values(int subtype,
                                             std::uint32_t round) const {
    std::vector<int> out;
    for (const auto& [to, m] : directs) {
      if (to == 0 && m.b == subtype &&
          static_cast<std::uint32_t>(m.a) == round) {
        out.push_back(m.ints[0]);
      }
    }
    return out;
  }

  std::vector<Message> broadcasts;
  std::vector<std::pair<int, Message>> directs;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> coin_requests;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entered;
  std::optional<int> decided_value;
  std::uint32_t decided_round = 0;
  std::uint32_t decided_instance = 0;
};

struct AbaUnit : public ::testing::Test {
  static constexpr int kN = 4;
  static constexpr int kT = 1;

  AbaUnit() : engine(kN, kT, 3, std::make_unique<FifoScheduler>()) {
    for (int i = 0; i < kN; ++i) engine.set_process(i, std::make_unique<Noop>());
  }

  Message vote(std::uint32_t round, int subtype, int payload) const {
    Message m;
    m.sid = SessionId{SessionPath::kAba, 0, -1, -1, -1, 0, 0};
    m.type = MsgType::kAbaVote;
    m.a = static_cast<std::int16_t>(round);
    m.b = static_cast<std::int16_t>(subtype);
    m.ints.push_back(payload);
    return m;
  }

  Engine engine;
  MockAbaHost host;
};

using RoundKey = std::pair<std::uint32_t, std::uint32_t>;

TEST_F(AbaUnit, StartSendsEstWithoutRequestingSvssCoin) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  s.start(ctx, 1);
  EXPECT_EQ(host.sent_values(0, 1), (std::vector<int>{1}));
  // The SVSS coin is dealt on demand: entering a round only tells the
  // host, it does not start the coin.
  EXPECT_TRUE(host.coin_requests.empty());
  EXPECT_EQ(host.entered, (std::vector<RoundKey>{{0u, 1u}}));
  EXPECT_FALSE(s.snapshot(1).coin_requested);
}

TEST_F(AbaUnit, BvRelaysAtTPlusOneAndAcceptsAtTwoTPlusOne) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 0);  // own EST(0) sent
  // One EST(1) is below the relay threshold.
  s.on_direct(ctx, 1, vote(1, 0, 1));
  EXPECT_TRUE(host.sent_values(0, 1) == (std::vector<int>{0}));
  // Second EST(1): t+1 = 2 -> relay.
  s.on_direct(ctx, 2, vote(1, 0, 1));
  EXPECT_EQ(host.sent_values(0, 1), (std::vector<int>{0, 1}));
  EXPECT_FALSE(s.snapshot(1).bin[1]);
  // Third distinct sender: 2t+1 = 3 -> bin accepts, AUX goes out.
  s.on_direct(ctx, 3, vote(1, 0, 1));
  EXPECT_TRUE(s.snapshot(1).bin[1]);
  EXPECT_TRUE(s.snapshot(1).aux_sent);
}

TEST_F(AbaUnit, AuxRequiresJustifiedValues) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 1);
  // bin = {1} via ESTs (the mock host does not self-deliver, so three
  // peers supply the 2t+1 quorum).
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 1));
  EXPECT_TRUE(s.snapshot(1).bin[1]);
  // AUX(0) from 3 senders, but 0 is not in bin: V must not freeze even
  // though n - t AUX messages are present.
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 1, 0));
  EXPECT_FALSE(s.snapshot(1).v_frozen);
  // Once 0 joins bin, the buffered AUX(0) become justified: V freezes.
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 0));
  EXPECT_TRUE(s.snapshot(1).v_frozen);
  EXPECT_TRUE(s.snapshot(1).conf_sent);
  ASSERT_EQ(host.broadcasts.size(), 1u);
  EXPECT_EQ(host.broadcasts[0].ints[0], 1);  // encode({0}) == 1
}

// Drives a session to the CONF stage with bin = {0, 1}, V = {1}.
void drive_to_conf(Context& ctx, AbaSession& s, AbaUnit& f) {
  s.start(ctx, 1);
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, f.vote(1, 0, 1));
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, f.vote(1, 0, 0));
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, f.vote(1, 1, 1));
}

TEST_F(AbaUnit, ConfSupermajorityDecides) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  drive_to_conf(ctx, s, *this);
  // 2t+1 = 3 CONF {1} singletons: decide 1 in round 1.
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 2));
  ASSERT_TRUE(s.decided());
  EXPECT_EQ(s.decision(), 1);
  EXPECT_EQ(s.decision_round(), 1u);
  EXPECT_EQ(host.decided_value, 1);
  // DECIDE(1) fan-out happened.
  EXPECT_FALSE(host.sent_values(3, 1).empty());
  // The session keeps participating: round 2 EST was sent.
  EXPECT_EQ(s.current_round(), 2u);
}

TEST_F(AbaUnit, ConfMinorityAdoptsWithoutDeciding) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  drive_to_conf(ctx, s, *this);
  // t+1 = 2 singletons {1}, one {0,1}: adopt est = 1, no decision.
  s.on_broadcast(ctx, 1, vote(1, 2, 2));
  s.on_broadcast(ctx, 2, vote(1, 2, 2));
  s.on_broadcast(ctx, 3, vote(1, 2, 3));
  EXPECT_FALSE(s.decided());
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_EQ(host.sent_values(0, 2), (std::vector<int>{1}));  // est carried
}

TEST_F(AbaUnit, NoTierFallsBackToCoin) {
  Context ctx = engine.host(0).ctx();
  // Ideal coin mode: the coin is available synchronously.
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  drive_to_conf(ctx, s, *this);
  // All CONFs are {0,1}: no singleton tier; est := coin, round advances.
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 3));
  EXPECT_FALSE(s.decided());
  EXPECT_EQ(s.current_round(), 2u);
}

TEST_F(AbaUnit, NoSvssCoinRequestWhenTierGivesEstimate) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, s, *this);
  // t+1 = 2 singletons {1}: the estimate comes from the sample.
  s.on_broadcast(ctx, 1, vote(1, 2, 2));
  s.on_broadcast(ctx, 2, vote(1, 2, 2));
  s.on_broadcast(ctx, 3, vote(1, 2, 3));
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_TRUE(host.coin_requests.empty());
  EXPECT_FALSE(s.snapshot(1).coin_requested);
  EXPECT_EQ(host.entered, (std::vector<RoundKey>{{0u, 1u}, {0u, 2u}}));
}

TEST_F(AbaUnit, FallThroughRequestsSvssCoinExactlyOnce) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0, /*instance=*/3);
  drive_to_conf(ctx, s, *this);
  EXPECT_TRUE(host.coin_requests.empty());  // sample not frozen yet
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 3));
  // No tier: exactly one request, namespaced by instance.
  ASSERT_EQ(host.coin_requests.size(), 1u);
  EXPECT_EQ(host.coin_requests[0], (RoundKey{3u, 1u}));
  EXPECT_TRUE(s.snapshot(1).coin_requested);
  // More round-1 traffic while waiting re-runs the tier rule, never the
  // request.
  s.on_broadcast(ctx, 0, vote(1, 2, 3));
  s.on_direct(ctx, 1, vote(1, 0, 1));
  EXPECT_EQ(host.coin_requests.size(), 1u);
  EXPECT_EQ(s.current_round(), 1u);
  // The instance id travels in the session id of every vote.
  for (const auto& [to, m] : host.directs) {
    EXPECT_EQ(m.sid.instance, 3u);
    EXPECT_EQ(m.sid.counter, 0u);
  }
  // Coin results arrive as instance-local rounds (the host dispatches by
  // instance); out-of-range rounds are ignored.
  s.on_coin(ctx, 0, 1);
  s.on_coin(ctx, kCoinRoundsPerInstance, 1);
  EXPECT_FALSE(s.snapshot(1).has_coin);
  s.on_coin(ctx, 1, 1);
  EXPECT_TRUE(s.snapshot(1).has_coin);
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_EQ(host.coin_requests.size(), 1u);
}

TEST_F(AbaUnit, SvssCoinArrivingLateStillAdvances) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, s, *this);
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 3));
  // Frozen without a coin: stuck in round 1 until the coin lands.
  EXPECT_EQ(s.current_round(), 1u);
  EXPECT_TRUE(s.snapshot(1).conf_frozen);
  s.on_coin(ctx, 1, 0);
  EXPECT_EQ(s.current_round(), 2u);
}

TEST_F(AbaUnit, DecideAggregationFromTPlusOneAnnouncements) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 0);
  s.on_direct(ctx, 2, vote(1, 3, 1));
  EXPECT_FALSE(s.decided());
  s.on_direct(ctx, 3, vote(1, 3, 1));  // t+1 = 2 announcements
  ASSERT_TRUE(s.decided());
  EXPECT_EQ(s.decision(), 1);
}

TEST_F(AbaUnit, MalformedVotesIgnored) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 1);
  s.on_direct(ctx, 1, vote(1, 0, 7));       // non-binary value
  s.on_direct(ctx, 1, vote(0, 0, 1));       // round 0
  s.on_broadcast(ctx, 1, vote(1, 2, 0));    // CONF code 0 invalid
  s.on_broadcast(ctx, 1, vote(1, 2, 9));    // CONF code out of range
  auto snap = s.snapshot(1);
  // No valid vote was recorded (the mock host does not self-deliver).
  EXPECT_EQ(snap.est_senders[0] + snap.est_senders[1], 0u);
  EXPECT_EQ(snap.conf_senders, 0u);
}

// kLocal and kIdealCommon keep drawing their coin at round entry, and never
// involve the host's coin hooks.
TEST_F(AbaUnit, LocalCoinModeSuppliesCoinImmediately) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kLocal, 0);
  s.start(ctx, 0);
  EXPECT_TRUE(s.snapshot(1).has_coin);
  EXPECT_TRUE(host.coin_requests.empty());
  EXPECT_TRUE(host.entered.empty());
}

TEST_F(AbaUnit, IdealCoinModeSuppliesCoinAtEveryRoundEntry) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7, /*instance=*/2);
  drive_to_conf(ctx, s, *this);
  EXPECT_TRUE(s.snapshot(1).has_coin);
  for (int from : {1, 2, 3}) s.on_broadcast(ctx, from, vote(1, 2, 3));
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_TRUE(s.snapshot(2).has_coin);
  EXPECT_FALSE(s.snapshot(1).coin_requested);
  EXPECT_TRUE(host.coin_requests.empty());
  EXPECT_TRUE(host.entered.empty());
}

// ------------------------------------------------------------------
// Hostile votes: what a faulty peer can put on the wire
// ------------------------------------------------------------------
TEST_F(AbaUnit, SecondAuxFromOneSenderIsIgnored) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 1);
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 1));
  // Sender 1's first AUX is 0, not in bin; its second, AUX(1), must not
  // replace it.  Counted, it would complete the n - t = 3 quota.
  s.on_direct(ctx, 1, vote(1, 1, 0));
  s.on_direct(ctx, 1, vote(1, 1, 1));
  for (int from : {2, 3}) s.on_direct(ctx, from, vote(1, 1, 1));
  EXPECT_EQ(s.snapshot(1).aux_senders, 3u);
  EXPECT_FALSE(s.snapshot(1).v_frozen);
  // Once 0 joins bin, sender 1's first AUX is justified: V = {0, 1}.
  for (int from : {1, 2, 3}) s.on_direct(ctx, from, vote(1, 0, 0));
  EXPECT_TRUE(s.snapshot(1).v_frozen);
  ASSERT_EQ(host.broadcasts.size(), 1u);
  EXPECT_EQ(host.broadcasts[0].ints[0], 3);
}

TEST_F(AbaUnit, SecondConfFromOneOriginIsIgnored) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  drive_to_conf(ctx, s, *this);
  // Origin 1's first CONF is {1}; its second, {0}, must not count as a
  // further sample entry nor replace the first.
  s.on_broadcast(ctx, 1, vote(1, 2, 2));
  s.on_broadcast(ctx, 1, vote(1, 2, 1));
  s.on_broadcast(ctx, 2, vote(1, 2, 3));
  EXPECT_EQ(s.snapshot(1).conf_senders, 2u);
  EXPECT_FALSE(s.snapshot(1).conf_frozen);
  // Third origin: the sample holds {1}, {0,1}, {1}, so t + 1 singletons
  // {1} give the estimate; a replaced first CONF would leave one {0} and
  // one {1} and fall through to the coin.
  s.on_broadcast(ctx, 3, vote(1, 2, 2));
  EXPECT_TRUE(host.coin_requests.empty());
  EXPECT_FALSE(s.decided());
  EXPECT_EQ(s.current_round(), 2u);
  EXPECT_EQ(host.sent_values(0, 2), (std::vector<int>{1}));
}

TEST_F(AbaUnit, OutOfRangeCodesValuesAndIdsAreDropped) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kIdealCommon, 7);
  s.start(ctx, 1);
  for (int code : {-1, 0, 4, 7}) s.on_broadcast(ctx, 1, vote(1, 2, code));
  for (int subtype : {0, 1, 3}) {
    for (int v : {-1, 2}) s.on_direct(ctx, 1, vote(1, subtype, v));
  }
  s.on_direct(ctx, 1, vote(1, 7, 1));  // no such subtype
  for (int id : {-1, kN, 63, 64, 127, 128, 1000}) {
    s.on_direct(ctx, id, vote(1, 0, 1));
    s.on_direct(ctx, id, vote(1, 1, 1));
    s.on_direct(ctx, id, vote(1, 3, 1));
    s.on_broadcast(ctx, id, vote(1, 2, 2));
  }
  auto snap = s.snapshot(1);
  EXPECT_EQ(snap.est_senders[0] + snap.est_senders[1], 0u);
  EXPECT_EQ(snap.aux_senders, 0u);
  EXPECT_EQ(snap.conf_senders, 0u);
  // Seven out-of-range DECIDE(1) senders are well past t + 1.
  EXPECT_FALSE(s.decided());
  EXPECT_EQ(s.round_records(), 1u);
}

TEST_F(AbaUnit, VotesNamingFutureRoundsCreateOneRecordPerRound) {
  Context ctx = engine.host(0).ctx();
  AbaSession s(host, 0, kN, kT, CoinMode::kSvss, 0);
  const std::uint32_t rounds[] = {4095, 17, 3, 900, 2};
  for (std::uint32_t r : rounds) {
    for (int from : {1, 2, 3}) {
      s.on_direct(ctx, from, vote(r, 0, 1));
      s.on_direct(ctx, from, vote(r, 1, 0));
      s.on_broadcast(ctx, from, vote(r, 2, 3));
    }
    s.on_coin(ctx, r, 1);
  }
  // Rounds outside [1, kCoinRoundsPerInstance) name no record at all.
  for (std::uint32_t r : {0u, kCoinRoundsPerInstance, 32767u}) {
    s.on_direct(ctx, 1, vote(r, 0, 1));
    s.on_broadcast(ctx, 1, vote(r, 2, 2));
    s.on_coin(ctx, r, 1);
  }
  EXPECT_EQ(s.round_records(), std::size(rounds));
  EXPECT_EQ(s.snapshot(900).est_senders[1], 3u);
  EXPECT_EQ(s.snapshot(4095).conf_senders, 3u);
  EXPECT_TRUE(s.snapshot(17).has_coin);
  EXPECT_EQ(s.snapshot(18).est_senders[1], 0u);
  // Starting uses round 1's record, the first the session needed itself.
  s.start(ctx, 0);
  EXPECT_EQ(s.round_records(), std::size(rounds) + 1);
}

// ------------------------------------------------------------------
// Node: joining an SVSS coin round on peer contact
// ------------------------------------------------------------------
struct CoinJoin : public AbaUnit {
  static constexpr BatchFraming kBatched{true, true, true};
  // A direct message of peer 1's SVSS-coin session for (instance, round).
  // The payload is malformed on purpose: contact is about the session id
  // passing the DMM filter, not about the session accepting the message.
  static Packet contact(std::uint32_t instance, std::uint32_t round) {
    Message m;
    m.sid = coin_svss_id(round, /*dealer=*/1, /*attachee=*/0, instance);
    m.type = MsgType::kSvssDealerShares;
    return make_direct(std::move(m));
  }
  // The same round reached through a nested MW-SVSS child of that session.
  static Packet mw_contact(std::uint32_t instance, std::uint32_t round) {
    SessionId parent = coin_svss_id(round, /*dealer=*/1, /*attachee=*/0,
                                    instance);
    Message m;
    m.sid = SessionId{SessionPath::kMwInSvssCoin, 0, /*owner=*/1,
                      /*moderator=*/2, parent.owner, parent.counter,
                      instance};
    m.type = MsgType::kMwDealerShares;
    return make_direct(std::move(m));
  }
  static bool joined(const Node& node, std::uint32_t instance,
                     std::uint32_t round) {
    const CoinSession* c = node.find_coin(instance, round);
    return c != nullptr && c->started();
  }
};

TEST_F(CoinJoin, JoinsAtOnceWhenRoundAlreadyEntered) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  node.start_aba(ctx, 1, CoinMode::kSvss, 0, /*instance=*/5);
  EXPECT_FALSE(joined(node, 5, 1));  // entering round 1 deals nothing
  node.on_packet(ctx, 1, contact(5, 1));
  EXPECT_TRUE(joined(node, 5, 1));
  // Joining deals this process's n secrets for the round.
  for (int j = 0; j < kN; ++j) {
    EXPECT_NE(node.find_svss(coin_svss_id(1, 0, j, 5)), nullptr) << j;
  }
}

TEST_F(CoinJoin, NestedMwTrafficCountsAsContact) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  node.start_aba(ctx, 1, CoinMode::kSvss);
  node.on_packet(ctx, 1, mw_contact(0, 1));
  EXPECT_TRUE(joined(node, 0, 1));
}

TEST_F(CoinJoin, EarlyContactJoinsOnRoundEntry) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  // Peers dealt coin round 1 of instance 2 before this process started
  // the instance: remembered, not acted on.
  node.on_packet(ctx, 1, contact(2, 1));
  EXPECT_FALSE(joined(node, 2, 1));
  node.start_aba(ctx, 0, CoinMode::kSvss, 0, /*instance=*/2);
  EXPECT_TRUE(joined(node, 2, 1));
}

TEST_F(CoinJoin, ContactForUnenteredRoundStartsNothing) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  node.start_aba(ctx, 1, CoinMode::kSvss);
  // A faulty peer cannot pull coins ahead of the agreement: rounds this
  // instance has not entered, instances it never started, and round ids
  // outside the instance's range deal nothing.
  for (std::uint32_t r : {2u, 3u, 100u}) node.on_packet(ctx, 3, contact(0, r));
  node.on_packet(ctx, 3, contact(9, 1));
  node.on_packet(ctx, 3, contact(0, kCoinRoundsPerInstance));
  for (std::uint32_t r : {2u, 3u, 100u}) EXPECT_FALSE(joined(node, 0, r)) << r;
  EXPECT_FALSE(joined(node, 9, 1));
  EXPECT_FALSE(joined(node, 0, kCoinRoundsPerInstance));
  EXPECT_FALSE(joined(node, 0, 1));
}

TEST_F(CoinJoin, CoinBroadcastPastTheRoundBoundCreatesNoSession) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  // An RB-delivered kCoin broadcast of a reachable round opens that
  // round's session; one past the agreement's round bound opens nothing.
  for (std::uint32_t r : {2u, 5000u}) {
    Message m;
    m.sid = coin_sid(r, /*instance=*/0);
    m.type = MsgType::kCoinGset;
    node.deliver_sub(ctx, 3, m, /*via_rb=*/true);
  }
  EXPECT_NE(node.find_coin(0, 2), nullptr);
  EXPECT_EQ(node.find_coin(0, 5000), nullptr);
}

TEST_F(CoinJoin, AbaVoteWithStraySidFieldsCountsInItsInstance) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  node.start_aba(ctx, 0, CoinMode::kIdealCommon, 7, /*instance=*/3);
  // EST(1) votes whose sids carry an owner or counter the canonical
  // aba_sid(3) lacks still land in instance 3.
  Message m = vote(1, 0, 1);
  m.sid.instance = 3;
  m.sid.owner = 2;
  node.on_packet(ctx, 1, make_direct(m));
  m.sid.owner = -1;
  m.sid.counter = 9;
  node.on_packet(ctx, 2, make_direct(m));
  ASSERT_NE(node.aba(3), nullptr);
  EXPECT_EQ(node.aba(3)->snapshot(1).est_senders[1], 2u);
}

TEST_F(CoinJoin, IdealCoinInstanceIgnoresContact) {
  Context ctx = engine.host(0).ctx();
  Node node(0, kN, kT, kBatched);
  node.start_aba(ctx, 1, CoinMode::kIdealCommon, 7);
  node.on_packet(ctx, 1, contact(0, 1));
  EXPECT_FALSE(joined(node, 0, 1));
}

}  // namespace
}  // namespace svss
