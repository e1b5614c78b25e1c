// Byzantine-resistance regression tests for the rejoin catch-up handshake
// (DaemonService, core/daemon.hpp).
//
// The harness plays catch-up peers with raw TCP sockets: each "peer" dials
// the daemon's listener, identifies itself with a HELLO frame, and injects
// hand-crafted kEpochCatchupState frames.  That exercises the exact attack
// surface a Byzantine fleet member has — the daemon cannot tell these
// sockets from real peers.  Pinned behaviours (each failed pre-hardening):
//
//  * an epoch is re-entered only on t+1 *byte-identical* configs — t+1
//    reports of the same epoch id with divergent configs (one forged)
//    must not install anything;
//  * a reply whose config does not describe the epoch it claims to be
//    current is dropped whole;
//  * state frames outside an in-flight catch_up() are ignored entirely
//    (no tallies, no metering), so unsolicited frames can neither grow
//    the vote maps nor pre-stuff a quorum;
//  * a decision adopted while the journal cannot append is folded into a
//    checkpoint instead of landing behind a torn journal entry;
//  * a daemon whose adopted epoch leaves it out becomes a spectator:
//    node(), ctx() and submit() throw instead of dereferencing a missing
//    Node, and the control plane still answers.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "net/frame.hpp"

namespace svss {
namespace {

std::uint16_t reserve_dead_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return 0;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  ::close(fd);
  return ntohs(bound.sin_port);
}

// A raw socket speaking just enough of the wire protocol to impersonate a
// fleet member on the daemon's inbound leg.
struct FakePeer {
  int fd = -1;

  bool dial(std::uint16_t port, int id) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    Bytes out;
    net::append_hello_frame(out, id);
    return send_all(out);
  }

  bool send_state(int owner, std::uint32_t current_epoch,
                  const EpochConfig& cfg,
                  const std::vector<DecisionRecord>& recs) {
    Message m;
    m.type = MsgType::kEpochCatchupState;
    m.sid.owner = static_cast<std::int16_t>(owner);
    m.blob = encode_catchup_state(current_epoch, cfg, recs);
    Bytes out;
    net::append_packet_frame(out, make_direct(std::move(m)));
    return send_all(out);
  }

  bool send_all(const Bytes& b) {
    std::size_t off = 0;
    while (off < b.size()) {
      ssize_t w = ::write(fd, b.data() + off, b.size() - off);
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  ~FakePeer() {
    if (fd >= 0) ::close(fd);
  }
};

EpochConfig full_config(std::uint32_t epoch) {
  EpochConfig cfg;
  cfg.epoch = epoch;
  cfg.members = {0, 1, 2, 3};
  cfg.t = 1;
  return cfg;
}

// A 4-node daemon (t = 1) whose three peers are reserved-but-dead ports,
// so every inbound frame comes from the FakePeers.
DaemonService make_daemon() {
  net::ClusterConfig cluster;
  cluster.peers.push_back(net::Endpoint{"127.0.0.1", 0});
  for (int i = 0; i < 3; ++i) {
    std::uint16_t port = reserve_dead_port();
    EXPECT_NE(port, 0);
    cluster.peers.push_back(net::Endpoint{"127.0.0.1", port});
  }
  return DaemonService(0, std::move(cluster), /*seed=*/11);
}

// Never-decided instance id used to keep catch_up polling its full
// timeout (so pre-queued frames are definitely ingested).
constexpr std::uint32_t kUndecidable = 99;

TEST(CatchUp, EpochIdQuorumWithDivergentConfigsInstallsNothing) {
  DaemonService svc = make_daemon();
  ASSERT_TRUE(svc.start());

  // t+1 = 2 reporters agree on *epoch id* 1, but one of them forges the
  // membership.  Pre-hardening the tally was keyed by epoch id and kept
  // the last reporter's config, so this installed an attacker config.
  EpochConfig forged;
  forged.epoch = 1;
  forged.members = {0, 2};
  forged.t = 0;

  FakePeer honest, attacker;
  ASSERT_TRUE(honest.dial(svc.transport().bound_port(), 1));
  ASSERT_TRUE(attacker.dial(svc.transport().bound_port(), 2));
  ASSERT_TRUE(honest.send_state(1, 1, full_config(1), {}));
  ASSERT_TRUE(attacker.send_state(2, 1, forged, {}));

  EXPECT_FALSE(svc.catch_up({kUndecidable}, 1200));
  EXPECT_EQ(svc.current_epoch(), 0u)
      << "epoch advanced without t+1 identical configs";
  svc.shutdown();
}

TEST(CatchUp, IdenticalConfigQuorumAdvancesPastLoneForgery) {
  DaemonService svc = make_daemon();
  ASSERT_TRUE(svc.start());

  EpochConfig truth = full_config(1);
  EpochConfig forged;  // a lone claim of an even newer epoch
  forged.epoch = 2;
  forged.members = {0, 3};
  forged.t = 0;

  FakePeer p1, p2, p3;
  ASSERT_TRUE(p1.dial(svc.transport().bound_port(), 1));
  ASSERT_TRUE(p2.dial(svc.transport().bound_port(), 2));
  ASSERT_TRUE(p3.dial(svc.transport().bound_port(), 3));
  ASSERT_TRUE(p1.send_state(1, 1, truth, {}));
  ASSERT_TRUE(p2.send_state(2, 1, truth, {}));
  ASSERT_TRUE(p3.send_state(3, 2, forged, {}));

  svc.catch_up({kUndecidable}, 1200);
  EXPECT_EQ(svc.current_epoch(), 1u);
  EXPECT_EQ(svc.epoch_transport().config(), truth);
  svc.shutdown();
}

TEST(CatchUp, ConfigClaimingWrongEpochIsDropped) {
  DaemonService svc = make_daemon();
  ASSERT_TRUE(svc.start());

  // Both reports are identical — but the config describes epoch 2 while
  // the reply claims epoch 1 is current.  The whole reply is dropped
  // before any tally or metering.
  EpochConfig mismatched = full_config(2);

  FakePeer p1, p2;
  ASSERT_TRUE(p1.dial(svc.transport().bound_port(), 1));
  ASSERT_TRUE(p2.dial(svc.transport().bound_port(), 2));
  ASSERT_TRUE(p1.send_state(1, 1, mismatched, {}));
  ASSERT_TRUE(p2.send_state(2, 1, mismatched, {}));

  EXPECT_FALSE(svc.catch_up({kUndecidable}, 1200));
  EXPECT_EQ(svc.current_epoch(), 0u);
  EXPECT_EQ(svc.catchup_frames(), 0u);
  svc.shutdown();
}

TEST(CatchUp, UnsolicitedStateFramesAreIgnored) {
  DaemonService svc = make_daemon();
  ASSERT_TRUE(svc.start());

  DecisionRecord rec{0, 5, 1, 2};
  FakePeer p1, p2;
  ASSERT_TRUE(p1.dial(svc.transport().bound_port(), 1));
  ASSERT_TRUE(p2.dial(svc.transport().bound_port(), 2));
  ASSERT_TRUE(p1.send_state(1, 0, full_config(0), {rec}));
  ASSERT_TRUE(p2.send_state(2, 0, full_config(0), {rec}));

  // No catch_up in flight: the daemon polls, ingests, and must drop both
  // frames on the floor — no adoption, no tallies, no metering.
  svc.run_until([] { return false; }, 400);
  EXPECT_FALSE(svc.decision(5).has_value())
      << "unsolicited state reports were tallied";
  EXPECT_EQ(svc.catchup_frames(), 0u);
  svc.shutdown();
}

TEST(CatchUp, ValueQuorumAdoptsAndJournalFailureFoldsIntoCheckpoint) {
  std::string ckpt = ::testing::TempDir() + "svss_catchup_ckpt";
  std::string journal = ckpt + ".journal";
  std::remove(ckpt.c_str());
  std::remove(journal.c_str());
  // Point the journal at /dev/full: open succeeds, every append's flush
  // fails — the decision must become durable via the checkpoint instead
  // of vanishing behind a torn journal tail.
  bool dev_full = ::symlink("/dev/full", journal.c_str()) == 0;

  DaemonService svc = make_daemon();
  svc.enable_recovery(ckpt);
  ASSERT_TRUE(svc.start());

  DecisionRecord rec{0, 5, 1, 2};
  DecisionRecord lie{0, 5, 0, 2};  // minority report of the other value
  FakePeer p1, p2, p3;
  ASSERT_TRUE(p1.dial(svc.transport().bound_port(), 1));
  ASSERT_TRUE(p2.dial(svc.transport().bound_port(), 2));
  ASSERT_TRUE(p3.dial(svc.transport().bound_port(), 3));
  ASSERT_TRUE(p1.send_state(1, 0, full_config(0), {rec}));
  ASSERT_TRUE(p3.send_state(3, 0, full_config(0), {lie}));
  ASSERT_TRUE(p2.send_state(2, 0, full_config(0), {rec}));

  EXPECT_TRUE(svc.catch_up({5}, 5000));
  ASSERT_TRUE(svc.decision(5).has_value());
  EXPECT_EQ(*svc.decision(5), 1) << "minority value adopted";
  svc.shutdown();

  if (dev_full) {
    auto cp = load_checkpoint(ckpt);
    ASSERT_TRUE(cp.has_value())
        << "journal append failed silently; decision not durable";
    ASSERT_EQ(cp->decisions.size(), 1u);
    EXPECT_EQ(cp->decisions[0], rec);
    std::remove(journal.c_str());
  }
  std::remove(ckpt.c_str());
}

TEST(CatchUp, EpochExcludingThisSlotLeavesASpectator) {
  DaemonService svc = make_daemon();
  ASSERT_TRUE(svc.start());
  ASSERT_TRUE(svc.is_member());

  // t+1 = 2 peers report the same epoch 1, which drops slot 0.
  EpochConfig without_me;
  without_me.epoch = 1;
  without_me.members = {1, 2, 3};
  without_me.t = 0;

  FakePeer p1, p2;
  ASSERT_TRUE(p1.dial(svc.transport().bound_port(), 1));
  ASSERT_TRUE(p2.dial(svc.transport().bound_port(), 2));
  ASSERT_TRUE(p1.send_state(1, 1, without_me, {}));
  ASSERT_TRUE(p2.send_state(2, 1, without_me, {}));

  svc.catch_up({kUndecidable}, 1200);
  ASSERT_EQ(svc.current_epoch(), 1u);
  EXPECT_FALSE(svc.is_member());
  EXPECT_THROW(svc.submit(5, 1), std::logic_error);
  EXPECT_THROW(svc.node(), std::logic_error);
  EXPECT_THROW(svc.ctx(), std::logic_error);
  // The catch-up control plane still runs on a spectator.
  EXPECT_FALSE(svc.catch_up({kUndecidable}, 200));
  svc.shutdown();
}

}  // namespace
}  // namespace svss
