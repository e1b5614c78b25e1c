// Reconnect-under-partial-write regression test.
//
// A SocketTransport that loses its connection mid-frame must resend from
// the last *frame boundary*, not from the flushed byte offset: the new
// connection's receiver starts a fresh frame stream, so a resumed frame
// tail would be parsed as a length prefix and latch a stream error.
//
// The harness plays the remote peer with a raw listening socket whose
// receive buffer is tiny and which never drains the first connection, so
// an oversized frame is guaranteed to stall mid-frame in flush_out.  It
// then closes the connection (the transport drops and re-dials) and
// replays the *second* connection's byte stream through a FrameDecoder:
// post-fix the stream is HELLO + the complete oversized frame + a trailer
// frame; pre-fix it is HELLO + a frame tail whose 0xFF filler reads as an
// undelimitable length prefix (decoder.broken()).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "net/frame.hpp"
#include "net/socket_transport.hpp"

namespace svss::net {
namespace {

using Clock = std::chrono::steady_clock;

// Listener with a deliberately tiny receive buffer (inherited by accepted
// connections), so the dialer's kernel send buffer fills and write() hits
// EAGAIN mid-frame.
struct RawListener {
  int fd = -1;
  std::uint16_t port = 0;

  bool open(std::uint16_t want_port = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int rcv = 4096;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv));
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(want_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return false;
    }
    if (::listen(fd, 8) < 0) return false;
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      return false;
    }
    port = ntohs(bound.sin_port);
    // Nonblocking so the test can interleave accept with transport polls.
    fcntl(fd, F_SETFL, O_NONBLOCK);
    return true;
  }

  // Polls the transport until a connection arrives (or deadline).
  int accept_with(SocketTransport& t, int timeout_ms) {
    auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
      int c = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (c >= 0) return c;
      t.poll(5);
    }
    return -1;
  }

  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
};

Packet test_packet(std::uint32_t counter, std::size_t blob_bytes) {
  Message m;
  m.sid = SessionId{SessionPath::kTest, 0, -1, -1, -1, counter};
  m.type = MsgType::kTestPayload;
  // 0xFF filler: if a resend ever resumes mid-frame, the receiver reads
  // four of these as a length prefix (0xFFFFFFFF > kMaxFrameBytes) and
  // must latch a stream error — making the pre-fix failure deterministic.
  m.blob.assign(blob_bytes, 0xFF);
  return make_direct(std::move(m));
}

TEST(SocketReconnect, ResendsFromFrameBoundaryAfterMidFrameDrop) {
  RawListener peer;
  ASSERT_TRUE(peer.open());

  ClusterConfig cfg;
  cfg.peers = {Endpoint{"127.0.0.1", 0},          // transport's own listener
               Endpoint{"127.0.0.1", peer.port}}; // the raw peer
  SocketTransport t(0, cfg);
  ASSERT_TRUE(t.open());

  // One frame far larger than any kernel send buffer plus a 4K receive
  // buffer (but under kMaxFrameBytes), so flush_out must stall inside it,
  // and a small trailer behind it that checks stream sync end-to-end.
  const std::size_t kBig = 8u << 20;
  Packet big = test_packet(1, kBig);
  Packet trailer = test_packet(2, 32);
  t.send(1, big);
  t.send(1, trailer);

  // First connection: let the transport write until its send buffer jams
  // mid-frame, then confirm bytes actually flowed and cut the connection.
  int c1 = peer.accept_with(t, 5000);
  ASSERT_GE(c1, 0);
  for (int i = 0; i < 50; ++i) t.poll(2);
  std::uint8_t probe[1024];
  ssize_t got = ::read(c1, probe, sizeof(probe));
  ASSERT_GT(got, 0) << "transport wrote nothing on the first connection";
  ::close(c1);

  // Second connection (transport re-dials after ~100ms backoff): replay
  // its entire stream through a FrameDecoder and demand a clean resend.
  int c2 = peer.accept_with(t, 5000);
  ASSERT_GE(c2, 0);

  FrameDecoder dec;
  std::vector<Frame> frames;
  const std::size_t kWant = 3;  // HELLO + big + trailer
  auto deadline = Clock::now() + std::chrono::seconds(30);
  std::vector<std::uint8_t> chunk(1u << 16);
  while (frames.size() < kWant && !dec.broken() && Clock::now() < deadline) {
    t.poll(2);
    for (;;) {
      ssize_t r = ::read(c2, chunk.data(), chunk.size());
      if (r <= 0) break;
      ASSERT_TRUE(dec.feed(chunk.data(), static_cast<std::size_t>(r)) ||
                  dec.broken());
      while (auto f = dec.next()) frames.push_back(std::move(*f));
      if (dec.broken()) break;
    }
  }
  ::close(c2);

  // Pre-fix, the resumed frame tail desyncs the stream right after HELLO.
  EXPECT_FALSE(dec.broken())
      << "receiver latched a stream error: resend resumed mid-frame";
  ASSERT_EQ(frames.size(), kWant);

  auto hello = decode_hello(frames[0], cfg.n());
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(*hello, 0);

  auto p1 = decode_packet(frames[1]);
  ASSERT_TRUE(p1.has_value());
  EXPECT_FALSE(p1->is_rb);
  EXPECT_EQ(p1->app, big.app) << "oversized frame did not survive resend";

  auto p2 = decode_packet(frames[2]);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->app, trailer.app);
}

}  // namespace

// Reserves a loopback port nobody listens on: connects to it are refused,
// so a transport dialing it keeps its outbound queue forever.  Outside the
// anonymous namespace so the daemon-shutdown test below can reuse it.
std::uint16_t free_port() {
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

namespace {

// While a peer is down, the outbound queue must stay bounded: whole oldest
// frames are shed at the configured cap (never a partial frame, never the
// newest), the shed bytes are metered, and once the peer comes back the
// surviving stream still decodes cleanly end-to-end.  Pre-cap, pending
// bytes grew without bound and the <= cap assertion fails.
TEST(SocketReconnect, CapsOutboundQueueWhilePeerDown) {
  std::uint16_t dead_port = free_port();
  ASSERT_NE(dead_port, 0);

  ClusterConfig cfg;
  cfg.peers = {Endpoint{"127.0.0.1", 0}, Endpoint{"127.0.0.1", dead_port}};
  SocketTransport t(0, cfg);
  ASSERT_TRUE(t.open());
  const std::size_t kCap = 8192;
  t.set_out_buffer_cap(kCap);

  // ~300-byte frames, far more than the cap's worth; poll between bursts
  // so dials actually fail (refused) and the queue is what the cap sees.
  const std::uint32_t kCount = 500;
  std::size_t queued_bytes = 0;
  for (std::uint32_t i = 1; i <= kCount; ++i) {
    Packet p = test_packet(i, 256);
    // Frame layout: [u32 len][u8 kind][payload] with len = 1 + payload.
    queued_bytes += 4 + 1 + p.app.serialized_size();
    t.send(1, std::move(p));
    if (i % 50 == 0) t.poll(1);
  }

  EXPECT_LE(t.pending_out_bytes(1), kCap);
  const Metrics& m = t.metrics();
  EXPECT_GT(m.out_dropped_frames, 0u);
  EXPECT_GT(m.out_dropped_bytes, 0u);
  // Shedding cuts whole frames: every queued byte is either still pending
  // or accounted dropped — nothing vanished mid-frame.
  EXPECT_EQ(t.pending_out_bytes(1) + m.out_dropped_bytes, queued_bytes);

  // Bring the peer up on the same port; the transport's capped backoff
  // redials within ~2s and flushes the survivors.
  RawListener peer;
  ASSERT_TRUE(peer.open(dead_port));
  int c = peer.accept_with(t, 10'000);
  ASSERT_GE(c, 0);

  FrameDecoder dec;
  std::vector<Frame> frames;
  auto deadline = Clock::now() + std::chrono::seconds(30);
  std::vector<std::uint8_t> chunk(1u << 16);
  bool saw_last = false;
  while (!saw_last && !dec.broken() && Clock::now() < deadline) {
    t.poll(2);
    for (;;) {
      ssize_t r = ::read(c, chunk.data(), chunk.size());
      if (r <= 0) break;
      ASSERT_TRUE(dec.feed(chunk.data(), static_cast<std::size_t>(r)) ||
                  dec.broken());
      while (auto f = dec.next()) frames.push_back(std::move(*f));
      if (dec.broken()) break;
    }
    if (!frames.empty()) {
      auto p = decode_packet(frames.back());
      saw_last = p.has_value() && !p->is_rb && p->app.sid.counter == kCount;
    }
  }
  ::close(c);

  EXPECT_FALSE(dec.broken()) << "shedding corrupted the frame stream";
  ASSERT_TRUE(saw_last) << "newest frame was shed";
  // HELLO + a strict subset of the queued frames survived, oldest-first
  // shed: the retained app frames are a contiguous newest suffix.
  ASSERT_GT(frames.size(), 1u);
  EXPECT_LT(frames.size(), static_cast<std::size_t>(kCount) + 1);
  auto hello = decode_hello(frames[0], cfg.n());
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(*hello, 0);
  std::uint32_t prev = 0;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    auto p = decode_packet(frames[i]);
    ASSERT_TRUE(p.has_value());
    if (prev != 0) {
      EXPECT_EQ(p->app.sid.counter, prev + 1);
    }
    prev = p->app.sid.counter;
  }
  EXPECT_EQ(prev, kCount);
}

// An endpoint that cannot resolve is a configuration error, not a
// transient: the dialer must jump straight to the capped backoff tier
// instead of spinning the 100ms ladder (and log once, not per retry).
TEST(SocketReconnect, ResolveFailureUsesCappedBackoff) {
  ClusterConfig cfg;
  cfg.peers = {Endpoint{"127.0.0.1", 0}, Endpoint{"not-an-address", 9}};
  SocketTransport t(0, cfg);
  ASSERT_TRUE(t.open());

  t.send(1, test_packet(1, 32));
  for (int i = 0; i < 5; ++i) t.poll(1);

  EXPECT_EQ(t.peer_backoff_ms(1), 2000);
  EXPECT_GT(t.pending_out_bytes(1), 0u) << "frames must survive for a later "
                                           "set_peer/rebind_peer fix";
}

}  // namespace
}  // namespace svss::net

// ----------------------------------------------------------------------
// Daemon shutdown with an instance in flight (core/daemon.hpp)
// ----------------------------------------------------------------------

#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/daemon.hpp"

namespace svss {
namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// SIGTERM between submit() and the decision: the daemon's run loop must
// return promptly (stop_requested), the process-level contract is exit 0
// with a metrics line (exercised end-to-end by scripts/socket_smoke.sh),
// and recovery must leave no half-written checkpoint behind — the atomic
// tmp+rename discipline means a *.tmp file never outlives a crash window.
TEST(DaemonShutdown, SigtermWithInstanceInFlightLeavesNoTornCheckpoint) {
  // Peers are reserved-but-dead ports, so the instance can never decide —
  // the worst case for a signalled shutdown.
  net::ClusterConfig cluster;
  cluster.peers.push_back(net::Endpoint{"127.0.0.1", 0});
  for (int i = 0; i < 3; ++i) {
    std::uint16_t port = net::free_port();
    ASSERT_NE(port, 0);
    cluster.peers.push_back(net::Endpoint{"127.0.0.1", port});
  }

  std::string ckpt = ::testing::TempDir() + "svss_sigterm_ckpt";
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  std::remove((ckpt + ".journal").c_str());

  DaemonService svc(0, std::move(cluster), /*seed=*/7);
  svc.enable_recovery(ckpt);
  EXPECT_FALSE(svc.recover());
  ASSERT_TRUE(svc.start());
  svc.submit(0, 1, CoinMode::kIdealCommon, 7 ^ 0xC01F);

  std::raise(SIGTERM);
  bool decided = svc.run_until(
      [&] {
        const AbaSession* a = svc.node().aba(0);
        return a != nullptr && a->decided();
      },
      5000);
  EXPECT_FALSE(decided);
  EXPECT_TRUE(DaemonService::stop_requested());
  svc.shutdown();

  EXPECT_FALSE(file_exists(ckpt + ".tmp"))
      << "half-written checkpoint left behind";
  EXPECT_FALSE(file_exists(ckpt)) << "no decision was made, so no checkpoint";
  net::clear_stop_request();
}

// A daemon's ByzConfig reaches its wire through the same slot helper a
// Runner uses: a silent slot queues no packet where an honest one does.
TEST(DaemonFault, SilentSlotQueuesNothing) {
  for (bool silent : {false, true}) {
    net::ClusterConfig cluster;
    cluster.peers.push_back(net::Endpoint{"127.0.0.1", 0});
    for (int i = 0; i < 3; ++i) {
      cluster.peers.push_back(net::Endpoint{"127.0.0.1", net::free_port()});
    }
    std::optional<ByzConfig> fault;
    if (silent) fault = ByzConfig{ByzKind::kSilent};
    DaemonService svc(0, std::move(cluster), /*seed=*/7, {}, fault);
    ASSERT_TRUE(svc.start());
    svc.submit(0, 1);
    EXPECT_EQ(svc.transport().metrics().packets_sent == 0, silent)
        << (silent ? "silent" : "honest") << " daemon";
    svc.shutdown();
  }
}

TEST(DaemonFault, SelfOutsideTheClusterIsRejected) {
  net::ClusterConfig cluster;
  cluster.peers.assign(4, net::Endpoint{"127.0.0.1", 0});
  EXPECT_THROW(DaemonService(4, cluster, 1), std::invalid_argument);
  EXPECT_THROW(DaemonService(-1, cluster, 1), std::invalid_argument);
}

}  // namespace
}  // namespace svss
