// SocketTransport::wake(), event-driven cluster completion, and the
// teardown that lets clusters be rebuilt back to back.
//
// wake() is the one SocketTransport member another thread may call: it
// cuts the owner's epoll wait short, so a worker sees a cross-thread
// predicate flip within a syscall instead of at its next poll tick.  The
// unit cases pin the eventfd semantics on a lone endpoint (n = 1, so no
// dial or accept traffic can end a poll early); the cluster case pins the
// effect LoopbackCluster::run depends on — every thread returns promptly
// once the last honest slot decides.  The teardown case pins that a
// closed endpoint leaves no TIME_WAIT socket on its listening port.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/daemon.hpp"
#include "net/socket_transport.hpp"

namespace svss {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

net::SocketTransport open_lone_endpoint() {
  net::ClusterConfig cfg;
  cfg.peers.push_back(net::Endpoint{"127.0.0.1", 0});
  return net::SocketTransport(0, cfg);
}

// Far above any scheduling delay (sanitizer builds included), far below
// the 10 s poll timeout the wake must cut short.
constexpr double kPromptMs = 1000;

TEST(SocketWake, WakeFromAnotherThreadEndsIdlePoll) {
  auto tr = open_lone_endpoint();
  ASSERT_TRUE(tr.open());
  std::thread waker([&tr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    tr.wake();
  });
  auto t0 = Clock::now();
  tr.poll(10'000);
  double waited = ms_since(t0);
  waker.join();
  EXPECT_LT(waited, kPromptMs);
}

TEST(SocketWake, WakeBeforePollIsNotLost) {
  auto tr = open_lone_endpoint();
  ASSERT_TRUE(tr.open());
  tr.wake();
  auto t0 = Clock::now();
  tr.poll(10'000);
  EXPECT_LT(ms_since(t0), kPromptMs);
}

TEST(SocketWake, WakesCoalesceIntoOnePoll) {
  auto tr = open_lone_endpoint();
  ASSERT_TRUE(tr.open());
  for (int i = 0; i < 5; ++i) tr.wake();
  auto t0 = Clock::now();
  tr.poll(10'000);
  EXPECT_LT(ms_since(t0), kPromptMs);
  // The first poll drained every wake: the next one waits its timeout.
  t0 = Clock::now();
  tr.poll(100);
  EXPECT_GE(ms_since(t0), 90.0);
}

TEST(SocketWake, WakeAfterShutdownIsHarmless) {
  auto tr = open_lone_endpoint();
  ASSERT_TRUE(tr.open());
  tr.shutdown();
  tr.wake();  // the eventfd outlives shutdown(): nothing else is written
  auto t0 = Clock::now();
  tr.poll(10'000);  // inert after shutdown: returns at once
  EXPECT_LT(ms_since(t0), kPromptMs);
}

// Two endpoints that dialed each other, torn down endpoint 0 first: its
// accepted connection closes before the peer's, which a graceful close
// would leave in TIME_WAIT on endpoint 0's listening port for 60 s.
// Rebuilt back to back, clusters then crowd the ephemeral range until
// every bind(port 0) has to search it.  A plain bind (no SO_REUSEADDR)
// to that port succeeds only if no socket is parked there.
TEST(SocketWake, TeardownLeavesListeningPortFree) {
  net::ClusterConfig wild;
  wild.peers.assign(2, net::Endpoint{"127.0.0.1", 0});
  auto a = std::make_unique<net::SocketTransport>(0, wild);
  auto b = std::make_unique<net::SocketTransport>(1, wild);
  ASSERT_TRUE(a->open());
  ASSERT_TRUE(b->open());
  const std::uint16_t port_a = a->bound_port();
  for (auto* tr : {a.get(), b.get()}) {
    tr->set_peer(0, net::Endpoint{"127.0.0.1", port_a});
    tr->set_peer(1, net::Endpoint{"127.0.0.1", b->bound_port()});
  }
  int got_a = 0;
  int got_b = 0;
  a->set_delivery([&got_a](int, Packet) { ++got_a; });
  b->set_delivery([&got_b](int, Packet) { ++got_b; });
  Message m;
  m.sid = SessionId{SessionPath::kTest, 0, -1, -1, -1, 1};
  m.type = MsgType::kTestPayload;
  a->send(1, make_direct(m));
  b->send(0, make_direct(m));
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while ((got_a == 0 || got_b == 0) && Clock::now() < deadline) {
    a->poll(1);
    b->poll(1);
  }
  ASSERT_EQ(got_a, 1);
  ASSERT_EQ(got_b, 1);
  a.reset();
  b.reset();

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_a);
  int rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  int err = errno;
  ::close(fd);
  EXPECT_EQ(rc, 0) << "bind to the torn-down listening port: "
                   << std::strerror(err);
}

// n = 4, 16 ideal-coin instances per cluster (the shape of one
// perfbench tcp batch).  run() must return within 20 ms of the last
// honest decide — well under the 50 ms poll cap, which is all that bounds
// it without a wake — as a median over five batches, so one descheduled
// batch cannot fail it.
TEST(SocketWake, ClusterReturnsPromptlyAfterLastDecide) {
  constexpr int kN = 4;
  constexpr std::uint32_t kInstances = 16;
  constexpr int kBatches = 5;
  std::vector<double> lingers;
  for (int b = 0; b < kBatches; ++b) {
    LoopbackOptions opts;
    opts.n = kN;
    opts.t = 1;
    opts.seed = 100 + static_cast<std::uint64_t>(b);
    LoopbackCluster cluster(opts);
    std::vector<Clock::time_point> decided_at(kN * kInstances);
    for (int i = 0; i < kN; ++i) {
      cluster.node(i).set_start_action([i](Context& c, Node& nd) {
        for (std::uint32_t k = 0; k < kInstances; ++k) {
          int input = (static_cast<int>(k) + i) % 2;  // split inputs
          nd.start_aba(c, input, CoinMode::kIdealCommon, 7, k);
        }
      });
      cluster.node(i).observers.aba_decided =
          [&decided_at, i](Context&, int, std::uint32_t, std::uint32_t k) {
            if (k < kInstances) {
              decided_at[k * kN + static_cast<std::uint32_t>(i)] = Clock::now();
            }
          };
    }
    bool finished = cluster.run(
        [](const Node& nd) {
          for (std::uint32_t k = 0; k < kInstances; ++k) {
            const AbaSession* a = nd.aba(k);
            if (a == nullptr || !a->decided()) return false;
          }
          return true;
        },
        [](int) { return true; });
    auto returned = Clock::now();
    ASSERT_TRUE(finished) << "batch " << b;
    auto last = *std::max_element(decided_at.begin(), decided_at.end());
    lingers.push_back(
        std::chrono::duration<double, std::milli>(returned - last).count());
  }
  std::sort(lingers.begin(), lingers.end());
  EXPECT_LT(lingers[kBatches / 2], 20.0)
      << "median linger after the last decide, ms (sorted): " << lingers[0]
      << " " << lingers[1] << " " << lingers[2] << " " << lingers[3] << " "
      << lingers[4];
}

}  // namespace
}  // namespace svss
