// Transport-driven protocol endpoints.
//
// NodeDaemon is one slot of a cluster outside the simulator: a Node wired
// to an ITransport endpoint through a ProcessWorld-backed Context.  The
// multi-process examples (examples/agreement_cluster, examples/coin_service
// in --id mode) build one per OS process over a net::SocketTransport; the
// Runner's socket-loopback mode builds n of them in one process.
//
// LoopbackCluster hosts n NodeDaemons over real TCP on 127.0.0.1, one
// thread per endpoint.  Thread discipline is confinement: every daemon +
// transport pair is driven by exactly one worker thread between
// construction (main thread, before the workers start) and join (main
// thread, after).  The cross-thread channels are the sockets, one atomic
// completion counter, and SocketTransport::wake(), which the worker that
// completes the counter calls on every endpoint; wake() touches only an
// eventfd fixed before the workers start.  That keeps the
// -fsanitize=thread CI lane clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/byzantine.hpp"
#include "core/node.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"

namespace svss {

class NodeDaemon {
 public:
  // Seeding matches Engine (Rng(seed).split(self)), so a daemon fleet
  // started from one seed deals the same values the simulator would.
  NodeDaemon(int self, int n, int t, std::uint64_t seed, ITransport& tr,
             const TransportOptions& opts);

  Node& node() { return node_; }
  ProcessWorld& world() { return world_; }

  // Runs the node's start hook (deal / input injection).  Call once, from
  // the thread that drives the transport.
  void start();

 private:
  ProcessWorld world_;
  Node node_;
};

// ----------------------------------------------------------------------
// LoopbackCluster
// ----------------------------------------------------------------------

struct LoopbackOptions {
  int n = 4;
  int t = 1;
  std::uint64_t seed = 1;
  TransportOptions transport;       // framings (kind is implied)
  std::map<int, ByzConfig> faults;  // wire faults via the send hook
  int timeout_ms = 30'000;
};

class LoopbackCluster {
 public:
  // Binds n kernel-assigned listeners and constructs every daemon; after
  // this, install start actions via node(i).set_start_action(...).
  explicit LoopbackCluster(LoopbackOptions opts);
  ~LoopbackCluster();

  Node& node(int i) { return daemons_[static_cast<std::size_t>(i)]->node(); }

  // Drives all n endpoints on their own threads until every slot for which
  // `honest` holds satisfies `pred` (or the timeout).  A satisfied slot
  // keeps polling until the whole cluster is done, so late RB relays still
  // flow.  The slot that completes the cluster wakes every endpoint, so
  // all threads (faulty slots included) return within a syscall of the
  // last honest finish, not at their next poll tick.  Returns true iff all
  // honest slots finished in time.
  bool run(const std::function<bool(const Node&)>& pred,
           const std::function<bool(int)>& honest);

  // Post-run views (valid after run() returns; logs are per-slot and get
  // concatenated slot-major — cross-slot order is not meaningful).
  [[nodiscard]] EventLog merged_log() const;
  [[nodiscard]] Metrics merged_metrics() const;

 private:
  LoopbackOptions opts_;
  std::vector<std::unique_ptr<net::SocketTransport>> transports_;
  std::vector<std::unique_ptr<NodeDaemon>> daemons_;
};

}  // namespace svss
