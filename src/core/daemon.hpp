// Transport-driven protocol endpoints and the Cluster backend seam.
//
// NodeDaemon is one slot of a cluster outside the simulator: a Node wired
// to an ITransport endpoint through a ProcessWorld-backed Context.  The
// multi-process examples (examples/agreement_cluster, examples/coin_service
// in --id mode) build one per OS process over a net::SocketTransport.
//
// Cluster is the seam every Runner driver (and Runner::run_epochs) is
// written against: n slot endpoints, a run loop that stops once a per-slot
// predicate holds on every waited-on slot, actions on a slot between runs,
// and the run's event log and metrics.  Two implementations:
//
//   * SimCluster — the deterministic simulator: one Engine hosts every
//     slot, and a run stops at the first delivery after which every
//     waited-on slot is done.
//   * LoopbackCluster — n NodeDaemons over real TCP on 127.0.0.1, one
//     thread per endpoint.  Thread discipline is confinement: every
//     daemon + transport pair is driven by exactly one worker thread
//     during a run, and by the main thread between runs (construction,
//     actions, collection), with thread start and join as the handoff.
//     The cross-thread channels during a run are the sockets, one atomic
//     completion counter, and SocketTransport::wake(), which the worker
//     that completes the counter calls on every endpoint; wake() touches
//     only an eventfd fixed before the workers start.  That keeps the
//     -fsanitize=thread CI lane clean.
#pragma once

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

// Slot `slot`'s batching framing under `opts`, MW override applied.
BatchFraming batch_framing(const TransportOptions& opts, int slot);

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
// Cluster
// ----------------------------------------------------------------------

class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  virtual ~Cluster() = default;

  // Slot i's endpoint, for stacks layered over the cluster (EpochTransport).
  virtual ITransport& transport(int i) = 0;
  // A Context acting as slot i, for actions between runs (e.g. entering
  // reconstruction after a share phase).  Never call it during a run.
  virtual Context ctx(int i) = 0;
  // The first call fires every slot's start hook; every call then delivers
  // until done(i) holds for every slot in `waited`.  done(i) runs only on
  // slot i's own thread, and must be monotone (once true, stays true).
  // Slots outside `waited` keep delivering uncounted.  Returns
  // kDeliveryCap, and sets merged_metrics().capped, if the delivery cap
  // (sim) or the timeout (loopback) cut the run short.
  virtual RunStatus run_until(const std::function<bool(int)>& done,
                              std::vector<int> waited) = 0;
  // Every slot's events (per-slot streams concatenated slot-major on
  // loopback, where cross-slot order is not meaningful) and metrics.
  [[nodiscard]] virtual const EventLog& merged_log() const = 0;
  [[nodiscard]] virtual Metrics merged_metrics() const = 0;
};

class SimCluster final : public Cluster {
 public:
  SimCluster(int n, int t, std::uint64_t seed,
             std::unique_ptr<Scheduler> sched, std::uint64_t max_deliveries)
      : engine_(n, t, seed, std::move(sched)),
        max_deliveries_(max_deliveries) {}

  Engine& engine() { return engine_; }

  ITransport& transport(int i) override { return engine_.transport(i); }
  Context ctx(int i) override { return Context(engine_, i); }
  RunStatus run_until(const std::function<bool(int)>& done,
                      std::vector<int> waited) override;
  [[nodiscard]] const EventLog& merged_log() const override {
    return engine_.log();
  }
  [[nodiscard]] Metrics merged_metrics() const override {
    return engine_.metrics();
  }

 private:
  Engine engine_;
  std::uint64_t max_deliveries_;
};

struct LoopbackOptions {
  int n = 4;
  int t = 1;
  std::uint64_t seed = 1;
  TransportOptions transport;       // framings (kind is implied)
  std::map<int, ByzConfig> faults;  // wire faults via the send hook
  int timeout_ms = 30'000;          // per run
};

class LoopbackCluster final : public Cluster {
 public:
  // Binds n kernel-assigned listeners and constructs every daemon; after
  // this, install start actions via node(i).set_start_action(...).
  explicit LoopbackCluster(LoopbackOptions opts);
  ~LoopbackCluster() override;

  Node& node(int i) { return daemons_[static_cast<std::size_t>(i)]->node(); }

  ITransport& transport(int i) override {
    return *transports_[static_cast<std::size_t>(i)];
  }
  Context ctx(int i) override {
    return Context(daemons_[static_cast<std::size_t>(i)]->world());
  }
  // A done slot keeps polling until the whole cluster is done, so late RB
  // relays still flow.  The slot that completes the cluster wakes every
  // endpoint, so all threads return within a syscall of the last finish,
  // not at their next poll tick.
  RunStatus run_until(const std::function<bool(int)>& done,
                      std::vector<int> waited) override;
  // run_until over the slots for which `honest` holds, with a predicate on
  // each slot's Node.  Returns true iff all of them finished in time.
  bool run(const std::function<bool(const Node&)>& pred,
           const std::function<bool(int)>& honest);

  [[nodiscard]] const EventLog& merged_log() const override;
  [[nodiscard]] Metrics merged_metrics() const override;

 private:
  LoopbackOptions opts_;
  std::vector<std::unique_ptr<net::SocketTransport>> transports_;
  std::vector<std::unique_ptr<NodeDaemon>> daemons_;
  bool started_ = false;  // start hooks fired (first run only)
  bool capped_ = false;   // some run timed out
  mutable EventLog log_;  // merged_log()'s view, rebuilt per call
};

}  // namespace svss
