// The transport seam: one narrow interface between the protocol stack and
// whatever moves packets between processes.
//
// Every layer above this header (core::Node, the batching layer, the
// adversary strategies) speaks to the network through a Context, and a
// Context speaks to exactly one ITransport endpoint: a ProcessHost
// (sim/engine.hpp) binds a process to its endpoint the same way on every
// backend, and wire faults act through the endpoint's one SendHook.  Two
// backends implement the seam:
//
//   * sim::Engine — the deterministic discrete-event simulator.  One
//     engine serves all n endpoints (Engine::transport(id)); delivery runs
//     through the adversarial scheduler, and a run stays a pure function
//     of (processes, scheduler, seed).  This is the proof-carrying
//     reference backend: replay is byte-identical, and the equivalence
//     harness (tests/equivalence_common.hpp) pins any new backend or
//     framing against it.
//   * net::SocketTransport — real TCP sockets with epoll readiness loops,
//     length-prefixed frames reusing the existing Packet serialization,
//     and per-peer reconnect with backoff.  One endpoint per OS process;
//     examples/agreement_cluster and examples/coin_service run as
//     multi-process daemons on top of it.
//
// core::Runner reaches both through one Cluster seam (core/daemon.hpp:
// SimCluster over the Engine, LoopbackCluster over n SocketTransports in
// one process), so every Runner driver runs on either backend;
// TransportOptions::kind picks which.  Adversary strategies attach through
// the same host and send hook, but the Runner hosts them on the sim only.
//
// This header sits *below* both backends: it depends only on the wire
// message model (sim/message.hpp) and carries no out-of-line code.  A new
// backend implements send, the two setters and self/n; broadcast comes
// with the seam.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sim/message.hpp"

namespace svss {

// One process's sending/receiving endpoint.
class ITransport {
 public:
  // Inbound delivery sink: invoked once per received packet, on the
  // thread/loop that drives the backend.  Exactly one sink per endpoint;
  // the packet is only borrowed for the call, so a sink that keeps it
  // copies it.
  using Delivery = std::function<void(int from, const Packet& p)>;
  // Outbound hook: runs on every packet this endpoint sends, per
  // recipient, before it is metered or framed.  May mutate the packet;
  // returning false drops it.  Byzantine wire faults (core/byzantine.hpp)
  // and adversary strategies' outbound gates attach here.
  using SendHook = std::function<bool(int to, Packet& p)>;

  virtual ~ITransport() = default;

  // Submits a packet to process `to` over the private channel self -> to.
  // Sending to self is allowed and is delivered like any other packet.
  virtual void send(int to, Packet p) = 0;
  // One copy to every process, self included, each through send(): every
  // recipient's copy runs the send hook on its own, so equivocation
  // mutates one leg only.  Every backend uses this body; it stays virtual
  // for decorators that observe whole broadcasts.
  virtual void broadcast(const Packet& p) {
    for (int to = 0; to < n(); ++to) send(to, p);
  }

  virtual void set_delivery(Delivery sink) = 0;
  virtual void set_send_hook(SendHook hook) = 0;

  [[nodiscard]] virtual int self() const = 0;
  [[nodiscard]] virtual int n() const = 0;
};

// ----------------------------------------------------------------------
// Transport configuration (RunnerConfig::transport, DaemonService)
// ----------------------------------------------------------------------

// Which backend a Runner-driven experiment runs on.  Multi-process daemons
// do not appear here: each is a DaemonService (core/daemon.hpp), because a
// Runner owns all n slots of a run, while a daemon owns one.
enum class TransportKind : std::uint8_t {
  kSim,             // deterministic simulator (default; replayable)
  kSocketLoopback,  // n in-process endpoints over real TCP on 127.0.0.1,
                    // one thread per endpoint (non-deterministic schedule)
};

// Named wire framings for the batching layer's three clients (coin
// dealing, MW children, agreement votes; src/batch/batch.hpp).  kBatched
// is the measured default; kPerSession is the unbatched reference framing
// the equivalence harness compares against.
enum class Framing : std::uint8_t {
  kPerSession,  // one message / RBC instance per protocol session
  kBatched,     // shared envelopes
};

// The transport surface of a run, collapsed into one struct.  Framings are
// outbound-only knobs: envelopes are always understood inbound, so mixed
// fleets interoperate, and batched envelopes ride every backend
// untranslated — the socket framer serializes whatever Packet it is given.
struct TransportOptions {
  TransportKind kind = TransportKind::kSim;
  Framing coin_dealing = Framing::kBatched;
  Framing mw_children = Framing::kBatched;
  // Cross-instance agreement-vote coalescing.
  Framing aba_votes = Framing::kBatched;
  // Per-slot override of mw_children (mixed-fleet experiments).
  std::map<int, Framing> mw_children_override;
};

}  // namespace svss
