// Transport-driven protocol endpoints, the per-epoch process stack, the
// Cluster backend seam, and the multi-process daemon.
//
// NodeDaemon is a Node on an ITransport endpoint: the ProcessHost
// (sim/engine.hpp) of one honest Node, on any backend.
//
// EpochSlot is one universe slot across membership epochs: the epoch fence
// (core/epoch.hpp) over the slot's endpoint plus the current epoch's
// NodeDaemon.  It is the one place a per-epoch Node is built, for both
// Runner::run_epochs (one EpochSlot per universe slot) and DaemonService.
//
// Cluster is the seam every Runner driver (and Runner::run_epochs) is
// written against: n slot endpoints, each with the event log its hosts
// record into, a run loop that stops once a per-slot predicate holds on
// every waited-on slot, actions on a slot between runs, and the run's
// event log and metrics.  Two implementations:
//
//   * SimCluster — the deterministic simulator: one Engine serves every
//     slot's endpoint, every host records into the engine's one log, and
//     a run stops at the first delivery after which every waited-on slot
//     is done.
//   * LoopbackCluster — n NodeDaemons over real TCP on 127.0.0.1, one
//     thread per endpoint, each wired straight to its transport and its
//     slot's own log (no epoch fence; run_epochs layers its EpochSlots
//     over these endpoints and logs).
//     Thread discipline is confinement: every daemon + transport pair is
//     driven by exactly one worker thread during a run, and by the main
//     thread between runs (construction, actions, collection), with
//     thread start and join as the handoff.  The cross-thread channels
//     during a run are the sockets, one atomic completion counter, and
//     SocketTransport::wake(), which the worker that completes the counter
//     calls on every endpoint; wake() touches only an eventfd fixed before
//     the workers start.  That keeps the -fsanitize=thread CI lane clean.
//
// DaemonService is one OS process of a real fleet: an EpochSlot over a
// net::SocketTransport bound to this process's endpoint, plus crash
// recovery (core/recovery.hpp) and the catch-up control plane.  The
// multi-process examples (examples/agreement_cluster, examples/coin_service
// in --id mode) build one per process.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/byzantine.hpp"
#include "core/epoch.hpp"
#include "core/node.hpp"
#include "core/recovery.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "sim/engine.hpp"

namespace svss {

// Slot `slot`'s batching framing under `opts`, MW override applied.
BatchFraming batch_framing(const TransportOptions& opts, int slot);

class NodeDaemon {
 public:
  // Hosts Node `self` of (n, t) on `tr`, seeded like every slot
  // (slot_rng), so a daemon fleet started from one seed deals the same
  // values the simulator would.  Events go to `log`, or to a log of the
  // daemon's own if none is given.
  NodeDaemon(int self, int n, int t, std::uint64_t seed, ITransport& tr,
             const TransportOptions& opts, EventLog* log = nullptr);

  Node& node() { return static_cast<Node&>(host_.process()); }
  ProcessWorld& world() { return host_.world(); }

  // Runs the node's start hook (deal / input injection).  Call once, from
  // the thread that drives the transport.
  void start() { host_.start(); }

 private:
  EventLog own_log_;
  ProcessHost host_;
};

// ----------------------------------------------------------------------
// EpochSlot
// ----------------------------------------------------------------------

// One universe slot's process stack: the epoch fence over the slot's
// endpoint (global ids) and the NodeDaemon of the current epoch, if the
// slot is a member.  Drive it from the thread that drives the endpoint.
// Neither copyable nor movable: the fence registers itself with the
// endpoint.
class EpochSlot {
 public:
  // Runs on each freshly built Node before the fence replays its buffer
  // into it (observers, start hook).
  using OnBuild = std::function<void(NodeDaemon&)>;

  // Fences `inner` at `first` and builds that epoch's Node if the slot is
  // a member.  `seed` is the service seed; epoch e's Node is seeded with
  // epoch_seed(seed, e).  Every epoch's Node records into `log`.
  EpochSlot(ITransport& inner, const EpochConfig& first, std::uint64_t seed,
            TransportOptions opts, EventLog& log);
  EpochSlot(const EpochSlot&) = delete;
  EpochSlot& operator=(const EpochSlot&) = delete;

  // Moves to `next` at an agreed boundary: drops the old epoch's Node,
  // installs `next` at the fence, builds the Node at the slot's new rank
  // (a non-member stays a spectator: it buffers future-epoch traffic and
  // still answers the control plane), runs `on_build` on it, and replays
  // the buffered packets into it.
  void install(const EpochConfig& next, const OnBuild& on_build = {});
  // Crash: drops the Node.  The fence keeps buffering but delivers nothing
  // until the next install().
  void crash();

  // True iff the slot holds a Node in the current epoch.
  [[nodiscard]] bool is_member() const { return daemon_.has_value(); }
  // The current epoch's Node stack; throws std::logic_error if there is
  // none (spectator or crashed slot).
  NodeDaemon& daemon();
  EpochTransport& fence() { return fence_; }
  [[nodiscard]] const EpochTransport& fence() const { return fence_; }

 private:
  void build(const OnBuild& on_build);

  std::uint64_t seed_;
  TransportOptions opts_;
  EventLog* log_;
  EpochTransport fence_;
  std::optional<NodeDaemon> daemon_;
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
  // The log slot i's hosts record into.  Only slot i's thread touches it
  // during a run.
  virtual EventLog& log(int i) = 0;
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
  EventLog& log(int /*i*/) override { return engine_.log(); }
  Context ctx(int i) override { return engine_.host(i).ctx(); }
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
  EventLog& log(int i) override { return logs_[static_cast<std::size_t>(i)]; }
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
  std::vector<EventLog> logs_;
  std::vector<std::optional<NodeDaemon>> daemons_;
  bool started_ = false;  // start hooks fired (first run only)
  bool capped_ = false;   // some run timed out
  mutable EventLog log_;  // merged_log()'s view, rebuilt per call
};

// ----------------------------------------------------------------------
// DaemonService
// ----------------------------------------------------------------------

// One OS process of a socket-backed fleet: this slot's EpochSlot over a
// SocketTransport, starting in epoch 0 with the identity membership of the
// cluster and t = floor((n-1)/3).  The epoch fence sits between the wire
// and the protocol even in single-epoch deployments, so the catch-up
// control plane and a catch-up epoch change need no special wiring.
// Neither copyable nor movable: its hooks capture its address.
class DaemonService {
 public:
  // Slot `self` of `cluster`, seeded like a Runner with `seed`; `fault`
  // corrupts this slot's outbound wire exactly as RunnerConfig::faults
  // would.  Throws std::invalid_argument if `self` is outside the cluster.
  DaemonService(int self, net::ClusterConfig cluster, std::uint64_t seed,
                const TransportOptions& opts = {},
                std::optional<ByzConfig> fault = std::nullopt);
  DaemonService(const DaemonService&) = delete;
  DaemonService& operator=(const DaemonService&) = delete;

  // True iff this slot is a member of the current epoch.  After catch_up()
  // adopts an epoch that leaves it out, the daemon is a spectator: it
  // answers the control plane, and node(), ctx() and submit() throw
  // std::logic_error.
  [[nodiscard]] bool is_member() const { return slot_.is_member(); }
  Node& node() { return slot_.daemon().node(); }
  // A Context for injecting local actions (deals, inputs) between polls.
  Context ctx() { return Context(slot_.daemon().world()); }
  net::SocketTransport& transport() { return *transport_; }
  EpochTransport& epoch_transport() { return slot_.fence(); }
  [[nodiscard]] std::uint32_t current_epoch() const {
    return slot_.fence().config().epoch;
  }

  // Binds the listener, installs SIGTERM/SIGINT stop handlers, wires the
  // decision observer + catch-up control plane, and runs the node's start
  // hook.  False on bind failure (port taken, bad address).  The handlers
  // make run_until()/linger() return early when a supervisor signals the
  // process, so daemon mains can shut down cleanly instead of dying
  // mid-write.
  bool start();
  // Drives the socket loop until pred(), the timeout, or stop_requested();
  // true iff pred().
  bool run_until(const std::function<bool()>& pred, int timeout_ms);
  // Keeps relaying for `linger_ms` after this slot is done, so peers that
  // still need our RB echoes/readies can finish too.  Cut short by
  // stop_requested().
  void linger(int linger_ms);
  // True once the process received SIGTERM/SIGINT (after start()).
  [[nodiscard]] static bool stop_requested();
  // Flushes what the connections will take, then closes the listener and
  // every socket.  Idempotent; the destructor closes too, but calling
  // this first frees the port before any final reporting the main does.
  void shutdown();

  // Starts agreement instance `instance` with this process's binary
  // input.  Instances submitted between polls multiplex over the one
  // transport; every fleet member must submit the same instance (with
  // its own input) and use the same mode/seed.  Drive with run_until
  // checking node().aba(instance)->decided().
  void submit(std::uint32_t instance, int input,
              CoinMode mode = CoinMode::kIdealCommon,
              std::uint64_t common_seed = 0);

  // --- crash recovery ------------------------------------------------
  // Persist decisions to `checkpoint_path` (+ ".journal"): every decision
  // is journaled immediately, and every `checkpoint_every` decisions the
  // full state checkpoints atomically and the journal truncates.  Call
  // before start().
  void enable_recovery(std::string checkpoint_path, int checkpoint_every = 4);
  // Loads checkpoint + journal into the decision table.  Call after
  // enable_recovery(), before start().  True iff any persisted state was
  // found.
  bool recover();
  // Rejoin handshake: broadcasts kEpochCatchupReq (ints = the (epoch,
  // instance) pairs already known), adopts any decision t+1 peers report
  // with a matching value, and re-enters a later epoch once t+1 peers
  // report a byte-identical config for it (agreeing on the epoch id alone
  // is not enough — a lone Byzantine reply must not pick the member set).
  // State replies are tallied only while this call is in flight; the
  // tallies are cleared before it returns.  Returns true iff every
  // instance in `instances` has a known decision afterwards.
  bool catch_up(const std::vector<std::uint32_t>& instances, int timeout_ms);
  // Forces a checkpoint now (clean-shutdown path, and the fallback when a
  // journal append fails).  No-op without enable_recovery(); true iff the
  // checkpoint file now covers the whole decision table.
  bool checkpoint_now();

  using DecisionKey = std::pair<std::uint32_t, std::uint32_t>;  // epoch, inst
  // The decision for `instance` in its latest epoch, if known (decided
  // locally, recovered from disk, or adopted via catch-up).
  [[nodiscard]] std::optional<int> decision(std::uint32_t instance) const;
  [[nodiscard]] const std::map<DecisionKey, DecisionRecord>& decisions()
      const {
    return decided_;
  }
  // Catch-up cost actually paid: state frames / payload bytes received.
  [[nodiscard]] std::uint64_t catchup_frames() const {
    return catchup_frames_;
  }
  [[nodiscard]] std::uint64_t catchup_bytes() const { return catchup_bytes_; }

 private:
  // Hooks a freshly built Node: decision observer, then its start hook.
  void wire(NodeDaemon& d);
  void on_control(int global_from, const Message& m);
  void note_decision(int value, std::uint32_t round, std::uint32_t instance);
  void adopt_record(const DecisionRecord& rec);
  // Claims one tally-map slot for `global_from`; false once that peer hit
  // its per-handshake cap, so a flooder cannot grow the vote maps.
  bool take_tally_slot(int global_from);
  // Witness threshold for adopting a record of `rec_epoch`: the current
  // config's t, raised by the t of any reported config for an epoch this
  // daemon would cross to get there — t+1 matching reports must contain
  // an honest witness under every resilience spanned.
  [[nodiscard]] int witness_t(std::uint32_t rec_epoch) const;
  [[nodiscard]] std::string journal_path() const {
    return checkpoint_path_ + ".journal";
  }

  int self_;
  std::uint64_t seed_;
  std::unique_ptr<net::SocketTransport> transport_;
  EventLog log_;
  EpochSlot slot_;

  std::string checkpoint_path_;
  int checkpoint_every_ = 4;
  int since_checkpoint_ = 0;
  std::unique_ptr<DecisionJournal> journal_;
  std::map<DecisionKey, DecisionRecord> decided_;

  // Catch-up tallies: value reports per (epoch, instance, value) and
  // config reports per *byte-identical serialized config*, each needing
  // t+1 distinct reporters.  Live only while catch_up() is in flight
  // (unsolicited state frames are dropped on arrival) and per-peer
  // key-capped, so a Byzantine peer can neither overwrite an honest
  // quorum's config nor grow the maps without bound.
  bool catchup_active_ = false;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::int32_t>,
           std::set<int>>
      value_votes_;
  std::map<Bytes, std::pair<std::set<int>, EpochConfig>> epoch_votes_;
  std::map<int, int> tallied_keys_;  // per-peer distinct keys this handshake
  std::uint64_t catchup_frames_ = 0;
  std::uint64_t catchup_bytes_ = 0;
};

}  // namespace svss
