// svss::ServiceBuilder — the one front door for applications.
//
// Every example used to copy-paste RunnerConfig setup; the builder replaces
// that with a fluent surface covering both deployment shapes:
//
//   * build_runner(): an in-process Runner (sim backend by default, or
//     socket-loopback via transport(TransportKind::kSocketLoopback)) that
//     owns all n slots — the reproducible-experiment shape.
//   * build_daemon(self, cluster): ONE slot of a real multi-process
//     deployment — a Node over a net::SocketTransport bound to this
//     process's endpoint, dialing the peers in the ClusterConfig.  Each OS
//     process of the fleet builds its own.
//
// A daemon's stack is SocketTransport -> EpochTransport -> NodeDaemon:
// the epoch fence (core/epoch.hpp) sits between the wire and the protocol
// even in single-epoch deployments (epoch 0, identity membership), so
// reconfiguration and the catch-up control plane need no special wiring.
// enable_recovery() adds the checkpoint + journal persistence of
// core/recovery.hpp; recover() + catch_up() bring a restarted daemon back
// to the fleet's state.
//
// Unset fields get the library defaults (t = floor((n-1)/3), batched
// framings, sim backend).
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

#include "core/daemon.hpp"
#include "core/epoch.hpp"
#include "core/recovery.hpp"
#include "core/runner.hpp"
#include "net/endpoint.hpp"

namespace svss {

// One OS process of a socket-backed fleet: the transport endpoint plus the
// NodeDaemon driving a full protocol Node over it.
//
// Movable until start(); start() installs this-capturing hooks, so the
// object must sit at its final address from then on.
class DaemonService {
 public:
  DaemonService(int self, int n, int t, std::uint64_t seed,
                net::ClusterConfig cluster, const TransportOptions& opts);

  Node& node() { return daemon_->node(); }
  // A Context for injecting local actions (deals, inputs) between polls.
  Context ctx() { return Context(daemon_->world()); }
  net::SocketTransport& transport() { return *transport_; }
  EpochTransport& epoch_transport() { return *epoch_; }
  [[nodiscard]] std::uint32_t current_epoch() const {
    return epoch_->config().epoch;
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

  // --- reconfiguration -----------------------------------------------
  // Installs `next` at a boundary the caller has already agreed (drained
  // instances + a decided kEpochBoundaryInstance round).  Tears down the
  // old epoch's protocol stack and builds a fresh one at this slot's new
  // rank with the epoch's derived seed; a slot not in `next` becomes a
  // spectator (no stack) that still answers the control plane.  In-flight
  // next-epoch traffic buffered at the fence replays into the new stack.
  void advance_epoch(const EpochConfig& next);
  // Live endpoint replacement for a universe slot (a peer process was
  // swapped for one at a new address).
  void rebind_peer(int id, net::Endpoint ep) {
    transport_->rebind_peer(id, std::move(ep));
  }

  // --- crash recovery ------------------------------------------------
  // Persist decisions to `checkpoint_path` (+ ".journal"): every decision
  // is journaled immediately, and every `checkpoint_every` decisions the
  // full state checkpoints atomically and the journal truncates.  Call
  // before start(), on the object's final address.
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
  void install_hooks();
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
  TransportOptions opts_;
  std::unique_ptr<net::SocketTransport> transport_;
  std::unique_ptr<EpochTransport> epoch_;
  std::unique_ptr<NodeDaemon> daemon_;

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

class ServiceBuilder {
 public:
  ServiceBuilder& n(int value) {
    n_ = value;
    return *this;
  }
  ServiceBuilder& t(int value) {
    t_ = value;
    return *this;
  }
  ServiceBuilder& seed(std::uint64_t value) {
    seed_ = value;
    return *this;
  }
  ServiceBuilder& scheduler(SchedulerKind value) {
    scheduler_ = value;
    return *this;
  }
  ServiceBuilder& transport(TransportKind value) {
    options_.kind = value;
    return *this;
  }
  ServiceBuilder& fault(int id, ByzConfig behaviour) {
    faults_[id] = behaviour;
    return *this;
  }
  ServiceBuilder& max_deliveries(std::uint64_t value) {
    max_deliveries_ = value;
    return *this;
  }

  [[nodiscard]] RunnerConfig runner_config() const;
  [[nodiscard]] Runner build_runner() const { return Runner(runner_config()); }
  // This process as slot `self` of the fleet described by `cluster` (which
  // also fixes n; t defaults to floor((n-1)/3)).  Faults installed via
  // fault() apply to this slot only if `self` matches.
  [[nodiscard]] DaemonService build_daemon(int self,
                                           net::ClusterConfig cluster) const;

 private:
  int n_ = 4;
  std::optional<int> t_;
  std::uint64_t seed_ = 1;
  SchedulerKind scheduler_ = SchedulerKind::kRandom;
  TransportOptions options_;
  std::map<int, ByzConfig> faults_;
  std::uint64_t max_deliveries_ = 50'000'000;
};

}  // namespace svss
