// Discrete-event simulation engine: private channels and an adversarial
// scheduler, plus the process host every backend shares.
//
// The engine is the substrate substituting for the paper's asynchronous
// network.  It serves n ITransport endpoints, owns the pool of in-flight
// packets, and delivers one packet per step in scheduler-priority order,
// with an age cap that guarantees eventual delivery, to the receiving
// endpoint's delivery sink.  Processes attach to its endpoints exactly as
// they attach to a socket: through a ProcessHost.  Determinism: a run is a
// pure function of (processes, scheduler, seed), so every failure is
// replayable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace svss {

// ----------------------------------------------------------------------
// Event log: structured trace of protocol-level events, consumed by tests
// and benchmarks to check the paper's properties (binding-or-shun,
// validity, coin probability bounds, agreement, ...).
// ----------------------------------------------------------------------

enum class EventKind : std::uint8_t {
  kShun,             // who starts shunning other (D_i addition or forever-delay)
  kMwShareComplete,  // who completed MW-SVSS share S' of sid
  kMwReconOutput,    // who output value (or bottom) in MW-SVSS R' of sid
  kSvssShareComplete,
  kSvssReconOutput,
  kCoinOutput,       // who output bit `value` in coin round sid.counter
  kAbaDecide,        // who decided `value`; other = round
};

struct Event {
  EventKind kind;
  int who = -1;
  int other = -1;
  SessionId sid;
  std::int64_t value = 0;
  bool has_value = false;  // false encodes bottom for recon outputs
};

class EventLog {
 public:
  void record(Event e) { events_.push_back(std::move(e)); }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  // All (i, j) pairs such that i started shunning j at some point.
  [[nodiscard]] std::vector<std::pair<int, int>> shun_pairs() const;

 private:
  std::vector<Event> events_;
};

// ----------------------------------------------------------------------
// Processes and the host that attaches them to a network
// ----------------------------------------------------------------------

// Slot `self`'s private random stream in a run seeded with `seed`: the
// self-th of sequential splits of one root (each split advances the root).
// Every host derives its stream here, so one seed deals the same values on
// every backend.
[[nodiscard]] Rng slot_rng(std::uint64_t seed, int self);

// Everything one process sees of the world: its id and system size, its
// own RNG stream, the event log it records into, and the ITransport
// endpoint that reaches its peers.
struct ProcessWorld {
  int self = 0;
  int n = 0;
  int t = 0;
  Rng rng{0};
  EventLog* log = nullptr;
  ITransport* transport = nullptr;
};

// Handle through which a process interacts with its world.  Passed to every
// callback; never stored by processes.  Sends go straight to the world's
// endpoint, whatever backend implements it.
class Context {
 public:
  explicit Context(ProcessWorld& world) : world_(&world) {}

  [[nodiscard]] int self() const { return world_->self; }
  [[nodiscard]] int n() const { return world_->n; }
  [[nodiscard]] int t() const { return world_->t; }
  Rng& rng() { return world_->rng; }
  EventLog& log() { return *world_->log; }

  // Sends `p` over the private channel self -> to.  Sending to self is
  // allowed and is delivered like any other packet.
  void send(int to, Packet p) { world_->transport->send(to, std::move(p)); }
  // Convenience: send a packet to every process (including self).
  void send_all(const Packet& p) { world_->transport->broadcast(p); }

 private:
  ProcessWorld* world_;
};

class IProcess {
 public:
  virtual ~IProcess() = default;
  virtual void start(Context& ctx) = 0;
  virtual void on_packet(Context& ctx, int from, const Packet& p) = 0;
};

// The one way a process attaches to a network, on every backend: a
// ProcessWorld over an ITransport endpoint plus the IProcess it runs.  The
// host installs itself as the endpoint's delivery sink when built and
// clears the endpoint's sink when destroyed; its world's id and size are
// the endpoint's.  Neither copyable nor movable: the sink captures its
// address.
class ProcessHost {
 public:
  // Hosts `proc` on `tr` with resilience `t`, the slot's stream of a run
  // seeded with `seed` (slot_rng), recording events into `log`.
  ProcessHost(std::unique_ptr<IProcess> proc, int t, std::uint64_t seed,
              ITransport& tr, EventLog& log);
  ~ProcessHost() { world_.transport->set_delivery(nullptr); }
  ProcessHost(const ProcessHost&) = delete;
  ProcessHost& operator=(const ProcessHost&) = delete;

  // Runs the process's start hook.  Call once, from the thread that
  // drives the endpoint.
  void start() {
    Context ctx(world_);
    proc_->start(ctx);
  }
  // A Context acting as this process, for actions outside a delivery.
  Context ctx() { return Context(world_); }
  ProcessWorld& world() { return world_; }
  IProcess& process() { return *proc_; }

 private:
  ProcessWorld world_;
  std::unique_ptr<IProcess> proc_;
};

// ----------------------------------------------------------------------
// Engine
// ----------------------------------------------------------------------

enum class RunStatus {
  kQuiescent,   // no packets left: every protocol ran to completion
  kDeliveryCap, // hit max_deliveries (used as a non-termination guard)
};

class Engine {
 public:
  Engine(int n, int t, std::uint64_t seed, std::unique_ptr<Scheduler> sched);
  ~Engine();

  // The seam: this engine viewed as process `id`'s ITransport endpoint.
  // send/broadcast enqueue through the scheduler (the send hook runs per
  // recipient first; a dropped packet is never metered), and every packet
  // delivered to `id` goes to the endpoint's delivery sink.
  ITransport& transport(int id);

  // Shorthand: hosts `p` on transport(id), seeded from the engine's seed
  // and recording into log(), replacing any process the engine hosts
  // there.  A slot driven by some other sink needs no process.
  void set_process(int id, std::unique_ptr<IProcess> p);
  // The host set_process built for `id`; throws if there is none.
  ProcessHost& host(int id);

  // Calls start() on every hosted process (in id order, on the first run
  // only), then delivers packets until quiescence or the delivery cap.
  RunStatus run(std::uint64_t max_deliveries = 50'000'000);

  // Delivers packets until `done()` returns true (early stop for
  // experiments that only need e.g. all honest decisions), quiescence, or
  // the cap.
  RunStatus run_until(const std::function<bool()>& done,
                      std::uint64_t max_deliveries = 50'000'000);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] EventLog& log() { return log_; }
  [[nodiscard]] const EventLog& log() const { return log_; }

  // Age cap: a packet skipped for more than this many deliveries is forced
  // through, guaranteeing eventual delivery under any scheduler.
  void set_max_lag(std::uint64_t lag) { max_lag_ = lag; }
  [[nodiscard]] std::uint64_t max_lag() const { return max_lag_; }

  // Packets in flight, and entries in the priority queue: the latter also
  // counts stale entries left by age-cap deliveries, and never exceeds
  // 2 * in_flight() + 64 between deliveries.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t queue_entries() const { return heap_.size(); }

  // The run's scheduler (for attaching a ScheduleView or inspecting it).
  Scheduler& scheduler() { return *sched_; }

  // Read-only tap on the delivery stream: called for every delivered packet
  // just before it is dispatched to its receiver.  This is the coverage
  // signal for schedule search (src/search/) — observing deliveries cannot
  // influence them, so replay stays byte-identical with or without an
  // observer installed.
  using DeliveryObserver =
      std::function<void(const PendingInfo&, const Packet&)>;
  void set_delivery_observer(DeliveryObserver obs) {
    observer_ = std::move(obs);
  }

 private:
  class SimPort;
  void enqueue(int from, int to, Packet&& p);
  void deliver_one();
  [[nodiscard]] bool idle() const { return in_flight_ == 0; }

  // One in-flight packet, stored in a reusable arena slot.
  struct Pending {
    Packet pkt;
    std::uint64_t seq = 0;
    std::uint64_t enqueue_step = 0;
    std::uint64_t depth = 0;
    std::int32_t from = -1;
    std::int32_t to = -1;
    bool live = false;
  };

  // Min-queue entry over arena slots, ordered by (priority, seq).  The keys
  // live in the entry, so sifting stays inside heap_ and never touches the
  // arena.  (priority, seq) is a strict total order — seq is unique — so
  // any correct min-queue pops exactly the same sequence; the queue's shape
  // can change without moving a single delivery or replay hash.
  struct HeapEntry {
    std::uint64_t priority;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq < b.seq;
  }
  // Whether packet `seq` is still in flight in `slot`.  False once it was
  // delivered: the slot is free, or reused under a later seq.  This is how
  // the heap and the fifo recognise each other's leftovers.
  [[nodiscard]] bool in_flight_at(std::uint32_t slot, std::uint64_t seq) const {
    return arena_[slot].live && arena_[slot].seq == seq;
  }
  void heap_push(const HeapEntry& e);
  HeapEntry heap_pop();
  void compact_queue();

  int n_;
  int t_;
  std::uint64_t seed_;
  std::unique_ptr<Scheduler> sched_;
  // One endpoint per id, then set_process's hosts, which detach from their
  // endpoints as they are destroyed (members die in reverse order).
  std::vector<SimPort> ports_;
  std::vector<std::optional<ProcessHost>> hosts_;
  // Arena of in-flight packets: slots are reused through free_slots_, so a
  // long run allocates a bounded number of Pending records regardless of
  // how many packets flow through.  heap_ orders slots by scheduler
  // priority; fifo_ records (slot, seq) in send order for the age cap.
  // Neither is indexed: a packet delivered through one leaves a stale entry
  // in the other, recognised by in_flight_at and skipped.
  // compact_queue bounds heap_'s stale entries to in_flight_ + 64.
  std::vector<Pending> arena_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  std::deque<std::pair<std::uint32_t, std::uint64_t>> fifo_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t max_lag_ = 1 << 20;
  std::uint64_t current_depth_ = 0;  // causal depth during a delivery
  std::vector<std::uint64_t> proc_depth_;
  DeliveryObserver observer_;
  Metrics metrics_;
  EventLog log_;
  bool started_ = false;
};

}  // namespace svss
