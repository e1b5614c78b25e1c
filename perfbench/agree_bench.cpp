// Fixed-work agreement benchmark binary.
//
// Runs a fixed list of binary agreement instances, generated from --seed,
// on one workload and prints one JSON line holding every end-to-end
// metric, the per-layer metrics of a separate traced run (--trace 1), and
// the exact counters the self-test compares.  The stack is driven only
// through public seams: Runner::submit/run_submitted, LoopbackCluster,
// NodeDaemon over net::SocketTransport, NodeObservers::aba_decided,
// Engine::set_delivery_observer, RunnerConfig::scheduler_factory and the
// ITransport interface.  No message delay is injected anywhere, so every
// latency is processing time only.
//
//   perfbench_agree --workload <name> --seed <n> --batches <k> [--trace 0|1]
//
// Exit status is non-zero if any instance broke agreement or validity (on
// unanimous inputs), or, on the simulator, missed its deadline; the JSON
// line is printed either way.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bivariate.hpp"
#include "common/reed_solomon.hpp"
#include "core/daemon.hpp"
#include "core/runner.hpp"
#include "net/frame.hpp"
#include "net/socket_transport.hpp"

// ----------------------------------------------------------------------
// Heap accounting for peak_heap_mb
// ----------------------------------------------------------------------
// Every allocation in the process passes through these replacements.
// While counting is on (a separate heap pass, never the timed pass) they
// keep the live heap byte count and its high-water mark; otherwise they
// cost one relaxed load.  The heap pass restarts the count at each
// cluster's set-up and reads the mark after teardown, so a run can report
// a typical cluster's peak rather than the single worst cluster's, which
// is what process RSS would show.
namespace {
std::atomic<bool> g_heap_counting{false};
std::atomic<std::int64_t> g_heap_live{0};
std::atomic<std::int64_t> g_heap_peak{0};

void note_alloc(void* p) {
  auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  std::int64_t live =
      g_heap_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_heap_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_heap_counting.load(std::memory_order_relaxed)) note_alloc(p);
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  if (g_heap_counting.load(std::memory_order_relaxed)) {
    g_heap_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                          std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

// Blocks freed during a cluster but allocated before it drive the count
// below zero; only the peak above the cluster's start is read.
void reset_heap_peak() {
  g_heap_live.store(0, std::memory_order_relaxed);
  g_heap_peak.store(0, std::memory_order_relaxed);
}
double current_heap_peak_mb() {
  return static_cast<double>(g_heap_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

using namespace svss;
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

// ----------------------------------------------------------------------
// Workloads and their generated instances
// ----------------------------------------------------------------------

struct Workload {
  const char* name;
  int n;
  int t;
  bool tcp;
  CoinMode mode;
  std::uint32_t per_batch;  // concurrent instances per cluster
};

constexpr Workload kWorkloads[] = {
    {"sim-ideal-n7", 7, 2, false, CoinMode::kIdealCommon, 16},
    {"sim-svss-n4", 4, 1, false, CoinMode::kSvss, 1},
    {"tcp-ideal-n4", 4, 1, true, CoinMode::kIdealCommon, 16},
};

// A run stops a sim batch here and counts its undecided instances as
// failed; honest batches stay below 1M deliveries.
constexpr std::uint64_t kSimDeliveryCap = 20'000'000;
// Per-batch deadline on TCP; an honest batch takes about 50 ms.
constexpr int kTcpBatchDeadlineMs = 5'000;
// Wall-clock budget of the whole process.  Batches not started by then
// count as attempted and failed, so a run whose batches stall at their
// deadlines still ends, and reports, within a caller's time limit.
constexpr std::chrono::seconds kRunBudget{150};

// One input bit per node.  `unanimous` is the shared input when all nodes
// hold the same bit (validity is then checked), -1 for split inputs.
struct Instance {
  std::vector<int> inputs;
  int unanimous = -1;
};

// Exactly one instance in each consecutive four is unanimous, at a
// seed-chosen position; the others are split (never all-equal).
std::vector<Instance> make_instances(const Workload& w, std::uint64_t seed,
                                     std::size_t count) {
  Rng rng(mix64(seed) ^ static_cast<std::uint64_t>(w.n * 131 + w.tcp));
  std::vector<Instance> out(count);
  std::size_t pick = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 4 == 0) pick = i + rng.next_below(4);
    Instance& inst = out[i];
    inst.inputs.assign(static_cast<std::size_t>(w.n), 0);
    if (i == pick) {
      inst.unanimous = rng.next_bool() ? 1 : 0;
      std::fill(inst.inputs.begin(), inst.inputs.end(), inst.unanimous);
      continue;
    }
    for (int& b : inst.inputs) b = rng.next_bool() ? 1 : 0;
    if (std::all_of(inst.inputs.begin(), inst.inputs.end(),
                    [&](int b) { return b == inst.inputs[0]; })) {
      inst.inputs[rng.next_below(static_cast<std::uint64_t>(w.n))] ^= 1;
    }
  }
  return out;
}

std::uint64_t batch_seed(std::uint64_t seed, std::size_t batch) {
  return mix64(seed * 0x100000001B3ULL + batch + 1);
}

// ----------------------------------------------------------------------
// Per-layer attribution of deliveries
// ----------------------------------------------------------------------

enum Layer : std::uint8_t { kAba, kRbc, kCoin, kSvss, kMwsvss, kOther, kLayers };
constexpr const char* kLayerNames[kLayers] = {"aba",  "rbc",    "coin",
                                              "svss", "mwsvss", "other"};

Layer owner_layer(MsgType type) {
  bool batched = false;
  std::string_view group = Metrics::type_group(type, &batched);
  if (group == "aba") return kAba;
  if (group == "coin") return kCoin;
  if (group.starts_with("svss")) return kSvss;
  if (group.starts_with("mw")) return kMwsvss;
  return kOther;
}

struct ReadyKey {
  BcastId bid;
  int to;
  friend bool operator==(const ReadyKey&, const ReadyKey&) = default;
};
struct ReadyKeyHash {
  std::size_t operator()(const ReadyKey& k) const {
    return BcastIdHash{}(k.bid) ^
           (static_cast<std::size_t>(k.to) * 0x9E3779B97F4A7C15ULL);
  }
};

// Attributes each delivery to the layer that handles it.  A direct message
// belongs to the layer owning its MsgType.  An RB step belongs to rbc,
// unless it is the (n-t)-th READY its receiver sees for the broadcast: that
// step makes RBC accept and hand the payload up, so it belongs to the
// layer owning bid.slot, grouped as Metrics::type_group groups it.  Exact
// for honest runs, where every READY of a broadcast carries one value.
class LayerTally {
 public:
  LayerTally(int n, int t) : accept_at_(n - t) {}

  Layer classify(int to, const Packet& p) {
    if (!p.is_rb) return owner_layer(p.app.type);
    if (p.phase == RbPhase::kSend) rb_sends.push_back(p.value);
    if (p.phase != RbPhase::kReady) return kRbc;
    int& seen = readies_[ReadyKey{p.bid, to}];
    return ++seen == accept_at_ ? owner_layer(p.bid.slot) : kRbc;
  }
  // RB instance ids restart with every cluster.
  void new_cluster() { readies_.clear(); }

  void merge(const LayerTally& o) {
    for (int l = 0; l < kLayers; ++l) {
      deliveries[l] += o.deliveries[l];
      busy_us[l] += o.busy_us[l];
    }
  }

  std::array<std::uint64_t, kLayers> deliveries{};
  std::array<double, kLayers> busy_us{};
  // Payloads of delivered RB SEND steps: one per receiver per broadcast,
  // the same set RBC parses with Message::deserialize when it accepts.
  std::vector<std::shared_ptr<const Bytes>> rb_sends;

 private:
  int accept_at_;
  std::unordered_map<ReadyKey, int, ReadyKeyHash> readies_;
};

// Exact quantiles of a stream of small counts.
class CountHistogram {
 public:
  void add(std::uint64_t v) {
    ++total_;
    if (v < small_.size()) {
      ++small_[v];
    } else {
      ++big_[v];
    }
  }
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < small_.size(); ++v) {
      seen += small_[v];
      if (seen > rank) return v;
    }
    for (const auto& [v, c] : big_) {
      seen += c;
      if (seen > rank) return v;
    }
    return 0;
  }

 private:
  std::vector<std::uint64_t> small_ = std::vector<std::uint64_t>(1 << 16);
  std::map<std::uint64_t, std::uint64_t> big_;
  std::uint64_t total_ = 0;
};

// Trace state of one simulated cluster run.  The delivery observer closes
// a span at every delivery and books it, minus the scheduler time spent
// inside it, to the layer of the delivery that opened it.
struct SimTrace {
  SimTrace(int n, int t) : tally(n, t) {}

  void begin_cluster(Clock::time_point now) {
    tally.new_cluster();
    mark = now;
    open = kAba;  // the first span runs the start_aba actions
    sched_in_span_us = 0;
    delivered = 0;
    sent_at.clear();
  }
  void close_span(Clock::time_point now) {
    tally.busy_us[open] += us_between(mark, now) - sched_in_span_us;
    sched_in_span_us = 0;
    mark = now;
  }
  void on_send(std::uint64_t seq, double sched_us_spent) {
    sched_in_span_us += sched_us_spent;
    sched_us += sched_us_spent;
    if (seq == sent_at.size()) sent_at.push_back(delivered);
    inflight_max = std::max(inflight_max, seq + 1 - delivered);
  }
  void on_delivery(const PendingInfo& info, const Packet& p,
                   Clock::time_point now) {
    close_span(now);
    if (info.seq < sent_at.size()) waits.add(delivered - sent_at[info.seq]);
    ++delivered;
    ++delivered_total;
    open = tally.classify(info.to, p);
    tally.deliveries[open]++;
  }

  LayerTally tally;
  Clock::time_point mark;
  Layer open = kAba;
  double sched_in_span_us = 0;
  double sched_us = 0;
  std::uint64_t delivered = 0;  // this cluster
  std::uint64_t delivered_total = 0;
  std::vector<std::uint64_t> sent_at;  // by send seq: deliveries so far
  std::uint64_t inflight_max = 0;
  CountHistogram waits;  // deliveries between a packet's send and delivery
};

// Returns the wrapped scheduler's priorities unchanged (same calls, same
// RNG draws) and times each priority() call.
class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(std::unique_ptr<Scheduler> inner, SimTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::uint64_t priority(const PendingInfo& p) override {
    if (!attached_) {
      inner_->attach(view());
      attached_ = true;
    }
    auto a = Clock::now();
    std::uint64_t pr = inner_->priority(p);
    trace_.on_send(p.seq, us_between(a, Clock::now()));
    return pr;
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  SimTrace& trace_;
  bool attached_ = false;
};

// ITransport decorator for the traced TCP run: times sends into the
// socket backend and every delivery handler, and keeps what the codec
// replays need.  Deliveries never nest (the socket loop drains self-sends
// from a queue), so one span is open at a time.
class TimingTransport final : public ITransport {
 public:
  TimingTransport(ITransport& inner, int n, int t)
      : tally(n, t), inner_(inner) {}

  void send(int to, Packet p) override {
    auto a = Clock::now();
    if (to != inner_.self()) sent.emplace_back(p, 1);
    auto b = Clock::now();
    inner_.send(to, std::move(p));
    auto c = Clock::now();
    send_us += us_between(b, c);
    nested_us_ += us_between(a, c);
  }
  void broadcast(const Packet& p) override {
    auto a = Clock::now();
    sent.emplace_back(p, inner_.n() - 1);
    auto b = Clock::now();
    inner_.broadcast(p);
    auto c = Clock::now();
    send_us += us_between(b, c);
    nested_us_ += us_between(a, c);
  }
  void set_delivery(Delivery sink) override {
    sink_ = std::move(sink);
    inner_.set_delivery(
        [this](int from, Packet p) { deliver(from, std::move(p)); });
  }
  void set_send_hook(SendHook hook) override {
    inner_.set_send_hook(std::move(hook));
  }
  [[nodiscard]] int self() const override { return inner_.self(); }
  [[nodiscard]] int n() const override { return inner_.n(); }

  // Runs `fn` as a span of `layer`; sends inside it are booked to net.
  template <class F>
  void timed(Layer layer, F&& fn) {
    double nested0 = nested_us_;
    auto a = Clock::now();
    fn();
    double dur = us_between(a, Clock::now());
    handler_us += dur;
    tally.busy_us[layer] += dur - (nested_us_ - nested0);
  }

  LayerTally tally;
  std::uint64_t delivered = 0;
  double handler_us = 0;
  double send_us = 0;
  double poll_us = 0;  // poll() calls that delivered: minus handler time
  double idle_us = 0;  // poll() calls that delivered nothing
  std::vector<std::pair<Packet, int>> sent;  // (packet, framed copies)

 private:
  void deliver(int from, Packet p) {
    Layer layer = tally.classify(inner_.self(), p);
    tally.deliveries[layer]++;
    ++delivered;
    timed(layer, [&] { sink_(from, std::move(p)); });
  }

  ITransport& inner_;
  Delivery sink_;
  double nested_us_ = 0;
};

// ----------------------------------------------------------------------
// Run accounting
// ----------------------------------------------------------------------

// One pass over the batches.  Every batch builds exactly one cluster, so
// the per-cluster vectors are indexed by batch.  Times are raw wall clock;
// scale_times() turns them into the reported ones.
struct RunTotals {
  // Books one cluster whose set-up began at `s0`, once it is torn down;
  // `waited` seconds of its lifetime were spent waiting on a timer.
  void finish_cluster(Clock::time_point s0, const Metrics& m,
                      double waited = 0) {
    cluster_s.push_back(us_between(s0, Clock::now()) / 1e6);
    timer_s.push_back(waited);
    metrics.merge(m);
    if (g_heap_counting.load(std::memory_order_relaxed)) {
      heap_peak_mb.push_back(current_heap_peak_mb());
    }
  }
  [[nodiscard]] std::size_t clusters() const { return cluster_s.size(); }

  std::uint64_t attempted = 0;
  std::uint64_t decided = 0;     // decided by every honest node, correctly
  std::uint64_t failed = 0;      // undecided at the deadline or wrong
  std::uint64_t violations = 0;  // disagreement or broken validity
  std::vector<double> latency_ms;
  std::vector<std::uint32_t> latency_batch;  // batch of each sample
  std::vector<double> setup_s;       // per cluster
  std::vector<double> cluster_s;     // lifetime per cluster, set-up included
  std::vector<double> timer_s;       // the part of it spent waiting on a timer
  std::vector<double> probe_us;      // host probe before each batch and after the last
  std::vector<double> heap_peak_mb;  // per cluster, heap pass only
  Metrics metrics;
  std::uint64_t depth_sum = 0;
  double linger_ms_sum = 0;
  std::uint64_t linger_batches = 0;
  std::uint64_t digest = 1469598103934665603ULL;
  bool thread_error = false;
};

// Per-node decision of one instance; nullopt if undecided.
using Decisions = std::vector<std::optional<std::pair<int, std::uint32_t>>>;

// Checks one run of an instance; true iff every node decided, all agree,
// and a unanimous instance decided its input.
bool judge(const Instance& inst, std::uint32_t id, const Decisions& per_node,
           RunTotals& tot) {
  ++tot.attempted;
  bool all = true;
  bool agree = true;
  int value = -1;
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const auto& d = per_node[i];
    if (!d) {
      all = false;
      tot.digest = fnv_fold(tot.digest, 0xFFFF);
      continue;
    }
    if (value < 0) value = d->first;
    if (d->first != value) agree = false;
    tot.digest = fnv_fold(tot.digest, (std::uint64_t{id} << 32) |
                                          (i << 24) | (std::uint64_t{d->second} << 1) |
                                          static_cast<std::uint64_t>(d->first));
  }
  bool valid = inst.unanimous < 0 || value < 0 || value == inst.unanimous;
  if (!all) {
    ++tot.failed;
  } else if (!agree || !valid) {
    ++tot.failed;
    ++tot.violations;
  } else {
    ++tot.decided;
  }
  if (!agree || !valid) {
    std::fprintf(stderr, "instance %u: %s\n", id,
                 agree ? "validity broken" : "honest nodes disagree");
  }
  return all && agree && valid;
}

// Last honest decide time per instance, minus the batch start.
double instance_latency_ms(const std::vector<Clock::time_point>& decided_at,
                           std::size_t k, int n, Clock::time_point start) {
  Clock::time_point last = start;
  for (int i = 0; i < n; ++i) {
    last = std::max(last, decided_at[k * static_cast<std::size_t>(n) +
                                      static_cast<std::size_t>(i)]);
  }
  return us_between(start, last) / 1000.0;
}

std::function<void(Context&, int, std::uint32_t, std::uint32_t)>
record_decides(std::vector<Clock::time_point>& decided_at, int self, int n) {
  return [&decided_at, self, n](Context&, int, std::uint32_t,
                                std::uint32_t instance) {
    std::size_t idx = static_cast<std::size_t>(instance) *
                          static_cast<std::size_t>(n) +
                      static_cast<std::size_t>(self);
    if (idx < decided_at.size()) decided_at[idx] = Clock::now();
  };
}

std::function<void(Context&, Node&)> start_instances(
    const Instance* insts, std::uint32_t count, int self, CoinMode mode,
    std::uint64_t coin_seed) {
  std::vector<int> inputs;
  for (std::uint32_t k = 0; k < count; ++k) {
    inputs.push_back(insts[k].inputs[static_cast<std::size_t>(self)]);
  }
  return [inputs, mode, coin_seed](Context& c, Node& nd) {
    for (std::uint32_t k = 0; k < inputs.size(); ++k) {
      nd.start_aba(c, inputs[k], mode, coin_seed, k);
    }
  };
}

bool all_decided(const Node& nd, std::uint32_t count) {
  for (std::uint32_t k = 0; k < count; ++k) {
    const AbaSession* a = nd.aba(k);
    if (a == nullptr || !a->decided()) return false;
  }
  return true;
}

Decisions collect(const std::function<Node&(int)>& node, int n,
                  std::uint32_t k) {
  Decisions out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const AbaSession* a = node(i).aba(k);
    if (a != nullptr && a->decided()) {
      out[static_cast<std::size_t>(i)] =
          std::make_pair(a->decision(), a->decision_round());
    }
  }
  return out;
}

// Replayed codec costs of the traced run.
struct CodecTotals {
  double deserialize_us = 0;
  double encode_us = 0;
  double decode_us = 0;
  std::uint64_t bad = 0;  // payloads or frames that failed to round-trip
};

void replay_deserialize(LayerTally& tally, CodecTotals& codec) {
  std::uint64_t parsed = 0;
  auto a = Clock::now();
  for (const auto& payload : tally.rb_sends) {
    if (payload && Message::deserialize(*payload)) ++parsed;
  }
  codec.deserialize_us += us_between(a, Clock::now());
  codec.bad += tally.rb_sends.size() - parsed;
  tally.rb_sends.clear();
}

// Frames every packet sent to a remote peer (append_packet_frame), then
// delimits and parses the byte stream again (FrameDecoder, decode_packet).
void replay_frames(std::vector<std::pair<Packet, int>>& sent,
                   CodecTotals& codec) {
  Bytes stream;
  std::uint64_t frames = 0;
  auto a = Clock::now();
  for (const auto& [p, copies] : sent) {
    for (int c = 0; c < copies; ++c) {
      net::append_packet_frame(stream, p);
      ++frames;
    }
  }
  auto b = Clock::now();
  constexpr std::size_t kChunk = 64 * 1024;
  net::FrameDecoder decoder;
  std::uint64_t decoded = 0;
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    decoder.feed(stream.data() + off, std::min(kChunk, stream.size() - off));
    while (auto f = decoder.next()) {
      if (net::decode_packet(*f)) ++decoded;
    }
  }
  auto c = Clock::now();
  codec.encode_us += us_between(a, b);
  codec.decode_us += us_between(b, c);
  codec.bad += frames - decoded;
  sent.clear();
}

// ----------------------------------------------------------------------
// Simulator batches
// ----------------------------------------------------------------------

// Each batch runner returns the latency of every instance in ms, or -1
// where the instance failed.
using Latencies = std::vector<double>;

Latencies run_sim_batch(const Workload& w, std::uint64_t seed,
                        const Instance* insts, std::uint32_t count,
                        SimTrace* trace, CodecTotals* codec, RunTotals& tot) {
  RunnerConfig cfg;
  cfg.n = w.n;
  cfg.t = w.t;
  cfg.seed = seed;
  cfg.scheduler = SchedulerKind::kRandom;
  cfg.max_deliveries = kSimDeliveryCap;
  if (trace != nullptr) {
    cfg.scheduler_factory = [trace](std::uint64_t s, int n, int t) {
      return std::make_unique<TimedScheduler>(
          make_scheduler(SchedulerKind::kRandom, s, n, t), *trace);
    };
  }
  const auto n = static_cast<std::size_t>(w.n);
  std::vector<Clock::time_point> decided_at(count * n);

  reset_heap_peak();
  auto s0 = Clock::now();
  auto runner = std::make_unique<Runner>(cfg);
  auto s1 = Clock::now();
  tot.setup_s.push_back(us_between(s0, s1) / 1e6);
  for (int i = 0; i < w.n; ++i) {
    runner->node(i).observers.aba_decided = record_decides(decided_at, i, w.n);
  }
  for (std::uint32_t k = 0; k < count; ++k) runner->submit(k, insts[k].inputs);
  if (trace != nullptr) {
    runner->engine().set_delivery_observer(
        [trace](const PendingInfo& info, const Packet& p) {
          trace->on_delivery(info, p, Clock::now());
        });
    trace->begin_cluster(Clock::now());
  }
  auto t0 = Clock::now();
  Runner::MultiAbaResult res = runner->run_submitted(w.mode);
  if (trace != nullptr) trace->close_span(Clock::now());

  Latencies lat(count, -1);
  for (std::uint32_t k = 0; k < count; ++k) {
    Decisions d = collect([&](int i) -> Node& { return runner->node(i); },
                          w.n, k);
    if (judge(insts[k], k, d, tot)) {
      lat[k] = instance_latency_ms(decided_at, k, w.n, t0);
    }
  }
  tot.depth_sum += res.metrics.max_depth;
  runner.reset();
  tot.finish_cluster(s0, res.metrics);
  if (codec != nullptr) replay_deserialize(trace->tally, *codec);
  return lat;
}

// ----------------------------------------------------------------------
// TCP batches
// ----------------------------------------------------------------------

// The shipped shape: one LoopbackCluster per batch.
Latencies run_tcp_batch(const Workload& w, std::uint64_t seed,
                        const Instance* insts, std::uint32_t count,
                        RunTotals& tot) {
  LoopbackOptions opts;
  opts.n = w.n;
  opts.t = w.t;
  opts.seed = seed;
  opts.timeout_ms = kTcpBatchDeadlineMs;
  const auto n = static_cast<std::size_t>(w.n);
  std::vector<Clock::time_point> decided_at(count * n);

  reset_heap_peak();
  auto s0 = Clock::now();
  auto cluster = std::make_unique<LoopbackCluster>(opts);
  auto s1 = Clock::now();
  tot.setup_s.push_back(us_between(s0, s1) / 1e6);
  for (int i = 0; i < w.n; ++i) {
    cluster->node(i).set_start_action(
        start_instances(insts, count, i, w.mode, seed ^ 0xC01Full));
    cluster->node(i).observers.aba_decided = record_decides(decided_at, i, w.n);
  }
  auto t0 = Clock::now();
  bool finished = cluster->run(
      [count](const Node& nd) { return all_decided(nd, count); },
      [](int) { return true; });
  auto t1 = Clock::now();

  Latencies lat(count, -1);
  for (std::uint32_t k = 0; k < count; ++k) {
    Decisions d = collect([&](int i) -> Node& { return cluster->node(i); },
                          w.n, k);
    if (judge(insts[k], k, d, tot)) {
      lat[k] = instance_latency_ms(decided_at, k, w.n, t0);
    }
  }
  double linger_s = 0;
  if (finished) {
    Clock::time_point last = t0;
    for (const auto& tp : decided_at) last = std::max(last, tp);
    linger_s = us_between(last, t1) / 1e6;
    tot.linger_ms_sum += linger_s * 1000.0;
    ++tot.linger_batches;
  }
  Metrics m = cluster->merged_metrics();
  cluster.reset();
  tot.finish_cluster(s0, m, linger_s);
  return lat;
}

struct TcpTrace {
  TcpTrace(int n, int t) : tally(n, t) {}
  LayerTally tally;
  double send_us = 0;
  double poll_us = 0;
  double idle_us = 0;
};

// The traced shape: the same cluster built from NodeDaemons over
// SocketTransports on kernel-assigned ports, with a TimingTransport
// between each daemon and its socket, driven by the loop LoopbackCluster
// runs (poll until every slot is done, 50 ms epoll tick).
void run_tcp_traced_batch(const Workload& w, std::uint64_t seed,
                          const Instance* insts, std::uint32_t count,
                          TcpTrace& trace, CodecTotals& codec,
                          RunTotals& tot) {
  const auto n = static_cast<std::size_t>(w.n);
  std::vector<Clock::time_point> decided_at(count * n);
  reset_heap_peak();
  auto s0 = Clock::now();
  std::vector<std::unique_ptr<net::SocketTransport>> socks;
  std::vector<std::unique_ptr<TimingTransport>> timers;
  std::vector<std::unique_ptr<NodeDaemon>> daemons;
  net::ClusterConfig wild;
  wild.peers.assign(n, net::Endpoint{});
  for (int i = 0; i < w.n; ++i) {
    socks.push_back(std::make_unique<net::SocketTransport>(i, wild));
    if (!socks.back()->open()) {
      throw std::runtime_error("traced cluster: failed to bind listener");
    }
  }
  for (auto& s : socks) {
    for (int p = 0; p < w.n; ++p) {
      s->set_peer(p, net::Endpoint{"127.0.0.1",
                                   socks[static_cast<std::size_t>(p)]
                                       ->bound_port()});
    }
  }
  for (int i = 0; i < w.n; ++i) {
    timers.push_back(std::make_unique<TimingTransport>(
        *socks[static_cast<std::size_t>(i)], w.n, w.t));
    daemons.push_back(std::make_unique<NodeDaemon>(
        i, w.n, w.t, seed, *timers.back(), TransportOptions{}));
    Node& nd = daemons.back()->node();
    nd.set_start_action(
        start_instances(insts, count, i, w.mode, seed ^ 0xC01Full));
    nd.observers.aba_decided = record_decides(decided_at, i, w.n);
  }
  tot.setup_s.push_back(us_between(s0, Clock::now()) / 1e6);

  std::atomic<int> done_count{0};
  std::atomic<bool> thread_error{false};
  auto t0 = Clock::now();
  {
    // jthreads join at scope exit, also if a later thread fails to start.
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        try {
          NodeDaemon& d = *daemons[i];
          net::SocketTransport& sock = *socks[i];
          TimingTransport& tt = *timers[i];
          tt.timed(kAba, [&] { d.start(); });
          bool counted = false;
          auto deadline =
              Clock::now() + std::chrono::milliseconds(kTcpBatchDeadlineMs);
          for (;;) {
            if (!counted && all_decided(d.node(), count)) {
              counted = true;
              done_count.fetch_add(1, std::memory_order_acq_rel);
            }
            if (done_count.load(std::memory_order_acquire) >= w.n) break;
            auto now = Clock::now();
            if (now >= deadline) break;
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
            std::uint64_t delivered0 = tt.delivered;
            double handler0 = tt.handler_us;
            sock.poll(static_cast<int>(std::min<long long>(left, 50)));
            double dur = us_between(now, Clock::now());
            if (tt.delivered == delivered0) {
              tt.idle_us += dur;
            } else {
              tt.poll_us += dur - (tt.handler_us - handler0);
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "traced slot %zu: %s\n", i, e.what());
          thread_error.store(true);
        }
      });
    }
  }
  auto t1 = Clock::now();
  tot.thread_error = tot.thread_error || thread_error.load();

  for (std::uint32_t k = 0; k < count; ++k) {
    Decisions d = collect(
        [&](int i) -> Node& {
          return daemons[static_cast<std::size_t>(i)]->node();
        },
        w.n, k);
    judge(insts[k], k, d, tot);
  }
  double linger_s = 0;
  if (done_count.load() >= w.n) {
    Clock::time_point last = t0;
    for (const auto& tp : decided_at) last = std::max(last, tp);
    linger_s = us_between(last, t1) / 1e6;
    tot.linger_ms_sum += linger_s * 1000.0;
    ++tot.linger_batches;
  }
  Metrics m;
  for (const auto& s : socks) m.merge(s->metrics());
  daemons.clear();
  for (auto& s : socks) s->shutdown();
  tot.finish_cluster(s0, m, linger_s);

  for (auto& tt : timers) {
    trace.tally.merge(tt->tally);
    trace.send_us += tt->send_us;
    trace.poll_us += tt->poll_us;
    trace.idle_us += tt->idle_us;
    replay_deserialize(tt->tally, codec);
    replay_frames(tt->sent, codec);
  }
}

// ----------------------------------------------------------------------
// Field-kernel timings (n = 4, t = 1)
// ----------------------------------------------------------------------

volatile std::uint64_t g_sink = 0;

struct KernelTimes {
  double rs_decode_us = 0;
  double bivariate_shares_us = 0;
  bool ok = true;
};

KernelTimes time_kernels(std::uint64_t seed) {
  constexpr int kN = 4;
  constexpr int kT = 1;
  constexpr int kInputs = 64;
  constexpr int kCalls = 40'000;
  Rng rng(mix64(seed ^ 0xF1E1DULL));
  KernelTimes out;

  // Codewords of a degree-t polynomial at x = 1..n with one wrong point:
  // Berlekamp-Welch corrects it (n >= t + 1 + 2e for e = t).
  std::vector<std::vector<std::pair<Fp, Fp>>> words(kInputs);
  std::vector<Fp> secrets(kInputs);
  for (int s = 0; s < kInputs; ++s) {
    secrets[s] = rng.next_field();
    Polynomial poly = Polynomial::random_with_constant(secrets[s], kT, rng);
    for (int x = 1; x <= kN; ++x) {
      words[s].emplace_back(Fp(x), poly.eval(Fp(x)));
    }
    words[s][rng.next_below(kN)].second += Fp(1 + rng.next_below(1000));
  }
  auto a = Clock::now();
  for (int k = 0; k < kCalls; ++k) {
    auto p = rs_decode(words[k % kInputs], kT, kT);
    if (!p || p->constant() != secrets[k % kInputs]) out.ok = false;
  }
  out.rs_decode_us = us_between(a, Clock::now()) / kCalls;

  std::vector<BivariatePolynomial> polys;
  for (int s = 0; s < kInputs; ++s) {
    polys.push_back(
        BivariatePolynomial::random_with_secret(rng.next_field(), kT, rng));
  }
  FieldVec shares;
  FieldVec scratch;
  std::uint64_t sink = 0;
  a = Clock::now();
  for (int k = 0; k < kCalls; ++k) {
    shares.clear();
    polys[k % kInputs].append_share_points(1 + k % kN, kN, shares, scratch);
    sink += shares.back().value();
  }
  out.bivariate_shares_us = us_between(a, Clock::now()) / kCalls;
  g_sink = sink;
  shares.clear();
  polys[0].append_share_points(1, kN, shares, scratch);
  FieldVec want = polys[0].row(1).evaluate_range(kN);
  FieldVec col = polys[0].column(1).evaluate_range(kN);
  want.insert(want.end(), col.begin(), col.end());
  if (shares != want) out.ok = false;
  return out;
}

// ----------------------------------------------------------------------
// Host speed
// ----------------------------------------------------------------------
// On a machine shared with other tenants the processor's speed drifts: on
// the reference machine a fixed single-threaded loop ran anywhere from 1x
// to 2.4x its fastest time, in stretches lasting seconds, and every wall
// time of the benchmark drifted with it.  So before each batch, and after
// the last, the benchmark times a fixed probe of its own (random
// read-modify-writes over a table in L2, none of the repository's code),
// and reports every time of a batch scaled by kProbeNominalUs over the
// median of the probes around it: the time the batch would have taken at
// the probe's nominal speed.  Time spent waiting on a timer (the tcp
// cluster's last epoll tick) is not scaled.  No change to the program can
// move the probe, so scaling keeps a change's whole effect and removes
// most of the host's.

// The probe's time on the reference machine in its faster stretches.
constexpr double kProbeNominalUs = 160;
// Probes either side of a batch whose median scales it.
constexpr std::size_t kProbeWindow = 4;

// The probe owns its memory and warms it before timing, so nothing the
// program leaves behind (heap fragmentation, evicted cache lines) moves it.
double probe_us() {
  constexpr std::size_t kSlots = 32 * 1024;  // 256 KiB: within L2
  constexpr int kOps = 60'000;
  static std::array<std::uint64_t, kSlots> table{};
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kSlots; i += 8) sum += table[i];
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  auto a = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t& slot = table[(x >> 40) & (kSlots - 1)];
    slot = mix64(slot ^ x);
    if ((slot & 3) == 0) sum += slot >> 7;
  }
  double us = us_between(a, Clock::now());
  g_sink = g_sink + sum + x;
  return us;
}

// Per batch: nominal over the median of the probes in its window.
std::vector<double> speed_factors(const std::vector<double>& probes,
                                  std::size_t batches) {
  std::vector<double> out(batches, 1.0);
  for (std::size_t b = 0; b < batches && !probes.empty(); ++b) {
    std::size_t lo = b + 1 > kProbeWindow ? b + 1 - kProbeWindow : 0;
    std::size_t hi = std::min(probes.size(), b + 1 + kProbeWindow);
    std::vector<double> near(probes.begin() + static_cast<std::ptrdiff_t>(lo),
                             probes.begin() + static_cast<std::ptrdiff_t>(hi));
    std::nth_element(near.begin(), near.begin() + near.size() / 2, near.end());
    out[b] = kProbeNominalUs / near[near.size() / 2];
  }
  return out;
}

// The reported times of one pass.
struct ScaledTimes {
  double wall_s = 0;  // sum of cluster lifetimes
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
};

ScaledTimes scale_times(const RunTotals& tot) {
  std::vector<double> f = speed_factors(tot.probe_us, tot.clusters());
  ScaledTimes out;
  for (std::size_t b = 0; b < tot.clusters(); ++b) {
    double waited = tot.timer_s[b];
    out.wall_s += (tot.cluster_s[b] - waited) * f[b] + waited;
    out.setup_s.push_back(tot.setup_s[b] * f[b]);
  }
  for (std::size_t i = 0; i < tot.latency_ms.size(); ++i) {
    out.latency_ms.push_back(tot.latency_ms[i] * f[tot.latency_batch[i]]);
  }
  return out;
}

// ----------------------------------------------------------------------
// Output
// ----------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Latency percentile of a pass: the median, over stretches of consecutive
// samples (batch order), of each stretch's q-quantile.  A burst of load on
// the shared host spoils a stretch or two, not the median; a change that
// slows some share of all batches moves every stretch alike.  Each stretch
// holds at least kStretchMin samples, so at least ten lie beyond its p95.
constexpr std::size_t kStretches = 10;
constexpr std::size_t kStretchMin = 200;

double stretch_percentile(const std::vector<double>& v, double q) {
  std::size_t k = std::clamp<std::size_t>(v.size() / kStretchMin, 1, kStretches);
  std::vector<double> per;
  for (std::size_t i = 0; i < k; ++i) {
    auto lo = static_cast<std::ptrdiff_t>(v.size() * i / k);
    auto hi = static_cast<std::ptrdiff_t>(v.size() * (i + 1) / k);
    per.push_back(percentile({v.begin() + lo, v.begin() + hi}, q));
  }
  return percentile(per, 0.5);
}

// Mean of the middle half: per-cluster heap peaks jump between allocator
// and hash-table size classes, so a plain median flips between modes.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t lo = v.size() / 4;
  std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(key, std::isfinite(v) ? buf : "null");
  }
  void count(const std::string& key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void boolean(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  void obj(const std::string& key, const JsonObject& o) { add(key, o.text()); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

JsonObject counts_of(const RunTotals& tot) {
  JsonObject c;
  c.count("attempted", tot.attempted);
  c.count("decided", tot.decided);
  c.count("failed", tot.failed);
  c.count("packets_sent", tot.metrics.packets_sent);
  c.count("bytes_sent", tot.metrics.bytes_sent);
  c.count("packets_delivered", tot.metrics.packets_delivered);
  c.count("depth_sum", tot.depth_sum);
  c.str("decision_digest", std::to_string(tot.digest));
  return c;
}

double per(double v, std::uint64_t decisions) {
  return decisions == 0 ? 0 : v / static_cast<double>(decisions);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t batches = 0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--batches") {
      a.batches = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else {
      throw std::invalid_argument("unknown flag " + std::string(k));
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  if (a.batches == 0) throw std::invalid_argument("--batches must be >= 1");
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload");
  std::vector<Instance> insts =
      make_instances(*w, args.seed, std::size_t{args.batches} * w->per_batch);
  const auto budget_end = Clock::now() + kRunBudget;

  // Runs the first `batches` batches once each.  The heap pass counts the
  // heap and skips the host probes; the other passes do the reverse.
  auto run_all = [&](std::uint32_t batches, bool heap, bool traced,
                     SimTrace* sim_trace, TcpTrace* tcp_trace,
                     CodecTotals* codec) {
    RunTotals tot;
    g_heap_counting.store(heap);
    for (std::uint32_t b = 0; b < batches; ++b) {
      if (!heap) tot.probe_us.push_back(probe_us());
      if (Clock::now() >= budget_end) {
        std::uint64_t skipped = std::uint64_t{batches - b} * w->per_batch;
        std::fprintf(stderr, "run budget spent: %u batches not started\n",
                     batches - b);
        tot.attempted += skipped;
        tot.failed += skipped;
        break;
      }
      std::uint64_t seed = batch_seed(args.seed, b);
      const Instance* first = insts.data() + std::size_t{b} * w->per_batch;
      Latencies lat;
      if (!w->tcp) {
        lat = run_sim_batch(*w, seed, first, w->per_batch, sim_trace, codec,
                            tot);
      } else if (traced) {
        run_tcp_traced_batch(*w, seed, first, w->per_batch, *tcp_trace,
                             *codec, tot);
      } else {
        lat = run_tcp_batch(*w, seed, first, w->per_batch, tot);
      }
      for (double ms : lat) {
        if (ms < 0) continue;
        tot.latency_ms.push_back(ms);
        tot.latency_batch.push_back(b);
      }
    }
    if (!heap && tot.probe_us.size() == tot.clusters()) {
      tot.probe_us.push_back(probe_us());
    }
    g_heap_counting.store(false);
    return tot;
  };

  // The heap pass goes first, which also fills caches and finishes lazy
  // set-up before anything is timed.
  RunTotals heap = run_all(std::max<std::uint32_t>(1, args.batches / 4), true,
                           false, nullptr, nullptr, nullptr);
  RunTotals timed = run_all(args.batches, false, false, nullptr, nullptr, nullptr);
  ScaledTimes scaled = scale_times(timed);

  JsonObject out;
  out.str("workload", w->name);
  out.count("seed", args.seed);
  out.count("batches", args.batches);
  out.count("attempted", timed.attempted);
  out.count("failed", timed.failed);
  out.count("violations", timed.violations);

  const std::uint64_t dec = timed.decided;
  JsonObject e2e;
  e2e.num("decisions_per_s", scaled.wall_s > 0 ? dec / scaled.wall_s : 0);
  e2e.num("latency_p50_ms", stretch_percentile(scaled.latency_ms, 0.50));
  double p95 = stretch_percentile(scaled.latency_ms, 0.95);
  e2e.num("latency_p95_ms", p95);
  e2e.num("setup_s", percentile(scaled.setup_s, 0.50));
  e2e.num("msgs_per_decision",
          per(static_cast<double>(timed.metrics.packets_sent), dec));
  e2e.num("bytes_per_decision",
          per(static_cast<double>(timed.metrics.bytes_sent), dec));
  e2e.num("peak_heap_mb", interquartile_mean(heap.heap_peak_mb));
  out.obj("e2e", e2e);

  // The same times unscaled, as the wall clock read them.
  double raw_wall_s = 0;
  for (double s : timed.cluster_s) raw_wall_s += s;
  JsonObject raw;
  raw.num("decisions_per_s", raw_wall_s > 0 ? dec / raw_wall_s : 0);
  raw.num("latency_p50_ms", stretch_percentile(timed.latency_ms, 0.50));
  raw.num("latency_p95_ms", stretch_percentile(timed.latency_ms, 0.95));
  raw.num("setup_s", percentile(timed.setup_s, 0.50));
  raw.num("probe_slowdown", percentile(timed.probe_us, 0.50) / kProbeNominalUs);
  out.obj("raw", raw);

  std::uint64_t beyond = 0;
  std::vector<std::uint32_t> beyond_batches;
  for (std::size_t i = 0; i < scaled.latency_ms.size(); ++i) {
    if (scaled.latency_ms[i] > p95) {
      ++beyond;
      beyond_batches.push_back(timed.latency_batch[i]);
    }
  }
  std::sort(beyond_batches.begin(), beyond_batches.end());
  beyond_batches.erase(std::unique(beyond_batches.begin(), beyond_batches.end()),
                       beyond_batches.end());
  JsonObject samples;
  samples.count("latency", timed.latency_ms.size());
  samples.count("beyond_p95", beyond);
  samples.count("batches_beyond_p95", beyond_batches.size());
  samples.count("setup", timed.setup_s.size());
  out.obj("samples", samples);

  JsonObject layer;
  layer.num("async_rounds",
            w->tcp || timed.clusters() == 0
                ? 0
                : static_cast<double>(timed.depth_sum) /
                      static_cast<double>(timed.clusters()));
  layer.num("failed_frac", timed.attempted == 0
                               ? 0
                               : static_cast<double>(timed.failed) /
                                     static_cast<double>(timed.attempted));
  layer.count("net.out_dropped_frames", timed.metrics.out_dropped_frames);
  layer.num("core.linger_ms_per_batch",
            timed.linger_batches == 0
                ? 0
                : timed.linger_ms_sum /
                      static_cast<double>(timed.linger_batches));
  layer.num("host.probe_slowdown",
            percentile(timed.probe_us, 0.50) / kProbeNominalUs);

  JsonObject counts;
  counts.obj("timed", counts_of(timed));
  bool ok = timed.failed == 0 && heap.failed == 0;
  bool correct = timed.violations == 0 && !timed.thread_error &&
                 heap.violations == 0 && !heap.thread_error;

  if (args.trace) {
    SimTrace sim_trace(w->n, w->t);
    TcpTrace tcp_trace(w->n, w->t);
    CodecTotals codec;
    RunTotals traced =
        run_all(args.batches, false, true, &sim_trace, &tcp_trace, &codec);
    KernelTimes kernels = time_kernels(args.seed);
    const std::uint64_t tdec = traced.decided;
    const LayerTally& tally = w->tcp ? tcp_trace.tally : sim_trace.tally;

    layer.num("sim.deliveries_per_decision",
              per(static_cast<double>(sim_trace.delivered_total), tdec));
    layer.num("sim.sched_us_per_decision", per(sim_trace.sched_us, tdec));
    layer.count("sim.wait_deliveries_p50", sim_trace.waits.quantile(0.5));
    layer.count("sim.inflight_max", sim_trace.inflight_max);
    for (int l : {kAba, kRbc, kCoin, kSvss, kMwsvss}) {
      std::string name = kLayerNames[l];
      layer.num(name + ".deliveries_per_decision",
                per(static_cast<double>(tally.deliveries[l]), tdec));
      layer.num(name + ".busy_us_per_decision", per(tally.busy_us[l], tdec));
    }
    layer.num("common.rs_decode_us", kernels.rs_decode_us);
    layer.num("common.bivariate_shares_us", kernels.bivariate_shares_us);
    layer.num("codec.decode_us_per_decision", per(codec.deserialize_us, tdec));
    layer.num("net.send_us_per_decision", per(tcp_trace.send_us, tdec));
    layer.num("net.poll_us_per_decision", per(tcp_trace.poll_us, tdec));
    layer.num("net.idle_us_per_decision", per(tcp_trace.idle_us, tdec));
    layer.num("net.encode_us_per_decision", per(codec.encode_us, tdec));
    layer.num("net.decode_us_per_decision", per(codec.decode_us, tdec));
    double traced_wall_s = scale_times(traced).wall_s;
    layer.num("trace.overhead_frac",
              traced_wall_s == 0 || scaled.wall_s == 0
                  ? 0
                  : traced_wall_s / scaled.wall_s - 1);

    JsonObject tc = counts_of(traced);
    for (int l = 0; l < kLayers; ++l) {
      tc.count(std::string(kLayerNames[l]) + "_deliveries", tally.deliveries[l]);
    }
    tc.count("sim_deliveries", sim_trace.delivered_total);
    tc.count("wait_deliveries_p50", sim_trace.waits.quantile(0.5));
    tc.count("inflight_max", sim_trace.inflight_max);
    counts.obj("traced", tc);
    ok = ok && traced.failed == 0;
    correct = correct && traced.violations == 0 && !traced.thread_error &&
              kernels.ok && codec.bad == 0;
  }
  out.obj("layer", layer);
  out.obj("counts", counts);
  out.boolean("correct", correct);
  std::printf("%s\n", out.text().c_str());
  std::fflush(stdout);
  // A stalled TCP batch is counted, not fatal: the socket schedule is the
  // kernel's.  On the simulator every failure is.
  return correct && (ok || w->tcp) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_agree: %s\n", e.what());
    return 2;
  }
}
