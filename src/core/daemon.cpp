#include "core/daemon.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

namespace svss {

BatchFraming batch_framing(const TransportOptions& opts, int slot) {
  auto it = opts.mw_children_override.find(slot);
  Framing mw = it != opts.mw_children_override.end() ? it->second
                                                     : opts.mw_children;
  return BatchFraming{opts.coin_dealing == Framing::kBatched,
                      mw == Framing::kBatched,
                      opts.aba_votes == Framing::kBatched};
}

NodeDaemon::NodeDaemon(int self, int n, int t, std::uint64_t seed,
                       ITransport& tr, const TransportOptions& opts)
    : node_(self, n, t, batch_framing(opts, self)) {
  world_.self = self;
  world_.n = n;
  world_.t = t;
  // Engine seeds slot RNGs by *sequential* splits from one root (each
  // split advances the root), so slot i's stream depends on i draws
  // having happened first.  Replicate exactly, or daemon fleets deal
  // different values than the simulator for every slot but 0 — the
  // backend-equivalence harness pins this.
  Rng root(seed);
  for (int i = 0; i <= self; ++i) {
    world_.rng = root.split(static_cast<std::uint64_t>(i));
  }
  world_.transport = &tr;
  tr.set_delivery([this](int from, Packet p) {
    Context ctx(world_);
    node_.on_packet(ctx, from, p);
  });
}

void NodeDaemon::start() {
  Context ctx(world_);
  node_.start(ctx);
}

// ----------------------------------------------------------------------
// SimCluster
// ----------------------------------------------------------------------

RunStatus SimCluster::run_until(const std::function<bool(int)>& done,
                                std::vector<int> waited) {
  // done() runs after *every* delivery, so it must be cheap.  It is
  // monotone, so satisfied slots drop off the waiting list and the typical
  // per-delivery cost is one predicate call, not a scan of every slot.
  // Predicates keep that call O(1) where they can: run_submitted checks a
  // node's decided-session count before scanning its instances.
  return engine_.run_until(
      [&done, &waited] {
        while (!waited.empty() && done(waited.back())) waited.pop_back();
        return waited.empty();
      },
      max_deliveries_);
}

// ----------------------------------------------------------------------
// LoopbackCluster
// ----------------------------------------------------------------------

LoopbackCluster::LoopbackCluster(LoopbackOptions opts)
    : opts_(std::move(opts)) {
  // Phase 1 (main thread): bind every listener on a kernel-assigned port,
  // then tell every endpoint where its peers landed — before any worker
  // exists, so the config is frozen by the time threads read it.
  net::ClusterConfig wild;
  wild.peers.assign(static_cast<std::size_t>(opts_.n), net::Endpoint{});
  for (int i = 0; i < opts_.n; ++i) {
    auto tr = std::make_unique<net::SocketTransport>(i, wild);
    if (!tr->open()) {
      throw std::runtime_error("LoopbackCluster: failed to bind listener");
    }
    transports_.push_back(std::move(tr));
  }
  for (int i = 0; i < opts_.n; ++i) {
    for (int p = 0; p < opts_.n; ++p) {
      transports_[static_cast<std::size_t>(i)]->set_peer(
          p, net::Endpoint{"127.0.0.1",
                           transports_[static_cast<std::size_t>(p)]
                               ->bound_port()});
    }
  }
  for (int i = 0; i < opts_.n; ++i) {
    daemons_.push_back(std::make_unique<NodeDaemon>(
        i, opts_.n, opts_.t, opts_.seed, *transports_[static_cast<std::size_t>(i)],
        opts_.transport));
    auto fit = opts_.faults.find(i);
    if (fit != opts_.faults.end() && fit->second.kind != ByzKind::kHonest) {
      std::uint64_t slot_seed =
          opts_.seed * 1315423911ULL + static_cast<std::uint64_t>(i);
      auto wire = make_byzantine_interceptor(fit->second, opts_.n, opts_.t,
                                             slot_seed);
      transports_[static_cast<std::size_t>(i)]->set_send_hook(
          [wire, i](int to, Packet& p) { return wire(i, to, p); });
    }
  }
}

LoopbackCluster::~LoopbackCluster() = default;

RunStatus LoopbackCluster::run_until(const std::function<bool(int)>& done,
                                     std::vector<int> waited) {
  std::vector<char> counted(static_cast<std::size_t>(opts_.n), 1);
  for (int i : waited) counted[static_cast<std::size_t>(i)] = 0;
  const int need = static_cast<int>(waited.size());
  const bool start = !started_;
  std::atomic<int> done_count{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opts_.n));
  for (int i = 0; i < opts_.n; ++i) {
    threads.emplace_back([this, i, start, need, &done, &counted,
                          &done_count] {
      if (start) daemons_[static_cast<std::size_t>(i)]->start();
      bool is_counted = counted[static_cast<std::size_t>(i)] != 0;
      transports_[static_cast<std::size_t>(i)]->run_until(
          [&] {
            if (!is_counted && done(i)) {
              is_counted = true;
              // The last finisher wakes every endpoint, so no thread
              // waits out its poll tick to see the cluster done.
              if (done_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                  need) {
                for (auto& peer : transports_) peer->wake();
              }
            }
            // Linger after finishing so this endpoint keeps relaying RB
            // traffic its peers still need.
            return done_count.load(std::memory_order_acquire) >= need;
          },
          opts_.timeout_ms);
    });
  }
  for (auto& th : threads) th.join();
  started_ = true;
  if (done_count.load(std::memory_order_acquire) >= need) {
    return RunStatus::kQuiescent;
  }
  capped_ = true;
  return RunStatus::kDeliveryCap;
}

bool LoopbackCluster::run(const std::function<bool(const Node&)>& pred,
                          const std::function<bool(int)>& honest) {
  std::vector<int> waited;
  for (int i = 0; i < opts_.n; ++i) {
    if (honest(i)) waited.push_back(i);
  }
  return run_until([this, &pred](int i) { return pred(node(i)); },
                   std::move(waited)) == RunStatus::kQuiescent;
}

const EventLog& LoopbackCluster::merged_log() const {
  log_ = EventLog{};
  for (const auto& d : daemons_) {
    for (const Event& e : d->world().log.events()) log_.record(e);
  }
  return log_;
}

Metrics LoopbackCluster::merged_metrics() const {
  Metrics out;
  for (const auto& tr : transports_) out.merge(tr->metrics());
  out.capped = out.capped || capped_;
  return out;
}

}  // namespace svss
