#include "core/epoch.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/daemon.hpp"
#include "core/runner.hpp"
#include "sim/engine.hpp"

namespace svss {

// ----------------------------------------------------------------------
// EpochConfig
// ----------------------------------------------------------------------

bool EpochConfig::contains(int global) const {
  return std::binary_search(members.begin(), members.end(), global);
}

int EpochConfig::rank_of(int global) const {
  auto it = std::lower_bound(members.begin(), members.end(), global);
  if (it == members.end() || *it != global) return -1;
  return static_cast<int>(it - members.begin());
}

void EpochConfig::serialize(Writer& w) const {
  w.u32(epoch);
  w.i32(t);
  std::vector<int> m = members;
  w.int_vec(m);
}

std::optional<EpochConfig> EpochConfig::deserialize(Reader& r) {
  auto epoch = r.u32();
  auto t = r.i32();
  auto members = r.int_vec(static_cast<std::size_t>(kMaxN));
  if (!epoch || !t || !members) return std::nullopt;
  EpochConfig cfg;
  cfg.epoch = *epoch;
  cfg.t = *t;
  cfg.members = std::move(*members);
  if (!std::is_sorted(cfg.members.begin(), cfg.members.end())) {
    return std::nullopt;
  }
  return cfg;
}

std::uint64_t epoch_seed(std::uint64_t base, std::uint32_t epoch) {
  // splitmix-style stir so epochs get independent-looking streams while
  // staying a pure function of (base, epoch) on every backend.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (epoch + 1ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ----------------------------------------------------------------------
// EpochTransport
// ----------------------------------------------------------------------

EpochTransport::EpochTransport(ITransport& inner, EpochConfig cfg)
    : inner_(inner), cfg_(std::move(cfg)) {
  rank_ = cfg_.rank_of(inner_.self());
  inner_.set_delivery(
      [this](int from, Packet p) { on_inner(from, std::move(p)); });
}

std::uint32_t EpochTransport::packet_epoch(const Packet& p) {
  return p.is_rb ? p.bid.sid.epoch : p.app.sid.epoch;
}

void EpochTransport::stamp_epoch(Packet& p, std::uint32_t epoch) {
  if (p.is_rb) {
    p.bid.sid.epoch = epoch;
  } else {
    p.app.sid.epoch = epoch;
  }
}

void EpochTransport::send(int to, Packet p) {
  if (hook_ && !hook_(to, p)) return;
  stamp_epoch(p, cfg_.epoch);
  inner_.send(cfg_.global_of(to), std::move(p));
}

void EpochTransport::broadcast(const Packet& p) {
  for (int to = 0; to < cfg_.n(); ++to) {
    Packet copy = p;
    if (hook_ && !hook_(to, copy)) continue;
    stamp_epoch(copy, cfg_.epoch);
    inner_.send(cfg_.global_of(to), std::move(copy));
  }
}

void EpochTransport::install(EpochConfig next) {
  cfg_ = std::move(next);
  rank_ = cfg_.rank_of(inner_.self());
  // Replay what peers already ahead of the boundary sent; still-future
  // packets re-buffer, now-current ones deliver, stale ones fence.
  flush_buffered();
}

void EpochTransport::flush_buffered() {
  std::deque<std::pair<int, Packet>> pending;
  pending.swap(future_);
  for (auto& [from, p] : pending) on_inner(from, std::move(p));
}

void EpochTransport::on_inner(int global_from, Packet p) {
  if (!p.is_rb && (p.app.type == MsgType::kEpochCatchupReq ||
                   p.app.type == MsgType::kEpochCatchupState)) {
    if (control_) control_(global_from, p.app);
    return;
  }
  std::uint32_t e = packet_epoch(p);
  if (e > cfg_.epoch) {
    if (future_.size() >= future_cap_) future_.pop_front();
    future_.emplace_back(global_from, std::move(p));
    return;
  }
  if (e < cfg_.epoch) {
    ++fenced_stale_;
    return;
  }
  int from_rank = cfg_.rank_of(global_from);
  if (from_rank < 0 || !is_member()) {
    ++fenced_foreign_;
    return;
  }
  if (!sink_) {
    // Boundary construction window: the next Node is not attached yet.
    // Park the packet unmodified; flush_buffered() re-fences it.
    if (future_.size() >= future_cap_) future_.pop_front();
    future_.emplace_back(global_from, std::move(p));
    return;
  }
  stamp_epoch(p, 0);
  sink_(from_rank, std::move(p));
}

// ----------------------------------------------------------------------
// Script validation + shared plumbing
// ----------------------------------------------------------------------

namespace {

void validate_script(const RunnerConfig& cfg,
                     const std::vector<EpochPlan>& script) {
  if (script.empty()) {
    throw std::invalid_argument("run_epochs: empty script");
  }
  std::set<int> dead;
  for (std::size_t e = 0; e < script.size(); ++e) {
    const EpochPlan& plan = script[e];
    if (plan.config.epoch != static_cast<std::uint32_t>(e)) {
      throw std::invalid_argument("run_epochs: epoch ids must be 0..E-1");
    }
    if (plan.config.members.empty() ||
        !std::is_sorted(plan.config.members.begin(),
                        plan.config.members.end())) {
      throw std::invalid_argument("run_epochs: members must be ascending");
    }
    if (plan.config.members.front() < 0 ||
        plan.config.members.back() >= cfg.n) {
      throw std::invalid_argument("run_epochs: member outside the universe");
    }
    if (!cfg.allow_sub_resilience &&
        plan.config.n() < 3 * plan.config.t + 1) {
      throw std::invalid_argument("run_epochs: epoch below n >= 3t+1");
    }
    int live = 0;
    for (int g : plan.config.members) {
      if (dead.count(g) == 0) ++live;
    }
    if (live < plan.config.n() - plan.config.t) {
      throw std::invalid_argument(
          "run_epochs: boundary crashes exceed the epoch's t");
    }
    for (const auto& [inst, inputs] : plan.instances) {
      if (inst >= kEpochBoundaryInstance) {
        throw std::invalid_argument(
            "run_epochs: instance id collides with the boundary instance");
      }
      if (static_cast<int>(inputs.size()) != plan.config.n()) {
        throw std::invalid_argument(
            "run_epochs: need one input per member rank");
      }
    }
    for (int g : plan.crash_at_boundary) {
      if (!plan.config.contains(g)) {
        throw std::invalid_argument(
            "run_epochs: crash_at_boundary names a non-member");
      }
    }
    dead.insert(plan.crash_at_boundary.begin(),
                plan.crash_at_boundary.end());
  }
}

// Global ids of members still alive entering each epoch.
std::vector<std::vector<int>> live_members(
    const std::vector<EpochPlan>& script) {
  std::vector<std::vector<int>> live(script.size());
  std::set<int> dead;
  for (std::size_t e = 0; e < script.size(); ++e) {
    for (int g : script[e].config.members) {
      if (dead.count(g) == 0) live[e].push_back(g);
    }
    dead.insert(script[e].crash_at_boundary.begin(),
                script[e].crash_at_boundary.end());
  }
  return live;
}

bool node_decided(const Node& nd, std::uint32_t instance) {
  const AbaSession* a = nd.aba(instance);
  return a != nullptr && a->decided();
}

void finish_epoch_result(EpochsResult::PerEpoch& pe,
                         const std::vector<int>& live) {
  for (auto& [inst, per] : pe.decisions) {
    if (per.size() != live.size() || per.empty()) continue;
    bool same = true;
    for (const auto& [g, v] : per) {
      if (v != per.begin()->second) same = false;
    }
    if (same) pe.values.emplace(inst, per.begin()->second);
  }
}

}  // namespace

// ----------------------------------------------------------------------
// Sim backend
// ----------------------------------------------------------------------

EpochsResult run_epochs_sim(Engine& engine, const RunnerConfig& cfg,
                            const std::vector<EpochPlan>& script,
                            CoinMode mode) {
  validate_script(cfg, script);
  const auto live = live_members(script);
  const int universe = cfg.n;

  std::vector<std::unique_ptr<EpochTransport>> ports;
  ports.reserve(static_cast<std::size_t>(universe));
  for (int g = 0; g < universe; ++g) {
    ports.push_back(std::make_unique<EpochTransport>(engine.transport(g),
                                                     script[0].config));
  }

  EpochsResult res;
  res.all_decided = true;
  std::set<int> dead;
  for (std::size_t e = 0; e < script.size(); ++e) {
    const EpochPlan& plan = script[e];
    for (int g = 0; g < universe; ++g) {
      if (dead.count(g) == 0) ports[static_cast<std::size_t>(g)]->install(
          plan.config);
    }
    std::map<int, std::unique_ptr<NodeDaemon>> daemons;  // by global id
    for (int g : live[e]) {
      int rank = plan.config.rank_of(g);
      daemons[g] = std::make_unique<NodeDaemon>(
          rank, plan.config.n(), plan.config.t,
          epoch_seed(cfg.seed, plan.config.epoch),
          *ports[static_cast<std::size_t>(g)], cfg.transport);
      ports[static_cast<std::size_t>(g)]->flush_buffered();
    }
    std::uint64_t coin_seed =
        epoch_seed(cfg.seed ^ 0xC01Full, plan.config.epoch);
    for (int g : live[e]) {
      int rank = plan.config.rank_of(g);
      Context c(daemons[g]->world());
      for (const auto& [inst, inputs] : plan.instances) {
        daemons[g]->node().start_aba(
            c, inputs[static_cast<std::size_t>(rank)], mode, coin_seed,
            inst);
      }
    }
    auto everyone_decided = [&](std::uint32_t inst) {
      for (int g : live[e]) {
        if (!node_decided(daemons[g]->node(), inst)) return false;
      }
      return true;
    };
    engine.run_until(
        [&] {
          for (const auto& [inst, inputs] : plan.instances) {
            if (!everyone_decided(inst)) return false;
          }
          return true;
        },
        cfg.max_deliveries);

    EpochsResult::PerEpoch pe;
    for (const auto& [inst, inputs] : plan.instances) {
      for (int g : live[e]) {
        const AbaSession* a = daemons[g]->node().aba(inst);
        if (a != nullptr && a->decided()) {
          pe.decisions[inst].emplace(g, a->decision());
        } else {
          res.all_decided = false;
        }
      }
    }
    finish_epoch_result(pe, live[e]);

    if (e + 1 < script.size()) {
      // The agreed boundary: drain done, now close the epoch.
      for (int g : live[e]) {
        Context c(daemons[g]->world());
        daemons[g]->node().start_aba(c, 1, mode, coin_seed,
                                     kEpochBoundaryInstance);
      }
      engine.run_until([&] { return everyone_decided(kEpochBoundaryInstance); },
                       cfg.max_deliveries);
      pe.boundary_decided = everyone_decided(kEpochBoundaryInstance);
      if (!pe.boundary_decided) res.all_decided = false;
    } else {
      pe.boundary_decided = true;
    }
    res.epochs.push_back(std::move(pe));

    // The daemons die with this scope; detach their delivery sinks first.
    for (int g : live[e]) {
      ports[static_cast<std::size_t>(g)]->set_delivery(nullptr);
      ports[static_cast<std::size_t>(g)]->set_control(nullptr);
    }
    dead.insert(plan.crash_at_boundary.begin(),
                plan.crash_at_boundary.end());
  }
  res.agreed = res.all_decided;
  for (std::size_t e = 0; e < script.size(); ++e) {
    if (res.epochs[e].values.size() != script[e].instances.size()) {
      res.agreed = false;
    }
  }
  res.metrics = engine.metrics();
  return res;
}

// ----------------------------------------------------------------------
// Socket-loopback backend (one thread per universe endpoint, same
// confinement discipline as LoopbackCluster)
// ----------------------------------------------------------------------

EpochsResult run_epochs_loopback(const RunnerConfig& cfg,
                                 const std::vector<EpochPlan>& script,
                                 CoinMode mode) {
  validate_script(cfg, script);
  const auto live = live_members(script);
  const int universe = cfg.n;
  const std::size_t epochs = script.size();
  constexpr int kTimeoutMs = 60'000;

  // Phase 1 (main thread): bind every listener, wire kernel-assigned
  // ports, wrap each endpoint in its EpochTransport — all frozen before
  // any worker starts.
  net::ClusterConfig wild;
  wild.peers.assign(static_cast<std::size_t>(universe), net::Endpoint{});
  std::vector<std::unique_ptr<net::SocketTransport>> transports;
  for (int g = 0; g < universe; ++g) {
    auto tr = std::make_unique<net::SocketTransport>(g, wild);
    if (!tr->open()) {
      throw std::runtime_error("run_epochs: failed to bind listener");
    }
    transports.push_back(std::move(tr));
  }
  for (int g = 0; g < universe; ++g) {
    for (int p = 0; p < universe; ++p) {
      transports[static_cast<std::size_t>(g)]->set_peer(
          p, net::Endpoint{"127.0.0.1",
                           transports[static_cast<std::size_t>(p)]
                               ->bound_port()});
    }
  }
  std::vector<std::unique_ptr<EpochTransport>> ports;
  for (int g = 0; g < universe; ++g) {
    ports.push_back(std::make_unique<EpochTransport>(
        *transports[static_cast<std::size_t>(g)], script[0].config));
  }

  // Cross-thread state: per-epoch completion barriers (so every member
  // lingers, relaying RB tails, until the whole epoch finished) and one
  // failure latch.  Result slots are per-thread-disjoint.
  std::unique_ptr<std::atomic<int>[]> done(new std::atomic<int>[epochs]);
  std::vector<int> expected(epochs);
  std::vector<char> is_live(static_cast<std::size_t>(universe) * epochs, 0);
  for (std::size_t e = 0; e < epochs; ++e) {
    done[e].store(0, std::memory_order_relaxed);
    expected[e] = static_cast<int>(live[e].size());
    for (int g : live[e]) {
      is_live[static_cast<std::size_t>(g) * epochs + e] = 1;
    }
  }
  std::vector<std::size_t> last_epoch(static_cast<std::size_t>(universe),
                                      epochs);
  for (int g = 0; g < universe; ++g) {
    for (std::size_t e = 0; e < epochs; ++e) {
      if (is_live[static_cast<std::size_t>(g) * epochs + e]) last_epoch[g] = e;
    }
  }
  std::atomic<bool> failed{false};
  // decisions[g][e][instance]; boundary[g*epochs + e].
  std::vector<std::vector<std::map<std::uint32_t, int>>> decisions(
      static_cast<std::size_t>(universe),
      std::vector<std::map<std::uint32_t, int>>(epochs));
  std::vector<char> boundary(static_cast<std::size_t>(universe) * epochs, 0);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(universe));
  for (int g = 0; g < universe; ++g) {
    threads.emplace_back([&, g] {
      net::SocketTransport& tr = *transports[static_cast<std::size_t>(g)];
      EpochTransport& port = *ports[static_cast<std::size_t>(g)];
      if (last_epoch[static_cast<std::size_t>(g)] == epochs) return;
      for (std::size_t e = 0; e < epochs; ++e) {
        const EpochPlan& plan = script[e];
        port.set_delivery(nullptr);
        port.install(plan.config);
        if (!is_live[static_cast<std::size_t>(g) * epochs + e]) {
          // Joiner waiting for its epoch: jump ahead; the future-epoch
          // buffer at every peer absorbs the skew.
          if (e >= last_epoch[static_cast<std::size_t>(g)]) return;
          continue;
        }
        int rank = plan.config.rank_of(g);
        NodeDaemon daemon(rank, plan.config.n(), plan.config.t,
                          epoch_seed(cfg.seed, plan.config.epoch), port,
                          cfg.transport);
        port.flush_buffered();
        std::uint64_t coin_seed =
            epoch_seed(cfg.seed ^ 0xC01Full, plan.config.epoch);
        {
          Context c(daemon.world());
          for (const auto& [inst, inputs] : plan.instances) {
            daemon.node().start_aba(c,
                                    inputs[static_cast<std::size_t>(rank)],
                                    mode, coin_seed, inst);
          }
        }
        bool ok = tr.run_until(
            [&] {
              for (const auto& [inst, inputs] : plan.instances) {
                if (!node_decided(daemon.node(), inst)) return false;
              }
              return true;
            },
            kTimeoutMs);
        if (!ok) failed.store(true, std::memory_order_release);
        for (const auto& [inst, inputs] : plan.instances) {
          const AbaSession* a = daemon.node().aba(inst);
          if (a != nullptr && a->decided()) {
            decisions[static_cast<std::size_t>(g)][e].emplace(inst,
                                                              a->decision());
          }
        }
        if (e + 1 < epochs) {
          {
            Context c(daemon.world());
            daemon.node().start_aba(c, 1, mode, coin_seed,
                                    kEpochBoundaryInstance);
          }
          ok = tr.run_until(
              [&] {
                return node_decided(daemon.node(), kEpochBoundaryInstance);
              },
              kTimeoutMs);
          if (!ok) failed.store(true, std::memory_order_release);
          boundary[static_cast<std::size_t>(g) * epochs + e] =
              node_decided(daemon.node(), kEpochBoundaryInstance) ? 1 : 0;
        } else {
          boundary[static_cast<std::size_t>(g) * epochs + e] = 1;
        }
        // Linger until every live member finished this epoch, then let
        // the daemon (and its sink) go.  The member completing the epoch
        // wakes every endpoint so the lingerers see it at once.
        if (done[e].fetch_add(1, std::memory_order_acq_rel) + 1 ==
            expected[e]) {
          for (auto& peer : transports) peer->wake();
        }
        tr.run_until(
            [&] {
              return done[e].load(std::memory_order_acquire) >= expected[e];
            },
            kTimeoutMs);
        port.set_delivery(nullptr);
        if (plan.crash_at_boundary.count(g) != 0) {
          tr.shutdown();  // crash exactly at the agreed boundary
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EpochsResult res;
  res.all_decided = !failed.load(std::memory_order_acquire);
  for (std::size_t e = 0; e < epochs; ++e) {
    EpochsResult::PerEpoch pe;
    pe.boundary_decided = true;
    for (int g : live[e]) {
      if (!boundary[static_cast<std::size_t>(g) * epochs + e]) {
        pe.boundary_decided = false;
      }
      for (const auto& [inst, v] : decisions[static_cast<std::size_t>(g)][e]) {
        pe.decisions[inst].emplace(g, v);
      }
    }
    for (const auto& [inst, inputs] : script[e].instances) {
      auto it = pe.decisions.find(inst);
      if (it == pe.decisions.end() ||
          it->second.size() != live[e].size()) {
        res.all_decided = false;
      }
    }
    if (!pe.boundary_decided) res.all_decided = false;
    finish_epoch_result(pe, live[e]);
    res.epochs.push_back(std::move(pe));
  }
  res.agreed = res.all_decided;
  for (std::size_t e = 0; e < epochs; ++e) {
    if (res.epochs[e].values.size() != script[e].instances.size()) {
      res.agreed = false;
    }
  }
  for (const auto& tr : transports) res.metrics.merge(tr->metrics());
  return res;
}

}  // namespace svss
