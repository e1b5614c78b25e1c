#include "core/epoch.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/runner.hpp"

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
      [this](int from, const Packet& p) { on_inner(from, p); });
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
  for (const auto& [from, p] : pending) on_inner(from, p);
}

void EpochTransport::park(int global_from, const Packet& p) {
  if (future_.size() >= future_cap_) future_.pop_front();
  future_.emplace_back(global_from, p);
}

void EpochTransport::on_inner(int global_from, const Packet& p) {
  if (!p.is_rb && (p.app.type == MsgType::kEpochCatchupReq ||
                   p.app.type == MsgType::kEpochCatchupState)) {
    if (control_) control_(global_from, p.app);
    return;
  }
  std::uint32_t e = packet_epoch(p);
  if (e > cfg_.epoch) {
    park(global_from, p);
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
    park(global_from, p);
    return;
  }
  if (e == 0) {
    sink_(from_rank, p);
    return;
  }
  // The stack runs at epoch 0: clear a later epoch's stamp on a copy.
  Packet local = p;
  stamp_epoch(local, 0);
  sink_(from_rank, local);
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

}  // namespace

// ----------------------------------------------------------------------
// Runner::run_epochs — one driver for both backends.  The main thread
// sequences the script over one EpochSlot per universe slot: per epoch it
// runs the epoch's instances, then its boundary, as one cluster run each
// over the live members; non-members and crashed slots keep delivering
// uncounted.  At each boundary every slot installs the next config, except
// members crashed there, which go silent for good.
// ----------------------------------------------------------------------

EpochsResult Runner::run_epochs(const std::vector<EpochPlan>& script,
                                CoinMode mode) {
  if (!cfg_.faults.empty() || !cfg_.adversaries.empty()) {
    throw std::invalid_argument(
        "run_epochs: faults/adversaries unsupported; crash members via "
        "EpochPlan::crash_at_boundary");
  }
  validate_script(cfg_, script);
  const auto live = live_members(script);

  std::vector<std::unique_ptr<EpochSlot>> slots;
  slots.reserve(static_cast<std::size_t>(cfg_.n));
  for (int g = 0; g < cfg_.n; ++g) {
    slots.push_back(std::make_unique<EpochSlot>(
        cluster_->transport(g), script[0].config, cfg_.seed, cfg_.transport,
        cluster_->log(g)));
  }
  auto member = [&slots](int g) -> NodeDaemon& {
    return slots[static_cast<std::size_t>(g)]->daemon();
  };

  EpochsResult res;
  res.all_decided = true;
  std::set<int> dead;
  for (std::size_t e = 0; e < script.size(); ++e) {
    const EpochPlan& plan = script[e];
    std::uint64_t coin_seed =
        epoch_seed(cfg_.seed ^ 0xC01Full, plan.config.epoch);
    for (int g : live[e]) {
      int rank = plan.config.rank_of(g);
      Context c(member(g).world());
      for (const auto& [inst, inputs] : plan.instances) {
        member(g).node().start_aba(c, inputs[static_cast<std::size_t>(rank)],
                                   mode, coin_seed, inst);
      }
    }
    run_slots(
        [&](int g) {
          for (const auto& [inst, inputs] : plan.instances) {
            if (!finished(member(g).node().aba(inst))) return false;
          }
          return true;
        },
        live[e]);

    EpochsResult::PerEpoch pe;
    for (const auto& [inst, inputs] : plan.instances) {
      std::map<int, int> per;
      if (!collect(live[e], [&](int g) { return member(g).node().aba(inst); },
                   per)) {
        res.all_decided = false;
      } else if (unanimous(per)) {
        pe.values.emplace(inst, per.begin()->second);
      }
      if (!per.empty()) pe.decisions.emplace(inst, std::move(per));
    }

    pe.boundary_decided = true;
    if (e + 1 < script.size()) {
      // The agreed boundary: drain done, now close the epoch.
      for (int g : live[e]) {
        Context c(member(g).world());
        member(g).node().start_aba(c, 1, mode, coin_seed,
                                   kEpochBoundaryInstance);
      }
      auto closed = [&](int g) {
        return finished(member(g).node().aba(kEpochBoundaryInstance));
      };
      run_slots(closed, live[e]);
      for (int g : live[e]) {
        if (!closed(g)) pe.boundary_decided = false;
      }
      if (!pe.boundary_decided) res.all_decided = false;

      dead.insert(plan.crash_at_boundary.begin(),
                  plan.crash_at_boundary.end());
      for (int g = 0; g < cfg_.n; ++g) {
        EpochSlot& s = *slots[static_cast<std::size_t>(g)];
        if (dead.count(g) != 0) {
          s.crash();
        } else {
          s.install(script[e + 1].config);
        }
      }
    }
    res.epochs.push_back(std::move(pe));
  }
  res.agreed = res.all_decided;
  for (std::size_t e = 0; e < script.size(); ++e) {
    if (res.epochs[e].values.size() != script[e].instances.size()) {
      res.agreed = false;
    }
  }
  res.metrics = cluster_->merged_metrics();
  return res;
}

}  // namespace svss
