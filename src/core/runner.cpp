#include "core/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace svss {

SessionId mw_top_id(std::uint32_t c, int dealer, int moderator) {
  SessionId sid;
  sid.path = SessionPath::kMwTop;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.moderator = static_cast<std::int16_t>(moderator);
  sid.counter = c;
  return sid;
}

SessionId svss_top_id(std::uint32_t c, int dealer) {
  SessionId sid;
  sid.path = SessionPath::kSvssTop;
  sid.owner = static_cast<std::int16_t>(dealer);
  sid.counter = c;
  return sid;
}

namespace {

RunnerConfig validate(RunnerConfig cfg) {
  if (cfg.n <= 0) throw std::invalid_argument("Runner: n must be positive");
  if (cfg.n > static_cast<int>(kMaxN)) {
    // Session counters and the RB sender bitsets encode process ids in
    // [0, kMaxN); larger systems need a wider id space first.
    throw std::invalid_argument("Runner: n exceeds kMaxN");
  }
  if (cfg.t < 0) throw std::invalid_argument("Runner: t must be >= 0");
  if (!cfg.allow_sub_resilience && cfg.n < 3 * cfg.t + 1) {
    throw std::invalid_argument(
        "Runner: n < 3t+1 breaks the paper's resilience bound; set "
        "allow_sub_resilience to experiment beyond it");
  }
  if (cfg.transport.kind == TransportKind::kSocketLoopback &&
      !cfg.adversaries.empty()) {
    throw std::invalid_argument(
        "Runner: adversary strategies need the deterministic sim backend; "
        "socket-loopback supports ByzConfig wire faults only");
  }
  return cfg;
}

// The Runner's half of the widened scheduler seam: delivery clock from the
// engine, slot classification from the adversary layer.  Everything served
// is deterministic in the run config, so schedulers consulting it replay.
class RunnerScheduleView final : public ScheduleView {
 public:
  RunnerScheduleView(const Engine* engine,
                     const std::vector<AdversarySlot*>* advs)
      : engine_(engine), advs_(advs) {}

  [[nodiscard]] std::uint64_t deliveries() const override {
    return engine_->metrics().packets_delivered;
  }
  [[nodiscard]] bool is_adversary(int id) const override {
    auto idx = static_cast<std::size_t>(id);
    return idx < advs_->size() && (*advs_)[idx] != nullptr;
  }
  [[nodiscard]] bool is_deceived(int id) const override {
    for (const AdversarySlot* slot : *advs_) {
      if (slot != nullptr && slot->is_deceiving(id)) return true;
    }
    return false;
  }

 private:
  const Engine* engine_;
  const std::vector<AdversarySlot*>* advs_;
};

std::unique_ptr<Scheduler> build_scheduler(const RunnerConfig& cfg) {
  std::uint64_t sched_seed = cfg.seed ^ 0x5C4EDULL;
  if (cfg.scheduler_factory) {
    auto sched = cfg.scheduler_factory(sched_seed, cfg.n, cfg.t);
    if (!sched) {
      throw std::invalid_argument("Runner: scheduler_factory returned null");
    }
    return sched;
  }
  return make_scheduler(cfg.scheduler, sched_seed, cfg.n, cfg.t);
}

LoopbackOptions loopback_options(const RunnerConfig& cfg) {
  LoopbackOptions opts;
  opts.n = cfg.n;
  opts.t = cfg.t;
  opts.seed = cfg.seed;
  opts.transport = cfg.transport;
  opts.faults = cfg.faults;
  return opts;
}

}  // namespace

Runner::Runner(RunnerConfig cfg) : cfg_(validate(std::move(cfg))) {
  nodes_.resize(static_cast<std::size_t>(cfg_.n));
  advs_.resize(static_cast<std::size_t>(cfg_.n));
  if (cfg_.transport.kind == TransportKind::kSocketLoopback) {
    auto loop = std::make_unique<LoopbackCluster>(loopback_options(cfg_));
    for (int i = 0; i < cfg_.n; ++i) {
      nodes_[static_cast<std::size_t>(i)] = &loop->node(i);
    }
    cluster_ = std::move(loop);
    return;
  }
  auto sim = std::make_unique<SimCluster>(cfg_.n, cfg_.t, cfg_.seed,
                                          build_scheduler(cfg_),
                                          cfg_.max_deliveries);
  sim_ = sim.get();
  cluster_ = std::move(sim);
  Engine& engine = sim_->engine();
  for (int i = 0; i < cfg_.n; ++i) {
    const BatchFraming framing = batch_framing(cfg_.transport, i);
    auto fit = cfg_.faults.find(i);
    ITransport::SendHook wire = slot_interceptor(
        fit == cfg_.faults.end() ? nullptr : &fit->second, i, cfg_.n, cfg_.t,
        cfg_.seed);
    auto ait = cfg_.adversaries.find(i);
    if (ait != cfg_.adversaries.end()) {
      // Adversary slot: the strategy replaces the honest Node.  Its
      // outbound gate runs first; a ByzConfig wire interceptor for the
      // same slot composes on top of whatever the strategy emits.
      AdversaryEnv env{i, cfg_.n, cfg_.t, slot_seed(cfg_.seed, i), framing};
      std::unique_ptr<AdversarySlot> slot = ait->second(env);
      if (!slot) throw std::invalid_argument("Runner: null adversary slot");
      advs_[static_cast<std::size_t>(i)] = slot.get();
      AdversarySlot* raw = slot.get();
      engine.set_process(i, std::move(slot));
      wire = [raw, wire = std::move(wire)](int to, Packet& p) {
        return raw->on_outbound(to, p) && (!wire || wire(to, p));
      };
    } else {
      auto node = std::make_unique<Node>(i, cfg_.n, cfg_.t, framing);
      nodes_[static_cast<std::size_t>(i)] = node.get();
      engine.set_process(i, std::move(node));
    }
    if (wire) engine.transport(i).set_send_hook(std::move(wire));
  }
  // Widened scheduler seam: hand the scheduler its observable-state view
  // now that every adversary slot exists.  Attached before any send, so
  // even start()-burst priorities may consult it.
  sched_view_ = std::make_unique<RunnerScheduleView>(&engine, &advs_);
  engine.scheduler().attach(sched_view_.get());
}

Engine& Runner::engine() {
  if (sim_ == nullptr) {
    throw std::logic_error("Runner: engine() needs the sim backend");
  }
  return sim_->engine();
}

Node& Runner::node(int i) {
  Node* n = nodes_.at(static_cast<std::size_t>(i));
  if (n == nullptr) {
    throw std::logic_error("Runner: slot " + std::to_string(i) +
                           " hosts an adversary strategy, not a Node");
  }
  return *n;
}

AdversarySlot* Runner::adversary(int i) {
  return advs_.at(static_cast<std::size_t>(i));
}

void Runner::set_slot_start(int i, std::function<void(Context&, Node&)> a) {
  if (AdversarySlot* adv = advs_.at(static_cast<std::size_t>(i))) {
    adv->set_start_action(std::move(a));
  } else {
    node(i).set_start_action(std::move(a));
  }
}

bool Runner::is_honest(int i) const {
  if (cfg_.adversaries.count(i) != 0) return false;
  auto it = cfg_.faults.find(i);
  return it == cfg_.faults.end() || it->second.kind == ByzKind::kHonest;
}

std::vector<int> Runner::honest_ids() const {
  std::vector<int> out;
  for (int i = 0; i < cfg_.n; ++i) {
    if (is_honest(i)) out.push_back(i);
  }
  return out;
}

std::vector<std::pair<int, int>> Runner::honest_shun_pairs() const {
  std::vector<std::pair<int, int>> out;
  for (const auto& [i, j] : log().shun_pairs()) {
    if (is_honest(i)) out.emplace_back(i, j);
  }
  return out;
}

RunStatus Runner::run_slots(const std::function<bool(int)>& done,
                            std::vector<int> waited) {
  RunStatus status = cluster_->run_until(done, std::move(waited));
  if (status == RunStatus::kDeliveryCap && cfg_.warn_on_cap) {
    // Never silent: a capped run is a potential non-termination witness.
    // The flag also lands in Metrics::capped for programmatic sweeps.
    std::fprintf(stderr,
                 "Runner: delivery cap hit (seed=%llu n=%d t=%d): %s\n",
                 static_cast<unsigned long long>(cfg_.seed), cfg_.n, cfg_.t,
                 cluster_->merged_metrics().summary().c_str());
  }
  return status;
}

RunStatus Runner::run_until_honest(
    const std::function<bool(const Node&)>& pred) {
  return run_slots([this, &pred](int i) { return pred(node(i)); },
                   honest_ids());
}

// ---------------------------------------------------------------------
// MW-SVSS / SVSS
// ---------------------------------------------------------------------
template <class Find, class Open>
Runner::ShareResult Runner::share_then_reconstruct(bool reconstruct,
                                                   Find find, Open open) {
  auto shared = [&find](const Node& nd) {
    const auto* s = find(nd);
    return s != nullptr && s->share_complete();
  };
  ShareResult res;
  res.status = run_until_honest(shared);
  res.all_honest_shared = true;
  for (int i : honest_ids()) {
    if (!shared(node(i))) res.all_honest_shared = false;
  }

  if (reconstruct && res.all_honest_shared) {
    // Every process that completed the share phase enters R' — including
    // Byzantine ones, which run the honest code behind a corrupted wire.
    for (int i = 0; i < cfg_.n; ++i) {
      if (nodes_[static_cast<std::size_t>(i)] == nullptr) continue;
      if (!shared(node(i))) continue;
      Context c = ctx(i);
      open(c, node(i)).start_reconstruct(c);
    }
    res.status =
        run_until_honest([&find](const Node& nd) { return finished(find(nd)); });
    res.all_honest_output = collect(
        honest_ids(), [&](int i) { return find(node(i)); }, res.outputs);
  }
  res.shun_pairs = honest_shun_pairs();
  res.metrics = cluster_->merged_metrics();
  return res;
}

Runner::MwResult Runner::run_mwsvss(Fp secret, Fp moderator_input, int dealer,
                                    int moderator, bool reconstruct) {
  SessionId sid = mw_top_id(1, dealer, moderator);
  set_slot_start(dealer, [sid, secret](Context& c, Node& nd) {
    nd.mw(c, sid).deal(c, secret);
  });
  if (moderator != dealer) {
    set_slot_start(moderator,
        [sid, moderator_input](Context& c, Node& nd) {
          nd.mw(c, sid).set_moderator_input(c, moderator_input);
        });
  }
  return share_then_reconstruct(
      reconstruct, [sid](const Node& nd) { return nd.find_mw(sid); },
      [sid](Context& c, Node& nd) -> MwSvssSession& { return nd.mw(c, sid); });
}

Runner::SvssResult Runner::run_svss(Fp secret, int dealer, bool reconstruct) {
  SessionId sid = svss_top_id(1, dealer);
  set_slot_start(dealer, [sid, secret](Context& c, Node& nd) {
    nd.svss(c, sid).deal(c, secret);
  });
  return share_then_reconstruct(
      reconstruct, [sid](const Node& nd) { return nd.find_svss(sid); },
      [sid](Context& c, Node& nd) -> SvssSession& { return nd.svss(c, sid); });
}

// ---------------------------------------------------------------------
// Common coin
// ---------------------------------------------------------------------
Runner::CoinResult Runner::run_coin(std::uint32_t round) {
  for (int i = 0; i < cfg_.n; ++i) {
    set_slot_start(i, [round](Context& c, Node& nd) {
      nd.coin(c, round).start(c);
    });
  }
  CoinResult res;
  res.status = run_until_honest(
      [round](const Node& nd) { return finished(nd.find_coin(round)); });
  res.all_output = collect(
      honest_ids(), [&](int i) { return node(i).find_coin(round); }, res.bits);
  res.agreed = res.all_output && unanimous(res.bits);
  res.shun_pairs = honest_shun_pairs();
  res.metrics = cluster_->merged_metrics();
  return res;
}

// ---------------------------------------------------------------------
// Agreement
// ---------------------------------------------------------------------
template <class Get>
Runner::AbaResult Runner::run_agreement(Get get) {
  AbaResult res;
  res.status =
      run_until_honest([&get](const Node& nd) { return finished(get(nd)); });
  res.all_decided = collect(
      honest_ids(), [&](int i) { return get(node(i)); }, res.decisions);
  for (const auto& [i, v] : res.decisions) {
    const std::uint32_t round = get(node(i))->decision_round();
    res.decision_rounds.emplace(i, round);
    res.max_round = std::max(res.max_round, round);
  }
  if (!res.decisions.empty()) res.value = res.decisions.begin()->second;
  res.agreed = res.all_decided && unanimous(res.decisions);
  res.shun_pairs = honest_shun_pairs();
  res.metrics = cluster_->merged_metrics();
  return res;
}

Runner::AbaResult Runner::run_aba(const std::vector<int>& inputs,
                                  CoinMode mode) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("run_aba: need one input per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0xC01Full;
  for (int i = 0; i < cfg_.n; ++i) {
    int input = inputs[static_cast<std::size_t>(i)];
    set_slot_start(i, [input, mode, coin_seed](Context& c, Node& nd) {
      nd.start_aba(c, input, mode, coin_seed);
    });
  }
  return run_agreement([](const Node& nd) { return nd.aba(); });
}

Runner::AbaResult Runner::run_benor(const std::vector<int>& inputs) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("run_benor: need one input per process");
  }
  for (int i = 0; i < cfg_.n; ++i) {
    int input = inputs[static_cast<std::size_t>(i)];
    set_slot_start(i, [input](Context& c, Node& nd) {
      nd.start_benor(c, input);
    });
  }
  return run_agreement([](const Node& nd) { return nd.benor(); });
}

void Runner::submit(std::uint32_t instance, std::vector<int> inputs) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("submit: need one input per process");
  }
  if (!submitted_.emplace(instance, std::move(inputs)).second) {
    throw std::invalid_argument("submit: instance already queued");
  }
}

Runner::MultiAbaResult Runner::run_submitted(CoinMode mode) {
  if (submitted_.empty()) {
    throw std::invalid_argument("run_submitted: no instances submitted");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0xC01Full;
  for (int i = 0; i < cfg_.n; ++i) {
    // One start action kicks off every submitted instance on this node;
    // their initial EST fan-outs share the cascade's vote envelopes.
    std::vector<std::pair<std::uint32_t, int>> starts;
    for (const auto& [instance, inputs] : submitted_) {
      starts.emplace_back(instance, inputs[static_cast<std::size_t>(i)]);
    }
    set_slot_start(i, [starts, mode, coin_seed](Context& c, Node& nd) {
      for (const auto& [instance, input] : starts) {
        nd.start_aba(c, input, mode, coin_seed, instance);
      }
    });
  }
  MultiAbaResult res;
  const std::map<std::uint32_t, std::vector<int>>& submitted = submitted_;
  // Polled after every delivery.  The decided count rules out almost every
  // call in O(1); the exact scan runs only once enough sessions decided, so
  // the run stops at the same delivery as the scan alone.
  res.status = run_until_honest([&submitted](const Node& nd) {
    if (nd.abas_decided() < submitted.size()) return false;
    for (const auto& [instance, inputs] : submitted) {
      if (!finished(nd.aba(instance))) return false;
    }
    return true;
  });
  const std::vector<int> honest = honest_ids();
  res.all_decided = true;
  for (const auto& [instance, inputs] : submitted_) {
    std::map<int, int>& per = res.decisions[instance];
    if (!collect(honest, [&](int i) { return node(i).aba(instance); }, per)) {
      res.all_decided = false;
    } else if (unanimous(per)) {
      res.values.emplace(instance, per.begin()->second);
    }
  }
  res.agreed = res.all_decided && res.values.size() == submitted_.size();
  res.metrics = cluster_->merged_metrics();
  submitted_.clear();
  return res;
}

// ---------------------------------------------------------------------
// Common subset / secure sum extensions
// ---------------------------------------------------------------------
Runner::AcsResult Runner::run_acs(const std::vector<Bytes>& proposals,
                                  CoinMode mode) {
  if (static_cast<int>(proposals.size()) != cfg_.n) {
    throw std::invalid_argument("run_acs: need one proposal per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0xAC5ull;
  for (int i = 0; i < cfg_.n; ++i) {
    Bytes proposal = proposals[static_cast<std::size_t>(i)];
    set_slot_start(i,
        [proposal, mode, coin_seed](Context& c, Node& nd) {
          nd.start_acs(c, proposal, mode, coin_seed);
        });
  }
  AcsResult res;
  res.status =
      run_until_honest([](const Node& nd) { return finished(nd.acs()); });
  res.all_output =
      collect(honest_ids(), [&](int i) { return node(i).acs(); }, res.outputs);
  res.agreed = res.all_output && unanimous(res.outputs);
  res.metrics = cluster_->merged_metrics();
  return res;
}

Runner::MvbaResult Runner::run_mvba(const std::vector<Fp>& proposals,
                                    Fp default_value, CoinMode mode) {
  if (static_cast<int>(proposals.size()) != cfg_.n) {
    throw std::invalid_argument("run_mvba: need one proposal per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0x3BAull;
  for (int i = 0; i < cfg_.n; ++i) {
    Fp proposal = proposals[static_cast<std::size_t>(i)];
    set_slot_start(i,
        [proposal, default_value, mode, coin_seed](Context& c, Node& nd) {
          nd.start_mvba(c, proposal, default_value, mode, coin_seed);
        });
  }
  MvbaResult res;
  res.status =
      run_until_honest([](const Node& nd) { return finished(nd.mvba()); });
  res.all_decided = collect(
      honest_ids(), [&](int i) { return node(i).mvba(); }, res.decisions,
      &Fp::value);
  if (!res.decisions.empty()) res.value = res.decisions.begin()->second;
  res.agreed = res.all_decided && unanimous(res.decisions);
  res.metrics = cluster_->merged_metrics();
  return res;
}

Runner::SumResult Runner::run_secure_sum(const std::vector<Fp>& inputs,
                                         CoinMode mode) {
  if (static_cast<int>(inputs.size()) != cfg_.n) {
    throw std::invalid_argument("run_secure_sum: need one input per process");
  }
  std::uint64_t coin_seed = cfg_.seed ^ 0x50Cull;
  for (int i = 0; i < cfg_.n; ++i) {
    Fp input = inputs[static_cast<std::size_t>(i)];
    set_slot_start(i, [input, mode, coin_seed](Context& c, Node& nd) {
      nd.start_secure_sum(c, input, mode, coin_seed);
    });
  }
  SumResult res;
  res.status = run_until_honest(
      [](const Node& nd) { return finished(nd.secure_sum()); });
  res.all_output = collect(
      honest_ids(), [&](int i) { return node(i).secure_sum(); }, res.outputs,
      &Fp::value);
  for (int i : honest_ids()) {
    const SecureSumSession* s = node(i).secure_sum();
    if (s != nullptr && s->core()) res.cores.emplace(i, *s->core());
  }
  res.agreed = res.all_output && unanimous(res.outputs);
  res.metrics = cluster_->merged_metrics();
  return res;
}

}  // namespace svss
