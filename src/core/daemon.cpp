#include "core/daemon.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace svss {

namespace {

// One OS process's endpoint in `cluster`.
std::unique_ptr<net::SocketTransport> daemon_endpoint(
    int self, net::ClusterConfig cluster) {
  if (self < 0 || self >= cluster.n()) {
    throw std::invalid_argument("DaemonService: self outside the cluster");
  }
  return std::make_unique<net::SocketTransport>(self, std::move(cluster));
}

// A fleet's epoch 0: every endpoint a member (rank == global id, so the
// derived seed streams match a fleet without epochs), at the largest
// resilience the size allows.
EpochConfig identity_epoch(int n) {
  EpochConfig cfg;
  cfg.t = (n - 1) / 3;
  cfg.members.resize(static_cast<std::size_t>(n));
  std::iota(cfg.members.begin(), cfg.members.end(), 0);
  return cfg;
}

// Per-peer ceiling on distinct tally keys during one catch-up handshake,
// and a ceiling on distinct epoch-config candidates overall.  Honest
// replies stay far below both; reports past the cap are dropped (a later
// catch_up round re-requests whatever is still missing).
constexpr int kMaxTalliedKeys = 1 << 16;
constexpr std::size_t kMaxEpochCandidates = 64;

}  // namespace

BatchFraming batch_framing(const TransportOptions& opts, int slot) {
  auto it = opts.mw_children_override.find(slot);
  Framing mw = it != opts.mw_children_override.end() ? it->second
                                                     : opts.mw_children;
  return BatchFraming{opts.coin_dealing == Framing::kBatched,
                      mw == Framing::kBatched,
                      opts.aba_votes == Framing::kBatched};
}

NodeDaemon::NodeDaemon(int self, int n, int t, std::uint64_t seed,
                       ITransport& tr, const TransportOptions& opts,
                       EventLog* log)
    : host_(std::make_unique<Node>(self, n, t, batch_framing(opts, self)), t,
            seed, tr, log != nullptr ? *log : own_log_) {}

// ----------------------------------------------------------------------
// EpochSlot
// ----------------------------------------------------------------------

EpochSlot::EpochSlot(ITransport& inner, const EpochConfig& first,
                     std::uint64_t seed, TransportOptions opts, EventLog& log)
    : seed_(seed), opts_(std::move(opts)), log_(&log), fence_(inner, first) {
  build({});
}

void EpochSlot::install(const EpochConfig& next, const OnBuild& on_build) {
  crash();
  fence_.install(next);
  build(on_build);
}

void EpochSlot::crash() { daemon_.reset(); }

NodeDaemon& EpochSlot::daemon() {
  if (!daemon_) {
    throw std::logic_error("EpochSlot: no Node in epoch " +
                           std::to_string(fence_.config().epoch));
  }
  return *daemon_;
}

void EpochSlot::build(const OnBuild& on_build) {
  if (!fence_.is_member()) return;
  const EpochConfig& cfg = fence_.config();
  daemon_.emplace(fence_.self(), cfg.n(), cfg.t, epoch_seed(seed_, cfg.epoch),
                  fence_, opts_, log_);
  if (on_build) on_build(*daemon_);
  // Current-epoch packets that arrived while no Node was attached deliver
  // now.
  fence_.flush_buffered();
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
    : opts_(std::move(opts)),
      logs_(static_cast<std::size_t>(opts_.n)),
      daemons_(static_cast<std::size_t>(opts_.n)) {
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
    auto idx = static_cast<std::size_t>(i);
    net::SocketTransport& tr = *transports_[idx];
    daemons_[idx].emplace(i, opts_.n, opts_.t, opts_.seed, tr,
                          opts_.transport, &logs_[idx]);
    auto fit = opts_.faults.find(i);
    tr.set_send_hook(slot_interceptor(
        fit == opts_.faults.end() ? nullptr : &fit->second, i, opts_.n,
        opts_.t, opts_.seed));
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
  for (const EventLog& slot : logs_) {
    for (const Event& e : slot.events()) log_.record(e);
  }
  return log_;
}

Metrics LoopbackCluster::merged_metrics() const {
  Metrics out;
  for (const auto& tr : transports_) out.merge(tr->metrics());
  out.capped = out.capped || capped_;
  return out;
}

// ----------------------------------------------------------------------
// DaemonService
// ----------------------------------------------------------------------

DaemonService::DaemonService(int self, net::ClusterConfig cluster,
                             std::uint64_t seed, const TransportOptions& opts,
                             std::optional<ByzConfig> fault)
    : self_(self),
      seed_(seed),
      transport_(daemon_endpoint(self, std::move(cluster))),
      slot_(*transport_, identity_epoch(transport_->n()), seed, opts, log_) {
  transport_->set_send_hook(slot_interceptor(fault ? &*fault : nullptr, self,
                                             transport_->n(),
                                             slot_.fence().config().t, seed));
}

bool DaemonService::start() {
  if (!transport_->open()) return false;
  net::install_stop_handlers();
  slot_.fence().set_control(
      [this](int from, const Message& m) { on_control(from, m); });
  wire(slot_.daemon());
  slot_.fence().flush_buffered();
  return true;
}

void DaemonService::wire(NodeDaemon& d) {
  d.node().observers.aba_decided =
      [this](Context&, int value, std::uint32_t round,
             std::uint32_t instance) { note_decision(value, round, instance); };
  d.start();
}

bool DaemonService::stop_requested() { return net::stop_requested(); }

void DaemonService::shutdown() { transport_->shutdown(); }

bool DaemonService::run_until(const std::function<bool()>& pred,
                              int timeout_ms) {
  return transport_->run_until(pred, timeout_ms);
}

void DaemonService::linger(int linger_ms) {
  transport_->run_until([] { return false; }, linger_ms);
}

void DaemonService::submit(std::uint32_t instance, int input, CoinMode mode,
                           std::uint64_t common_seed) {
  Context c = ctx();
  node().start_aba(c, input, mode, common_seed, instance);
}

// ----------------------------------------------------------------------
// Crash recovery
// ----------------------------------------------------------------------

void DaemonService::enable_recovery(std::string checkpoint_path,
                                    int checkpoint_every) {
  checkpoint_path_ = std::move(checkpoint_path);
  checkpoint_every_ = checkpoint_every < 1 ? 1 : checkpoint_every;
  journal_ = std::make_unique<DecisionJournal>();
  if (!journal_->open(journal_path())) journal_.reset();
}

bool DaemonService::recover() {
  if (checkpoint_path_.empty()) return false;
  bool found = false;
  if (auto cp = load_checkpoint(checkpoint_path_)) {
    for (const DecisionRecord& r : cp->decisions) {
      decided_.emplace(DecisionKey{r.epoch, r.instance}, r);
    }
    found = true;
  }
  auto tail = DecisionJournal::replay(journal_path());
  for (const DecisionRecord& r : tail) {
    decided_.emplace(DecisionKey{r.epoch, r.instance}, r);
  }
  return found || !tail.empty();
}

void DaemonService::note_decision(int value, std::uint32_t round,
                                  std::uint32_t instance) {
  // Boundary rounds close an epoch; they are control flow, not output.
  if (instance == kEpochBoundaryInstance) return;
  DecisionRecord rec;
  rec.epoch = current_epoch();
  rec.instance = instance;
  rec.value = value;
  rec.round = round;
  adopt_record(rec);
}

void DaemonService::adopt_record(const DecisionRecord& rec) {
  DecisionKey key{rec.epoch, rec.instance};
  if (!decided_.emplace(key, rec).second) return;
  if (journal_) {
    if (!journal_->append(rec)) {
      // A failed append can leave a torn entry mid-journal; replay stops
      // at the tear, so every later append would be silently discarded on
      // recovery.  Fold the whole table into a checkpoint (which
      // truncates the journal); failing that, truncate the tear away, and
      // failing even that stop journaling — a missing journal only costs
      // wire catch-up, a torn one costs decisions.
      if (!checkpoint_now()) {
        if (!journal_->reset()) journal_.reset();
        since_checkpoint_ = checkpoint_every_;  // retry on the next decision
      }
      return;
    }
    if (++since_checkpoint_ >= checkpoint_every_) checkpoint_now();
  }
}

bool DaemonService::checkpoint_now() {
  if (checkpoint_path_.empty()) return false;
  CheckpointData data;
  data.epoch = current_epoch();
  data.config = slot_.fence().config();
  data.seed = seed_;
  data.decisions.reserve(decided_.size());
  for (const auto& [key, rec] : decided_) data.decisions.push_back(rec);
  if (!save_checkpoint(checkpoint_path_, data)) return false;
  if (journal_) journal_->reset();
  since_checkpoint_ = 0;
  return true;
}

// ----------------------------------------------------------------------
// Catch-up handshake
// ----------------------------------------------------------------------

void DaemonService::on_control(int global_from, const Message& m) {
  if (m.type == MsgType::kEpochCatchupReq) {
    // Answer with everything the requester did not declare known.
    std::set<DecisionKey> known;
    for (std::size_t i = 0; i + 1 < m.ints.size(); i += 2) {
      known.emplace(static_cast<std::uint32_t>(m.ints[i]),
                    static_cast<std::uint32_t>(m.ints[i + 1]));
    }
    std::vector<DecisionRecord> fresh;
    for (const auto& [key, rec] : decided_) {
      if (known.count(key) == 0) fresh.push_back(rec);
    }
    Message reply;
    reply.type = MsgType::kEpochCatchupState;
    reply.sid.owner = static_cast<std::int16_t>(self_);
    reply.blob =
        encode_catchup_state(current_epoch(), slot_.fence().config(), fresh);
    transport_->send(global_from, make_direct(std::move(reply)));
    return;
  }
  if (m.type != MsgType::kEpochCatchupState) return;
  // State replies only mean something while our own catch_up() is in
  // flight; tallying unsolicited ones would let any peer grow the vote
  // maps (and pre-stuff quorums) at will.
  if (!catchup_active_) return;
  auto st = decode_catchup_state(m.blob);
  if (!st) return;
  // The config must describe the epoch the sender claims to be current.
  if (st->config.epoch != st->current_epoch) return;
  ++catchup_frames_;
  catchup_bytes_ += m.blob.size();
  if (st->current_epoch > current_epoch()) {
    // Epoch candidates are keyed by the serialized config: t+1 reporters
    // must agree on a byte-identical config, so a lone Byzantine reply
    // can never smuggle a forged member set under an honest epoch id.
    Writer w;
    st->config.serialize(w);
    auto it = epoch_votes_.find(w.data());
    if (it == epoch_votes_.end()) {
      if (epoch_votes_.size() < kMaxEpochCandidates &&
          take_tally_slot(global_from)) {
        epoch_votes_.emplace(
            std::move(w).take(),
            std::pair{std::set<int>{global_from}, st->config});
      }
    } else if (it->second.first.count(global_from) == 0 &&
               take_tally_slot(global_from)) {
      it->second.first.insert(global_from);
    }
  }
  for (const DecisionRecord& rec : st->decisions) {
    if (decided_.count(DecisionKey{rec.epoch, rec.instance}) != 0) continue;
    std::tuple key{rec.epoch, rec.instance, rec.value};
    auto it = value_votes_.find(key);
    if (it == value_votes_.end()) {
      if (!take_tally_slot(global_from)) continue;
      it = value_votes_.emplace(key, std::set<int>{global_from}).first;
    } else if (it->second.count(global_from) == 0) {
      if (!take_tally_slot(global_from)) continue;
      it->second.insert(global_from);
    }
    // t+1 matching reports contain at least one honest witness — under
    // the resilience of every epoch between here and the record's.
    if (static_cast<int>(it->second.size()) >= witness_t(rec.epoch) + 1) {
      adopt_record(rec);
    }
  }
}

bool DaemonService::take_tally_slot(int global_from) {
  int& used = tallied_keys_[global_from];
  if (used >= kMaxTalliedKeys) return false;
  ++used;
  return true;
}

int DaemonService::witness_t(std::uint32_t rec_epoch) const {
  int t = slot_.fence().config().t;
  for (const auto& entry : epoch_votes_) {
    const EpochConfig& cfg = entry.second.second;
    if (cfg.epoch > current_epoch() && cfg.epoch <= rec_epoch) {
      t = std::max(t, cfg.t);
    }
  }
  return t;
}

bool DaemonService::catch_up(const std::vector<std::uint32_t>& instances,
                             int timeout_ms) {
  catchup_active_ = true;
  Message req;
  req.type = MsgType::kEpochCatchupReq;
  req.sid.owner = static_cast<std::int16_t>(self_);
  req.ints.reserve(decided_.size() * 2);
  for (const auto& [key, rec] : decided_) {
    req.ints.push_back(static_cast<int>(key.first));
    req.ints.push_back(static_cast<int>(key.second));
  }
  for (int g = 0; g < transport_->n(); ++g) {
    if (g == self_) continue;
    transport_->send(g, make_direct(req));
  }
  auto have_all = [&] {
    return std::all_of(instances.begin(), instances.end(),
                       [&](std::uint32_t inst) {
                         return decision(inst).has_value();
                       });
  };
  transport_->run_until(have_all, timeout_ms);
  // Re-enter the newest later epoch whose byte-identical config t+1
  // peers reported.  The threshold honours both the epoch we are in and
  // the one we would join, so the quorum holds an honest witness under
  // either resilience.
  std::optional<EpochConfig> next;
  for (const auto& entry : epoch_votes_) {
    const auto& voters = entry.second.first;
    const EpochConfig& cfg = entry.second.second;
    if (cfg.epoch <= current_epoch()) continue;
    if (static_cast<int>(voters.size()) <
        std::max(slot_.fence().config().t, cfg.t) + 1) {
      continue;
    }
    if (!next || cfg.epoch > next->epoch) next = cfg;
  }
  // The tallies are per-handshake state; keeping them would let later
  // frames build on a stale quorum.
  catchup_active_ = false;
  value_votes_.clear();
  epoch_votes_.clear();
  tallied_keys_.clear();
  // Installing it rebuilds this slot's Node at its new rank, or leaves a
  // spectator if `next` excludes this slot.
  if (next) slot_.install(*next, [this](NodeDaemon& d) { wire(d); });
  return have_all();
}

std::optional<int> DaemonService::decision(std::uint32_t instance) const {
  std::optional<int> out;
  for (const auto& [key, rec] : decided_) {
    if (key.second == instance) out = rec.value;  // map order: epoch ascends
  }
  return out;
}

}  // namespace svss
