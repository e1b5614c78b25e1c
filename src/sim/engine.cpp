#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace svss {

std::vector<std::pair<int, int>> EventLog::shun_pairs() const {
  std::vector<std::pair<int, int>> out;
  for (const Event& e : events_) {
    if (e.kind != EventKind::kShun) continue;
    std::pair<int, int> p{e.who, e.other};
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

Rng slot_rng(std::uint64_t seed, int self) {
  Rng root(seed);
  root.discard(static_cast<std::uint64_t>(self));  // splits 0 .. self-1
  return root.split(static_cast<std::uint64_t>(self));
}

ProcessHost::ProcessHost(std::unique_ptr<IProcess> proc, int t,
                         std::uint64_t seed, ITransport& tr, EventLog& log)
    : world_{tr.self(), tr.n(), t, slot_rng(seed, tr.self()), &log, &tr},
      proc_(std::move(proc)) {
  tr.set_delivery([this](int from, const Packet& p) {
    Context ctx(world_);
    proc_->on_packet(ctx, from, p);
  });
}

// ----------------------------------------------------------------------
// SimPort: the engine as one slot's ITransport endpoint.  Sends run the
// slot's send hook per recipient, then feed the scheduler; deliver_one
// hands every packet for the slot to its delivery sink.
// ----------------------------------------------------------------------
class Engine::SimPort final : public ITransport {
 public:
  SimPort(Engine& eng, int id) : eng_(&eng), id_(id) {}

  void send(int to, Packet p) override {
    if (hook_ && !hook_(to, p)) return;
    eng_->enqueue(id_, to, std::move(p));
  }
  void set_delivery(Delivery sink) override { sink_ = std::move(sink); }
  void set_send_hook(SendHook hook) override { hook_ = std::move(hook); }
  [[nodiscard]] int self() const override { return id_; }
  [[nodiscard]] int n() const override { return eng_->n(); }

  void deliver(int from, const Packet& p) {
    if (sink_) sink_(from, p);
  }

 private:
  Engine* eng_;
  int id_;
  Delivery sink_;
  SendHook hook_;
};

ITransport& Engine::transport(int id) {
  return ports_.at(static_cast<std::size_t>(id));
}

Engine::~Engine() = default;

Engine::Engine(int n, int t, std::uint64_t seed,
               std::unique_ptr<Scheduler> sched)
    : n_(n), t_(t), seed_(seed), sched_(std::move(sched)),
      hosts_(static_cast<std::size_t>(n)),
      proc_depth_(static_cast<std::size_t>(n), 0) {
  if (n <= 0) throw std::invalid_argument("Engine: n must be positive");
  ports_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ports_.emplace_back(*this, i);
}

void Engine::set_process(int id, std::unique_ptr<IProcess> p) {
  hosts_.at(static_cast<std::size_t>(id))
      .emplace(std::move(p), t_, seed_, ports_[static_cast<std::size_t>(id)],
               log_);
}

ProcessHost& Engine::host(int id) {
  return hosts_.at(static_cast<std::size_t>(id)).value();
}

// ----------------------------------------------------------------------
// Min-heap over arena slots, ordered by (priority, seq).  4-ary layout:
// random scheduler priorities force a full-depth sift on nearly every pop,
// so halving the number of levels beats the binary layout on the
// delivery-heavy protocol runs.  The heap keeps no position index: the
// age cap delivers a packet without removing its entry, which stays behind
// as a tombstone until it reaches the root or compact_queue drops it.
// ----------------------------------------------------------------------
void Engine::heap_push(const HeapEntry& e) {
  auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(e);
  while (pos > 0) {
    std::uint32_t parent = (pos - 1) / 4;
    if (!heap_less(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

// Bottom-up pop: walk the root's hole down to a leaf along the minimum
// child, then sift the former last entry up from there.  The last entry
// almost always belongs near the bottom, so this saves the compare against
// it on every level that a top-down sift pays.
Engine::HeapEntry Engine::heap_pop() {
  const HeapEntry top = heap_[0];
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const auto size = static_cast<std::uint32_t>(heap_.size());
  if (size == 0) return top;
  std::uint32_t pos = 0;
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= size) break;
    std::uint32_t best = first;
    if (first + 4 <= size) {
      // Pairwise min of four: two independent compares, then one.
      std::uint32_t a = heap_less(heap_[first + 1], heap_[first]) ? first + 1
                                                                  : first;
      std::uint32_t b = heap_less(heap_[first + 3], heap_[first + 2])
                            ? first + 3
                            : first + 2;
      best = heap_less(heap_[b], heap_[a]) ? b : a;
    } else {
      for (std::uint32_t c = first + 1; c < size; ++c) {
        if (heap_less(heap_[c], heap_[best])) best = c;
      }
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  while (pos > 0) {
    std::uint32_t parent = (pos - 1) / 4;
    if (!heap_less(last, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = last;
  return top;
}

// Drops every tombstone.  A sorted array is a valid heap, and the order is
// total, so the rebuilt queue pops the same sequence.  Amortised O(log k)
// per delivery: a compaction follows at least in_flight_ + 65 age-cap
// deliveries.
void Engine::compact_queue() {
  std::erase_if(heap_, [this](const HeapEntry& e) {
    return !in_flight_at(e.slot, e.seq);
  });
  std::sort(heap_.begin(), heap_.end(), heap_less);
}

void Engine::enqueue(int from, int to, Packet&& p) {
  assert(to >= 0 && to < n_);
  std::uint64_t seq = next_seq_++;

  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Pending& pending = arena_[slot];
  pending.seq = seq;
  pending.enqueue_step = delivered_;
  pending.from = from;
  pending.to = to;
  pending.depth = current_depth_ + 1;
  pending.pkt = std::move(p);
  pending.live = true;

  const std::uint64_t priority =
      sched_->priority(PendingInfo{seq, from, to, pending.pkt.is_rb});

  metrics_.note_send(pending.pkt);

  ++in_flight_;
  heap_push(HeapEntry{priority, seq, slot});
  fifo_.emplace_back(slot, seq);
}

void Engine::deliver_one() {
  // Drop fifo entries whose packet was already delivered (their slot was
  // freed, and possibly reused under a different seq).
  while (!fifo_.empty()) {
    const auto& [slot, seq] = fifo_.front();
    if (in_flight_at(slot, seq)) break;
    fifo_.pop_front();
  }
  std::uint32_t slot;
  // Age cap: force the oldest in-flight packet through if starved.  Its
  // heap entry stays behind as a tombstone.
  if (!fifo_.empty() &&
      delivered_ - arena_[fifo_.front().first].enqueue_step > max_lag_) {
    slot = fifo_.front().first;
    fifo_.pop_front();
  } else {
    for (;;) {
      if (heap_.empty()) return;
      const HeapEntry top = heap_pop();
      if (in_flight_at(top.slot, top.seq)) {
        slot = top.slot;
        break;
      }
    }
  }

  Pending& chosen = arena_[slot];
  chosen.live = false;
  --in_flight_;
  if (heap_.size() > 2 * in_flight_ + 64) compact_queue();
  delivered_++;
  metrics_.packets_delivered++;

  // Causal depth: the receiver's depth becomes at least the packet's depth;
  // packets it sends while handling this delivery are one deeper.
  auto& rd = proc_depth_[static_cast<std::size_t>(chosen.to)];
  rd = std::max(rd, chosen.depth);
  current_depth_ = rd;
  metrics_.max_depth = std::max(metrics_.max_depth, rd);

  // Move the packet out so the slot can be reused by sends performed while
  // handling this delivery (on_packet may enqueue recursively).
  Packet pkt = std::move(chosen.pkt);
  chosen.pkt = Packet{};
  int to = chosen.to;
  int from = chosen.from;
  std::uint64_t seq = chosen.seq;
  free_slots_.push_back(slot);

  if (observer_) observer_(PendingInfo{seq, from, to, pkt.is_rb}, pkt);
  ports_[static_cast<std::size_t>(to)].deliver(from, pkt);
}

RunStatus Engine::run(std::uint64_t max_deliveries) {
  return run_until([] { return false; }, max_deliveries);
}

RunStatus Engine::run_until(const std::function<bool()>& done,
                            std::uint64_t max_deliveries) {
  if (!started_) {
    // Nothing was delivered yet, so every start-burst send is at depth 1.
    started_ = true;
    for (auto& h : hosts_) {
      if (h) h->start();
    }
  }
  std::uint64_t budget = max_deliveries;
  while (!idle() && !done()) {
    if (budget-- == 0) {
      metrics_.capped = true;
      metrics_.deliveries_at_cap = delivered_;
      return RunStatus::kDeliveryCap;
    }
    deliver_one();
  }
  return RunStatus::kQuiescent;
}

}  // namespace svss
