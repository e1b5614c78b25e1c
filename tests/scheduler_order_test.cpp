// Engine-level ordering guarantees for the FIFO and LIFO schedulers, and
// the age-cap (max_lag) eventual-delivery invariant that makes every
// scheduler a valid asynchronous adversary.  scheduler_test.cpp checks the
// priority functions in isolation; these tests check what the engine
// actually delivers.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"

namespace svss {
namespace {

// Appends every payload it receives to a shared delivery record.
class Recorder : public IProcess {
 public:
  explicit Recorder(std::vector<int>* sink) : sink_(sink) {}
  void start(Context&) override {}
  void on_packet(Context&, int, const Packet& p) override {
    sink_->push_back(p.app.a);
  }

 private:
  std::vector<int>* sink_;
};

// Sends `count` numbered packets to process `to` at start.
class Burst : public IProcess {
 public:
  Burst(int to, int count, int base = 0)
      : to_(to), count_(count), base_(base) {}
  void start(Context& ctx) override {
    for (int k = 0; k < count_; ++k) {
      Message m;
      m.a = static_cast<std::int16_t>(base_ + k);
      ctx.send(to_, make_direct(m));
    }
  }
  void on_packet(Context&, int, const Packet&) override {}

 private:
  int to_;
  int count_;
  int base_;
};

// Replies to every packet forever: an endless source of fresh traffic.
class Chatter : public IProcess {
 public:
  void start(Context&) override {}
  void on_packet(Context& ctx, int from, const Packet& p) override {
    ctx.send(from, p);
  }
};

TEST(SchedulerOrder, FifoDeliversInExactSendOrder) {
  std::vector<int> got;
  Engine e(2, 0, 1, std::make_unique<FifoScheduler>());
  e.set_process(0, std::make_unique<Burst>(1, 64));
  e.set_process(1, std::make_unique<Recorder>(&got));
  EXPECT_EQ(e.run(), RunStatus::kQuiescent);
  std::vector<int> want(64);
  for (int k = 0; k < 64; ++k) want[static_cast<std::size_t>(k)] = k;
  EXPECT_EQ(got, want);
}

TEST(SchedulerOrder, FifoInterleavesSendersBySendSequence) {
  // Two senders burst in start(); start() runs in id order, so the global
  // send sequence is all of sender 0's packets, then all of sender 1's.
  std::vector<int> got;
  Engine e(3, 0, 1, std::make_unique<FifoScheduler>());
  e.set_process(0, std::make_unique<Burst>(2, 8, 0));
  e.set_process(1, std::make_unique<Burst>(2, 8, 100));
  e.set_process(2, std::make_unique<Recorder>(&got));
  EXPECT_EQ(e.run(), RunStatus::kQuiescent);
  std::vector<int> want;
  for (int k = 0; k < 8; ++k) want.push_back(k);
  for (int k = 0; k < 8; ++k) want.push_back(100 + k);
  EXPECT_EQ(got, want);
}

TEST(SchedulerOrder, LifoDeliversNewestFirst) {
  // All packets are in flight before the first delivery; with no new sends
  // afterwards and the default (huge) age cap, LIFO is exact reverse order.
  std::vector<int> got;
  Engine e(2, 0, 1, std::make_unique<LifoScheduler>());
  e.set_process(0, std::make_unique<Burst>(1, 64));
  e.set_process(1, std::make_unique<Recorder>(&got));
  EXPECT_EQ(e.run(), RunStatus::kQuiescent);
  std::vector<int> want(64);
  for (int k = 0; k < 64; ++k) want[static_cast<std::size_t>(k)] = 63 - k;
  EXPECT_EQ(got, want);
}

// The eventual-delivery invariant: no packet waits more than max_lag
// deliveries, whatever the scheduler wants.  A marker packet competes with
// an endless stream of fresh chatter; for every scheduler kind it must
// arrive within the age cap (plus the marker itself).
TEST(SchedulerOrder, MaxLagBoundsStarvationForEveryKind) {
  constexpr std::uint64_t kLag = 50;
  for (auto kind : {SchedulerKind::kFifo, SchedulerKind::kRandom,
                    SchedulerKind::kLifo, SchedulerKind::kDelayLastHonest}) {
    std::vector<int> got;
    Engine e(4, 1, 7, make_scheduler(kind, 7, 4, 1));
    e.set_max_lag(kLag);
    e.set_process(0, std::make_unique<Chatter>());
    e.set_process(1, std::make_unique<Chatter>());
    e.set_process(2, std::make_unique<Chatter>());
    e.set_process(3, std::make_unique<Recorder>(&got));
    // The marker is the globally oldest packet; afterwards 1 <-> 2 bounce
    // a packet forever, so the run never quiesces on its own and every
    // chatter reply is newer than the marker — LIFO and targeted-delay
    // schedulers would starve it forever without the age cap.
    Message marker;
    marker.a = 42;
    Context ctx0 = e.host(0).ctx();
    ctx0.send(3, make_direct(marker));
    Context ctx1 = e.host(1).ctx();
    Message m;
    ctx1.send(2, make_direct(m));
    auto status = e.run_until([&] { return !got.empty(); }, 10'000);
    EXPECT_EQ(status, RunStatus::kQuiescent)
        << "marker starved under kind " << static_cast<int>(kind);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 42);
    // The marker was in flight from delivery 0, so the age cap bounds its
    // wait: forced through once skipped for more than kLag deliveries.
    EXPECT_LE(e.metrics().packets_delivered, kLag + 2)
        << "age cap failed to bound waiting under kind "
        << static_cast<int>(kind);
  }
}

// A deliberately adversarial Scheduler implementation: the seam promises
// eventual delivery for ANY priority function, so the property test below
// feeds the engine pathological ones — constant 0 (total tie), ~seq
// (monotone newest-first, the mirror of FIFO), seeded random extremes
// (each packet either front-band or back-band), and targeted starvation
// of one receiver's traffic.
class HostileScheduler final : public Scheduler {
 public:
  enum class Mode { kConstantZero, kNotSeq, kRandomExtreme, kStarveReceiver };

  HostileScheduler(Mode mode, std::uint64_t seed, int victim = -1)
      : mode_(mode), rng_(seed), victim_(victim) {}

  std::uint64_t priority(const PendingInfo& p) override {
    switch (mode_) {
      case Mode::kConstantZero: return 0;
      case Mode::kNotSeq: return ~p.seq;
      case Mode::kRandomExtreme: return rng_.next_bool() ? 0 : ~0ULL;
      case Mode::kStarveReceiver: return p.to == victim_ ? ~0ULL : p.seq;
    }
    return 0;
  }

 private:
  Mode mode_;
  Rng rng_;
  int victim_;
};

// Property: whatever priorities a hostile scheduler returns — including
// the all-ones "never deliver" answer for a targeted victim — the age cap
// still forces the oldest packet through within max_lag deliveries.  This
// is the invariant that makes the schedule-search genomes (src/search/)
// safe by construction: no genome can starve a packet past the cap.
TEST(SchedulerOrder, HostilePrioritiesCannotBeatAgeCap) {
  constexpr std::uint64_t kLag = 50;
  using Mode = HostileScheduler::Mode;
  struct Case {
    Mode mode;
    std::uint64_t seed;
  };
  std::vector<Case> cases = {{Mode::kConstantZero, 1},
                             {Mode::kNotSeq, 1},
                             {Mode::kStarveReceiver, 1}};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cases.push_back({Mode::kRandomExtreme, seed});
  }
  for (const Case& c : cases) {
    std::vector<int> got;
    Engine e(4, 1, 7,
             std::make_unique<HostileScheduler>(c.mode, c.seed, /*victim=*/3));
    e.set_max_lag(kLag);
    e.set_process(0, std::make_unique<Chatter>());
    e.set_process(1, std::make_unique<Chatter>());
    e.set_process(2, std::make_unique<Chatter>());
    e.set_process(3, std::make_unique<Recorder>(&got));
    Message marker;
    marker.a = 42;
    Context ctx0 = e.host(0).ctx();
    ctx0.send(3, make_direct(marker));
    Context ctx1 = e.host(1).ctx();
    Message m;
    ctx1.send(2, make_direct(m));
    auto status = e.run_until([&] { return !got.empty(); }, 10'000);
    EXPECT_EQ(status, RunStatus::kQuiescent)
        << "marker starved under hostile mode " << static_cast<int>(c.mode)
        << " seed " << c.seed;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 42);
    EXPECT_LE(e.metrics().packets_delivered, kLag + 2)
        << "age cap failed under hostile mode " << static_cast<int>(c.mode)
        << " seed " << c.seed;
  }
}

// TargetedDelayScheduler's documented invariant (sim/scheduler.hpp): the
// penalty displaces a slow-predicate packet once, at send time, and the
// packet is re-penalized only by the age cap — so it is delivered within
// penalty + max_lag deliveries of entering the system.  Two regimes:
//
// Cap regime: the penalty (1 << 18) dwarfs a small max_lag (64), so the
// age cap is what forces the marker through, within ~max_lag deliveries.
TEST(SchedulerOrder, TargetedDelayCapRegimeBound) {
  constexpr std::uint64_t kLag = 64;
  constexpr std::uint64_t kPenalty = 1 << 18;
  std::vector<int> got;
  auto slow = [](const PendingInfo& p) { return p.to == 3; };
  Engine e(4, 1, 7,
           std::make_unique<TargetedDelayScheduler>(7, slow, kPenalty));
  e.set_max_lag(kLag);
  e.set_process(0, std::make_unique<Chatter>());
  e.set_process(1, std::make_unique<Chatter>());
  e.set_process(2, std::make_unique<Chatter>());
  e.set_process(3, std::make_unique<Recorder>(&got));
  Message marker;
  marker.a = 7;
  Context ctx0 = e.host(0).ctx();
  ctx0.send(3, make_direct(marker));
  Context ctx1 = e.host(1).ctx();
  Message m;
  ctx1.send(2, make_direct(m));
  auto status = e.run_until([&] { return !got.empty(); }, 10'000);
  EXPECT_EQ(status, RunStatus::kQuiescent);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_LE(e.metrics().packets_delivered, kLag + 2);
  EXPECT_LE(e.metrics().packets_delivered, kPenalty + kLag);
}

// Priority regime: a modest penalty under the default (huge) age cap.  The
// marker's one-shot displacement is penalty + jitter (< 1 << 10), so fresh
// traffic overtakes it for at most that many sends before its priority is
// again the smallest — well within the documented penalty + max_lag bound.
TEST(SchedulerOrder, TargetedDelayPriorityRegimeBound) {
  constexpr std::uint64_t kPenalty = 4096;
  std::vector<int> got;
  auto slow = [](const PendingInfo& p) { return p.to == 3; };
  Engine e(4, 1, 7,
           std::make_unique<TargetedDelayScheduler>(7, slow, kPenalty));
  e.set_process(0, std::make_unique<Chatter>());
  e.set_process(1, std::make_unique<Chatter>());
  e.set_process(2, std::make_unique<Chatter>());
  e.set_process(3, std::make_unique<Recorder>(&got));
  Message marker;
  marker.a = 7;
  Context ctx0 = e.host(0).ctx();
  ctx0.send(3, make_direct(marker));
  Context ctx1 = e.host(1).ctx();
  Message m;
  ctx1.send(2, make_direct(m));
  auto status = e.run_until([&] { return !got.empty(); }, 100'000);
  EXPECT_EQ(status, RunStatus::kQuiescent);
  ASSERT_EQ(got.size(), 1u);
  // One-shot displacement: delivered as soon as the send clock passes the
  // marker's penalized priority (seq 0 + jitter + penalty), long before
  // the age cap would have to intervene.
  EXPECT_LE(e.metrics().packets_delivered, kPenalty + (1 << 10) + 4);
  EXPECT_LE(e.metrics().packets_delivered, kPenalty + e.max_lag());
}

// LIFO with the age cap still delivers *everything* (no packet is lost to
// lazy heap/fifo bookkeeping) even when chatter keeps arriving.
TEST(SchedulerOrder, LifoWithAgeCapLosesNothing) {
  std::vector<int> got;
  Engine e(2, 0, 3, std::make_unique<LifoScheduler>());
  e.set_max_lag(8);
  e.set_process(0, std::make_unique<Burst>(1, 100));
  e.set_process(1, std::make_unique<Recorder>(&got));
  EXPECT_EQ(e.run(), RunStatus::kQuiescent);
  EXPECT_EQ(got.size(), 100u);
  EXPECT_EQ(e.metrics().packets_delivered, e.metrics().packets_sent);
}

// ----------------------------------------------------------------------
// Reference model for the engine's queue.  The contract: deliver the
// oldest in-flight packet if it has waited more than max_lag deliveries,
// else the packet with the least (priority, seq).  The engine's queue is
// an optimised implementation of exactly that; the model below is the
// naive one, an ordered set plus a FIFO, replayed against the engine's own
// sends and priorities.
// ----------------------------------------------------------------------

// Each packet received spawns 0-3 sends to random processes while a shared
// send budget lasts: a branching, then draining, cloud of traffic.
class FanOut : public IProcess {
 public:
  explicit FanOut(int* budget) : budget_(budget) {}
  void start(Context& ctx) override { fan(ctx, 2); }
  void on_packet(Context& ctx, int, const Packet&) override {
    fan(ctx, static_cast<int>(ctx.rng().next_below(4)));
  }

 private:
  void fan(Context& ctx, int count) {
    for (int k = 0; k < count && *budget_ > 0; ++k, --*budget_) {
      int to = static_cast<int>(
          ctx.rng().next_below(static_cast<std::uint64_t>(ctx.n())));
      ctx.send(to, make_direct(Message{}));
    }
  }
  int* budget_;
};

// One send as the queue saw it: its priority, and the delivery count at
// the moment it was sent (the engine's enqueue step).
struct SentRecord {
  std::uint64_t priority;
  std::uint64_t step;
};

// Passes priorities through from `inner`, recording each send in seq order.
class RecordingScheduler final : public Scheduler {
 public:
  RecordingScheduler(std::unique_ptr<Scheduler> inner,
                     const std::uint64_t* deliveries,
                     std::vector<SentRecord>* sends)
      : inner_(std::move(inner)), deliveries_(deliveries), sends_(sends) {}
  std::uint64_t priority(const PendingInfo& p) override {
    std::uint64_t prio = inner_->priority(p);
    EXPECT_EQ(p.seq, sends_->size());
    sends_->push_back(SentRecord{prio, *deliveries_});
    return prio;
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  const std::uint64_t* deliveries_;
  std::vector<SentRecord>* sends_;
};

// The naive queue, replayed over the recorded sends.  Sends only depend on
// earlier deliveries, so the first step where this disagrees with the
// engine is a step where the engine chose wrongly from the same state.
std::vector<std::uint64_t> reference_order(const std::vector<SentRecord>& sends,
                                           std::uint64_t max_lag) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> queue;  // (prio, seq)
  std::deque<std::uint64_t> fifo;
  std::vector<bool> delivered(sends.size(), false);
  std::vector<std::uint64_t> order;
  std::size_t next = 0;
  for (std::uint64_t step = 0;; ++step) {
    for (; next < sends.size() && sends[next].step <= step; ++next) {
      queue.emplace(sends[next].priority, next);
      fifo.push_back(next);
    }
    while (!fifo.empty() && delivered[fifo.front()]) fifo.pop_front();
    if (fifo.empty()) break;
    std::uint64_t seq = step - sends[fifo.front()].step > max_lag
                            ? fifo.front()
                            : queue.begin()->second;
    queue.erase({sends[seq].priority, seq});
    delivered[seq] = true;
    order.push_back(seq);
  }
  return order;
}

TEST(SchedulerOrder, QueueMatchesReferenceModel) {
  using Mode = HostileScheduler::Mode;
  using Factory = std::function<std::unique_ptr<Scheduler>()>;
  std::vector<std::pair<const char*, Factory>> schedulers = {
      {"fifo", [] { return make_scheduler(SchedulerKind::kFifo, 5, 4, 1); }},
      {"random",
       [] { return make_scheduler(SchedulerKind::kRandom, 5, 4, 1); }},
      {"lifo", [] { return make_scheduler(SchedulerKind::kLifo, 5, 4, 1); }},
      {"delay-last-honest",
       [] { return make_scheduler(SchedulerKind::kDelayLastHonest, 5, 4, 1); }},
      {"hostile-random-extreme",
       [] {
         return std::make_unique<HostileScheduler>(Mode::kRandomExtreme, 5);
       }},
  };
  for (const auto& [name, factory] : schedulers) {
    for (std::uint64_t max_lag : {std::uint64_t{8}, std::uint64_t{1} << 20}) {
      std::uint64_t deliveries = 0;
      std::vector<SentRecord> sends;
      std::vector<std::uint64_t> got;
      int budget = 20'000;
      Engine e(4, 1, 11,
               std::make_unique<RecordingScheduler>(factory(), &deliveries,
                                                    &sends));
      e.set_max_lag(max_lag);
      for (int i = 0; i < 4; ++i) {
        e.set_process(i, std::make_unique<FanOut>(&budget));
      }
      e.set_delivery_observer([&](const PendingInfo& info, const Packet&) {
        ++deliveries;
        got.push_back(info.seq);
      });
      ASSERT_EQ(e.run(), RunStatus::kQuiescent) << name << " lag " << max_lag;
      EXPECT_EQ(got.size(), sends.size()) << name << " lag " << max_lag;
      EXPECT_GT(got.size(), 10'000u) << name << " lag " << max_lag;
      EXPECT_EQ(got, reference_order(sends, max_lag))
          << name << " lag " << max_lag;
    }
  }
}

}  // namespace
}  // namespace svss
