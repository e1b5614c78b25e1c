// E1 — Reliable Broadcast cost (paper Appendix A).
//
// Claim: one RB instance costs Theta(n^2) transport packets and O(1)
// causal rounds, independent of scheduling.  Sweep n with t = (n-1)/3 and
// report packets/bytes/rounds per broadcast.
#include "bench_common.hpp"
#include "rbc/rbc.hpp"
#include "sim/scheduler.hpp"

namespace svss::bench {
namespace {

class RbBroadcaster : public IProcess {
 public:
  explicit RbBroadcaster(bool initiator)
      : initiator_(initiator),
        rbc_([](Context&, int, const Message&) {}) {}
  void start(Context& ctx) override {
    if (!initiator_) return;
    Message m;
    m.sid.path = SessionPath::kTest;
    m.type = MsgType::kTestPayload;
    rbc_.broadcast(ctx, m);
  }
  void on_packet(Context& ctx, int from, const Packet& p) override {
    if (p.is_rb) rbc_.on_transport(ctx, from, p);
  }

 private:
  bool initiator_;
  Rbc rbc_;
};

// Iteration k runs seed base + k, so every registration pins its iteration
// count: the averaged counters then depend on the code alone, not on how
// many iterations Google Benchmark would pick on the machine.
void BM_RbBroadcast(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int t = (n - 1) / 3;
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Engine e(n, t, 42 + runs, std::make_unique<RandomScheduler>(7 + runs));
    for (int i = 0; i < n; ++i) {
      e.set_process(i, std::make_unique<RbBroadcaster>(i == 0));
    }
    e.run();
    total.merge(e.metrics());
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_RbBroadcast)->Arg(4)->Arg(7)->Arg(10)->Arg(13)->Arg(16)->Arg(25)
    ->Iterations(5);

// All-to-all concurrent broadcasts: n instances => Theta(n^3) packets.
void BM_RbAllToAll(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int t = (n - 1) / 3;
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Engine e(n, t, 42 + runs, std::make_unique<RandomScheduler>(7 + runs));
    for (int i = 0; i < n; ++i) {
      e.set_process(i, std::make_unique<RbBroadcaster>(true));
    }
    e.run();
    total.merge(e.metrics());
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_RbAllToAll)->Arg(4)->Arg(7)->Arg(10)->Arg(13)->Arg(16)
    ->Iterations(5);

}  // namespace
}  // namespace svss::bench

BENCHMARK_MAIN();
