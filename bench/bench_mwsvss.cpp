// E2 — MW-SVSS share + reconstruct cost (paper Section 3).
//
// Claim: one MW-SVSS invocation is polynomial — Theta(n^2) RB instances of
// Theta(n^2) packets each plus Theta(n^2) direct messages, and O(1) causal
// rounds.  Sweep n; also measure the share phase alone, and the protocol
// under faulty dealer/moderator mixes (cost must stay polynomial when the
// adversary participates).
#include "bench_common.hpp"

namespace svss::bench {
namespace {

// Iteration k runs seed base + k, so every registration pins its iteration
// count: the averaged counters then depend on the code alone, not on how
// many iterations Google Benchmark would pick on the machine.
void BM_MwSvssFull(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Runner r(config(n, 100 + runs));
    auto res = r.run_mwsvss(Fp(424242), Fp(424242));
    if (!res.all_honest_output) state.SkipWithError("did not terminate");
    total.merge(res.metrics);
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_MwSvssFull)->Arg(4)->Arg(7)->Arg(10)->Arg(13)->Arg(16)
    ->Iterations(5);

void BM_MwSvssShareOnly(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Runner r(config(n, 200 + runs));
    auto res = r.run_mwsvss(Fp(1), Fp(1), 0, 1, /*reconstruct=*/false);
    if (!res.all_honest_shared) state.SkipWithError("share did not complete");
    total.merge(res.metrics);
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_MwSvssShareOnly)->Arg(4)->Arg(7)->Arg(10)->Arg(13)->Arg(16)
    ->Iterations(5);

// Faulty confirmer corrupting its reconstruct broadcasts: the protocol
// still terminates with polynomial cost; detections happen.
void BM_MwSvssWrongRecon(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  double shuns = 0;
  for (auto _ : state) {
    auto cfg = config(n, 300 + runs);
    cfg.faults[n - 1] = ByzConfig{ByzKind::kWrongRecon};
    Runner r(cfg);
    auto res = r.run_mwsvss(Fp(77), Fp(77));
    total.merge(res.metrics);
    shuns += static_cast<double>(res.shun_pairs.size());
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
  state.counters["shun_pairs"] = benchmark::Counter(
      shuns / static_cast<double>(runs));
}
BENCHMARK(BM_MwSvssWrongRecon)->Arg(4)->Arg(7)->Arg(10)->Arg(13)
    ->Iterations(5);

// Hostile scheduling: the last-honest-delayed schedule must not change the
// asymptotics, only constants.
void BM_MwSvssHostileSchedule(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Runner r(config(n, 400 + runs, SchedulerKind::kDelayLastHonest));
    auto res = r.run_mwsvss(Fp(5), Fp(5));
    if (!res.all_honest_output) state.SkipWithError("did not terminate");
    total.merge(res.metrics);
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_MwSvssHostileSchedule)->Arg(4)->Arg(7)->Arg(10)
    ->Iterations(5);

}  // namespace
}  // namespace svss::bench

BENCHMARK_MAIN();
