// E3 — SVSS share + reconstruct cost and adversarial behaviour (Section 4).
//
// Claim: one SVSS invocation runs 4 * C(n,2) MW-SVSS children plus one
// bivariate distribution — polynomial overall (Theta(n^5) packets in our
// substrate) — and under adversarial dealers either binds or produces a
// new shun pair (Lemma 3).
#include "bench_common.hpp"

namespace svss::bench {
namespace {

// Iteration k runs seed base + k, so every registration pins its iteration
// count: the averaged counters then depend on the code alone, not on how
// many iterations Google Benchmark would pick on the machine.
void BM_SvssFull(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Runner r(config(n, 100 + runs));
    auto res = r.run_svss(Fp(987));
    if (!res.all_honest_output) state.SkipWithError("did not terminate");
    total.merge(res.metrics);
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_SvssFull)->Arg(4)->Arg(7)->Arg(10)->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_SvssShareOnly(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Runner r(config(n, 200 + runs));
    auto res = r.run_svss(Fp(1), 0, /*reconstruct=*/false);
    if (!res.all_honest_shared) state.SkipWithError("share did not complete");
    total.merge(res.metrics);
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_SvssShareOnly)->Arg(4)->Arg(7)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

// Adversarial dealer: equivocating shares.  Reports how often the session
// still bound vs. how many shun pairs were created (binding-or-shun).
void BM_SvssEquivocatingDealer(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Metrics total;
  std::uint64_t runs = 0;
  double shuns = 0;
  double bound_runs = 0;
  for (auto _ : state) {
    auto cfg = config(n, 300 + runs);
    cfg.faults[0] = ByzConfig{ByzKind::kEquivocate};
    Runner r(cfg);
    auto res = r.run_svss(Fp(31337), /*dealer=*/0);
    total.merge(res.metrics);
    shuns += static_cast<double>(res.shun_pairs.size());
    std::set<std::optional<std::uint64_t>> distinct;
    for (const auto& [i, out] : res.outputs) {
      distinct.insert(out ? std::optional<std::uint64_t>(out->value())
                          : std::nullopt);
    }
    if (distinct.size() <= 1) bound_runs += 1;
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
  state.counters["shun_pairs"] =
      benchmark::Counter(shuns / static_cast<double>(runs));
  state.counters["bound_frac"] =
      benchmark::Counter(bound_runs / static_cast<double>(runs));
}
BENCHMARK(BM_SvssEquivocatingDealer)->Arg(4)->Arg(7)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace svss::bench

BENCHMARK_MAIN();
