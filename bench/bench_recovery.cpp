// E10 — Crash-recovery cost: rejoin catch-up vs fresh join.
//
// A daemon restarted from its checkpoint re-enters the fleet with the
// catch-up handshake (core/recovery.hpp): one kEpochCatchupReq broadcast
// declaring what it already knows, answered by one kEpochCatchupState
// frame per responder carrying the missing decision records.  That is
// O(n + n*D) bytes for D missing decisions — flat in protocol rounds —
// versus re-running agreement from scratch, which costs a full epoch of
// RB + votes per instance.  All three series are pure functions of the
// configuration, so the regression gate holds them to the usual +-20%.
#include <cstdio>

#include "bench_common.hpp"
#include "core/epoch.hpp"
#include "core/recovery.hpp"

namespace svss::bench {
namespace {

EpochConfig identity_config(int n, int t) {
  EpochConfig cfg;
  cfg.epoch = 0;
  for (int i = 0; i < n; ++i) cfg.members.push_back(i);
  cfg.t = t;
  return cfg;
}

std::vector<DecisionRecord> make_records(int count) {
  std::vector<DecisionRecord> recs;
  for (int i = 0; i < count; ++i) {
    DecisionRecord rec;
    rec.epoch = 0;
    rec.instance = static_cast<std::uint32_t>(i + 1);
    rec.value = i % 2;
    rec.round = 1;
    recs.push_back(rec);
  }
  return recs;
}

// Wire cost of one rejoin against an n = 4 fleet: the request broadcast
// (the restarted daemon knows nothing) plus n-1 state replies each
// carrying all D missing records, framed exactly as DaemonService frames
// them.
void BM_RejoinCatchup(benchmark::State& state) {
  const int n = 4;
  const int decisions = static_cast<int>(state.range(0));
  const EpochConfig cfg = identity_config(n, 1);
  const std::vector<DecisionRecord> recs = make_records(decisions);
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Metrics m;
    Message req;
    req.type = MsgType::kEpochCatchupReq;
    req.sid.owner = 3;
    for (int g = 0; g < n - 1; ++g) {
      ++m.packets_sent;
      m.bytes_sent += req.serialized_size();
    }
    for (int g = 0; g < n - 1; ++g) {
      Message reply;
      reply.type = MsgType::kEpochCatchupState;
      reply.sid.owner = static_cast<std::int16_t>(g);
      reply.blob = encode_catchup_state(0, cfg, recs);
      ++m.packets_sent;
      m.bytes_sent += reply.serialized_size();
      benchmark::DoNotOptimize(reply.blob.data());
    }
    m.max_depth = 1;  // one round trip, independent of D
    total.merge(m);
    ++runs;
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_RejoinCatchup)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The alternative a rejoining process avoids: deciding the same K
// instances from scratch as a fresh epoch run (n = 4, unanimous inputs,
// ideal common coin — the floor of the agreement cost).  Every iteration
// runs the same seed set, so the counters (per-run means, and the max
// depth over the set) do not depend on how many iterations the timer picks.
void BM_FreshJoin(benchmark::State& state) {
  constexpr std::uint64_t kSeeds = 16;
  const int instances = static_cast<int>(state.range(0));
  EpochPlan plan;
  plan.config = identity_config(4, 1);
  for (int k = 1; k <= instances; ++k) {
    plan.instances.emplace(static_cast<std::uint32_t>(k),
                           std::vector<int>(4, k % 2));
  }
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      Runner r(config(4, 42 + s));
      EpochsResult res = r.run_epochs({plan});
      if (!res.all_decided) state.SkipWithError("epoch run did not decide");
      total.merge(res.metrics);
      ++runs;
    }
  }
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_FreshJoin)->Arg(1)->Arg(4)->Arg(16);

// Local restart cost: checkpoint write + load and journal replay for D
// records.  Bytes gated (file size is deterministic); wall-clock is the
// informational figure.
void BM_CheckpointReplay(benchmark::State& state) {
  const int decisions = static_cast<int>(state.range(0));
  const std::string path = "bench_recovery_ckpt.bin";
  CheckpointData data;
  data.epoch = 0;
  data.config = identity_config(4, 1);
  data.seed = 42;
  data.decisions = make_records(decisions);
  Metrics total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    Metrics m;
    if (!save_checkpoint(path, data)) {
      state.SkipWithError("checkpoint write failed");
      break;
    }
    auto loaded = load_checkpoint(path);
    if (!loaded || loaded->decisions.size() != data.decisions.size()) {
      state.SkipWithError("checkpoint load failed");
      break;
    }
    for (const DecisionRecord& rec : loaded->decisions) {
      m.bytes_sent += sizeof(rec);
      benchmark::DoNotOptimize(rec.value);
    }
    total.merge(m);
    ++runs;
  }
  std::remove(path.c_str());
  report_metrics(state, total, static_cast<double>(runs));
}
BENCHMARK(BM_CheckpointReplay)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace svss::bench

BENCHMARK_MAIN();
