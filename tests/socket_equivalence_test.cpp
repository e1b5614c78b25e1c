// Backend equivalence: sim vs in-process socket loopback.
//
// The transport seam (src/net/transport.hpp) promises that a Node neither
// knows nor cares whether its packets ride the deterministic simulator or
// real TCP.  This instantiates the differential harness's content checks
// across *backends* instead of framings, on honest coin rounds:
//
//  1. verdicts agree — both backends reach quiescence with every honest
//     process holding a coin output and zero shun accusations;
//  2. values agree — a coin-owned SVSS session reconstructed in both runs
//     reconstructed to the *same* value at every process.  RNG streams are
//     seeded identically per slot (the self-th of the sequential root
//     splits) on both backends, so every dealt polynomial is the same;
//     only the delivery schedule may differ;
//  3. metering agrees where the schedule cannot interfere — the dealing
//     burst each process emits synchronously at round start is identical
//     packet-for-packet and byte-for-byte, which pins the socket backend's
//     wire_size() metering to the engine's.
//
// What is deliberately NOT compared: the coin bit (Definition 2 allows
// schedule-dependent outcomes), RB relay counts (the loopback run stops
// once every process holds an output, truncating relay tails at a
// schedule-dependent point), and event order (the loopback schedule is
// wall-clock real).
//
// Every other Runner driver is written once against the Cluster seam too,
// so the file also runs each of them over loopback: the two-phase SVSS and
// MW-SVSS drivers (share, then reconstruct from the main thread between
// runs) must reconstruct the dealt secret on both backends, ACS must agree
// on a valid subset on each, and Ben-Or, MVBA and secure sum must agree
// without an honest process shunning an honest one.  The LoopbackCluster
// tests pin its run loop: start hooks fire once per cluster, and a timed
// out run is reported as capped.
#include <gtest/gtest.h>

#include <set>

#include "equivalence_common.hpp"

namespace svss {
namespace {

struct BackendRun {
  Runner::CoinResult res;
  equivalence::ReconMap recon;
};

BackendRun run_backend(std::uint64_t seed, TransportKind kind,
                       Framing framing) {
  RunnerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = seed;
  cfg.transport.kind = kind;
  cfg.transport.coin_dealing = framing;
  cfg.transport.mw_children = framing;
  Runner r(cfg);
  BackendRun out;
  out.res = r.run_coin();
  out.recon = equivalence::coin_recon_outputs(r.log());
  return out;
}

const char* backend_name(TransportKind kind) {
  return kind == TransportKind::kSim ? "sim" : "socket-loopback";
}

constexpr TransportKind kBackends[2] = {TransportKind::kSim,
                                        TransportKind::kSocketLoopback};

RunnerConfig backend_config(TransportKind kind, int n, int t,
                            std::uint64_t seed) {
  RunnerConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  cfg.transport.kind = kind;
  return cfg;
}

void expect_no_honest_shunned(const Runner& r, TransportKind kind) {
  for (const auto& [who, whom] : r.honest_shun_pairs()) {
    EXPECT_FALSE(r.is_honest(whom))
        << backend_name(kind) << ": " << who << " shunned honest " << whom;
  }
}

void expect_backend_equivalence(std::uint64_t seed, Framing framing) {
  BackendRun run[2];
  for (int v = 0; v < 2; ++v) {
    run[v] = run_backend(seed, kBackends[v], framing);
    const auto& res = run[v].res;
    EXPECT_TRUE(res.all_output)
        << backend_name(kBackends[v]) << " seed " << seed;
    EXPECT_EQ(res.status, RunStatus::kQuiescent)
        << backend_name(kBackends[v]) << " seed " << seed;
    EXPECT_TRUE(res.shun_pairs.empty())
        << backend_name(kBackends[v]) << " seed " << seed;
    for (const auto& [i, bit] : res.bits) {
      EXPECT_TRUE(bit == 0 || bit == 1) << "process " << i;
    }
  }

  // Content equivalence: same session, same value, on every process that
  // reconstructed it in both runs.
  int compared = 0;
  for (const auto& [key, value] : run[0].recon) {
    auto it = run[1].recon.find(key);
    if (it == run[1].recon.end()) continue;
    if (!value || !it->second) continue;
    EXPECT_EQ(*value, *it->second)
        << "process " << key.first << " session " << key.second.str()
        << " seed " << seed;
    ++compared;
  }
  EXPECT_GT(compared, 0) << "no session completed on both backends (seed "
                         << seed << ")";

  // Metering parity on the round-start dealing burst.  Every dealer emits
  // its share messages synchronously inside the coin start action, before
  // a single inbound packet exists, so their count and size are structural
  // — if the socket backend metered frame overhead, or framed a batched
  // envelope differently, this is where it would show.
  MsgType dealing = framing == Framing::kBatched ? MsgType::kSvssBatchShares
                                                 : MsgType::kSvssDealerShares;
  auto slot = static_cast<std::size_t>(dealing);
  EXPECT_GT(run[0].res.metrics.packets_by_type[slot], 0u) << "seed " << seed;
  EXPECT_EQ(run[0].res.metrics.packets_by_type[slot],
            run[1].res.metrics.packets_by_type[slot])
      << "seed " << seed;
  EXPECT_EQ(run[0].res.metrics.bytes_by_type[slot],
            run[1].res.metrics.bytes_by_type[slot])
      << "seed " << seed;
}

TEST(BackendEquivalence, HonestCoinRoundBatchedFraming) {
  for (std::uint64_t seed : {9101ull, 9102ull}) {
    expect_backend_equivalence(seed, Framing::kBatched);
  }
}

TEST(BackendEquivalence, HonestCoinRoundPerSessionFraming) {
  expect_backend_equivalence(9201, Framing::kPerSession);
}

// The loopback backend must also keep the Runner's wire-fault injection
// working through the seam's send hook: a corrupted slot draws accusations
// from honest processes, and only sound ones (honest never shuns honest).
TEST(BackendEquivalence, LoopbackWireFaultsDrawSoundShuns) {
  RunnerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = 9301;
  cfg.transport.kind = TransportKind::kSocketLoopback;
  cfg.faults[3] = ByzConfig{ByzKind::kWrongRecon};
  Runner r(cfg);
  auto res = r.run_coin();
  EXPECT_TRUE(res.all_output);
  for (const auto& [who, whom] : res.shun_pairs) {
    EXPECT_TRUE(r.is_honest(who));
    EXPECT_EQ(whom, 3);
  }
}

// Two-phase drivers: the share phase runs to completion, the main thread
// then enters reconstruction on every slot, and a second run on the same
// cluster reconstructs.  Honest outputs are the dealt secret on both
// backends, so the backends agree value for value.
template <class Drive>
void expect_two_phase_equivalence(std::uint64_t seed, Fp secret,
                                  Drive drive) {
  std::map<int, std::optional<Fp>> outputs[2];
  for (int v = 0; v < 2; ++v) {
    Runner r(backend_config(kBackends[v], 4, 1, seed));
    Runner::ShareResult res = drive(r);
    EXPECT_TRUE(res.all_honest_shared) << backend_name(kBackends[v]);
    EXPECT_TRUE(res.all_honest_output) << backend_name(kBackends[v]);
    EXPECT_EQ(res.status, RunStatus::kQuiescent) << backend_name(kBackends[v]);
    EXPECT_TRUE(res.shun_pairs.empty()) << backend_name(kBackends[v]);
    EXPECT_EQ(res.outputs.size(), 4u) << backend_name(kBackends[v]);
    for (const auto& [i, out] : res.outputs) {
      ASSERT_TRUE(out.has_value()) << backend_name(kBackends[v]) << " " << i;
      EXPECT_EQ(*out, secret) << backend_name(kBackends[v]) << " " << i;
    }
    outputs[v] = res.outputs;
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(BackendEquivalence, SvssReconstructsDealtSecret) {
  const Fp secret(424242);
  expect_two_phase_equivalence(9401, secret, [&](Runner& r) {
    return r.run_svss(secret, /*dealer=*/2);
  });
}

TEST(BackendEquivalence, MwSvssReconstructsDealtSecret) {
  const Fp secret(1717);
  expect_two_phase_equivalence(9402, secret, [&](Runner& r) {
    // The moderator's input matches the secret, so the share completes.
    return r.run_mwsvss(secret, secret, /*dealer=*/1, /*moderator=*/3);
  });
}

// The ACS subset is schedule-dependent, so each backend is held to
// agreement and validity on its own: at least n - t members, and every
// member's proposal is the one it proposed.
TEST(BackendEquivalence, AcsAgreesOnValidSubsetOnEachBackend) {
  std::vector<Bytes> proposals;
  for (int i = 0; i < 4; ++i) {
    proposals.push_back(Bytes{static_cast<std::uint8_t>(0xB0 + i)});
  }
  for (TransportKind kind : kBackends) {
    Runner r(backend_config(kind, 4, 1, 9403));
    auto res = r.run_acs(proposals);
    ASSERT_TRUE(res.all_output) << backend_name(kind);
    EXPECT_TRUE(res.agreed) << backend_name(kind);
    const auto& subset = res.outputs.begin()->second;
    EXPECT_GE(subset.size(), 3u) << backend_name(kind);
    for (const auto& [j, proposal] : subset) {
      EXPECT_EQ(proposal, proposals[static_cast<std::size_t>(j)])
          << backend_name(kind) << " member " << j;
    }
    expect_no_honest_shunned(r, kind);
  }
}

TEST(LoopbackDrivers, BenOrAgrees) {
  constexpr auto kind = TransportKind::kSocketLoopback;
  Runner r(backend_config(kind, 6, 1, 9404));
  auto res = r.run_benor({0, 1, 0, 1, 0, 1});
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  EXPECT_TRUE(res.value == 0 || res.value == 1);
  expect_no_honest_shunned(r, kind);
}

TEST(LoopbackDrivers, MvbaAgrees) {
  constexpr auto kind = TransportKind::kSocketLoopback;
  Runner r(backend_config(kind, 4, 1, 9405));
  auto res = r.run_mvba({Fp(11), Fp(11), Fp(11), Fp(12)}, Fp(0));
  EXPECT_TRUE(res.all_decided);
  EXPECT_TRUE(res.agreed);
  expect_no_honest_shunned(r, kind);
}

TEST(LoopbackDrivers, SecureSumAgrees) {
  constexpr auto kind = TransportKind::kSocketLoopback;
  const std::vector<Fp> inputs{Fp(10), Fp(20), Fp(31), Fp(44)};
  Runner r(backend_config(kind, 4, 1, 9406));
  auto res = r.run_secure_sum(inputs);
  ASSERT_TRUE(res.all_output);
  EXPECT_TRUE(res.agreed);
  const std::set<int>& core = res.cores.begin()->second;
  EXPECT_GE(core.size(), 3u);
  Fp sum(0);
  for (int d : core) sum += inputs[static_cast<std::size_t>(d)];
  EXPECT_EQ(res.outputs.begin()->second, sum.value());
  expect_no_honest_shunned(r, kind);
}

// A second run on one cluster continues it: start hooks (dealing, input
// injection) fire on the first run only.
TEST(LoopbackCluster, StartHooksFireOncePerCluster) {
  LoopbackOptions opts;
  opts.n = 4;
  opts.t = 1;
  opts.seed = 9501;
  LoopbackCluster cluster(opts);
  std::vector<int> starts(4, 0);  // slot i's counter: written by its thread
  for (int i = 0; i < 4; ++i) {
    cluster.node(i).set_start_action([&starts, i](Context&, Node&) {
      ++starts[static_cast<std::size_t>(i)];
    });
  }
  auto always = [](const Node&) { return true; };
  auto everyone = [](int) { return true; };
  EXPECT_TRUE(cluster.run(always, everyone));
  EXPECT_TRUE(cluster.run(always, everyone));
  EXPECT_EQ(starts, std::vector<int>(4, 1));
}

// A run cut by its timeout is a capped run, as a sim run cut by its
// delivery cap is: sweeps and the schedule search read Metrics::capped.
TEST(LoopbackCluster, TimedOutRunReportsCapped) {
  LoopbackOptions opts;
  opts.n = 4;
  opts.t = 1;
  opts.seed = 9502;
  opts.timeout_ms = 100;
  LoopbackCluster cluster(opts);
  EXPECT_FALSE(cluster.merged_metrics().capped);
  EXPECT_FALSE(cluster.run([](const Node&) { return false; },
                           [](int) { return true; }));
  EXPECT_TRUE(cluster.merged_metrics().capped);
}

}  // namespace
}  // namespace svss
