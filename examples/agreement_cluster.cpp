// agreement_cluster: a replicated cluster deciding commit/abort.
//
// Scenario: n replicas received (possibly conflicting) votes on whether to
// commit a cross-shard transaction.  The network is asynchronous and
// hostile, and up to t replicas are Byzantine.  The cluster runs the
// paper's agreement protocol; for contrast, the same workload runs on the
// Bracha-style local-coin baseline, which needs far more rounds at scale.
//
// Two deployment shapes:
//
//   $ ./agreement_cluster [n] [seed]
//       In-process comparison run (deterministic simulator): the paper's
//       SVSS coin vs. the local-coin and ideal-coin baselines, with t
//       replicas wire-corrupted and a hostile scheduler.
//
//   $ ./agreement_cluster --id I --peers H:P,H:P,... [--seed S] [--vote V]
//       One replica of a REAL multi-process deployment: this process is
//       slot I of the fleet, binds peers[I], speaks TCP to the others, and
//       decides over actual sockets.  Launch n of these (one per slot) and
//       each prints "decided value=..." — scripts/socket_smoke.sh does
//       exactly that and asserts they agree.
//
//   $ ./agreement_cluster --id I --peers ... --instances K
//         [--checkpoint PATH] [--linger-ms L]
//       Same replica shape, but K concurrent agreement instances and
//       durable state: every decision is journaled to PATH.journal and
//       checkpointed to PATH.  A process restarted after a crash recovers
//       its decisions from disk and runs the catch-up handshake for the
//       rest instead of re-submitting — scripts/recovery_smoke.sh kills
//       one replica mid-run and asserts the restart converges.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/runner.hpp"

namespace {

std::vector<int> make_votes(int n, std::uint64_t seed) {
  // A contentious split vote, deterministic per seed.
  svss::Rng rng(seed);
  std::vector<int> votes;
  for (int i = 0; i < n; ++i) votes.push_back(rng.next_bool() ? 1 : 0);
  return votes;
}

void print_result(const char* label, const svss::Runner::AbaResult& res) {
  std::printf("%-22s decided=%-3s value=%-2d rounds=%-3u msgs=%llu\n", label,
              res.all_decided && res.agreed ? "yes" : "NO", res.value,
              res.max_round,
              static_cast<unsigned long long>(res.metrics.packets_sent));
}

int run_daemon(int id, const std::string& peers_spec, std::uint64_t seed,
               int vote) {
  auto cluster = svss::net::parse_cluster(peers_spec);
  if (!cluster) {
    std::fprintf(stderr, "agreement_cluster: bad --peers spec\n");
    return 2;
  }
  int n = cluster->n();
  if (id < 0 || id >= n) {
    std::fprintf(stderr, "agreement_cluster: --id outside the fleet\n");
    return 2;
  }
  if (vote < 0) vote = make_votes(n, seed)[static_cast<std::size_t>(id)];

  svss::DaemonService replica(id, *cluster, seed);
  std::printf("agreement_cluster[%d]: joining fleet of %d, vote=%d\n", id, n,
              vote);
  replica.node().set_start_action(
      [vote](svss::Context& c, svss::Node& nd) {
        nd.start_aba(c, vote, svss::CoinMode::kSvss);
      });
  if (!replica.start()) {
    std::fprintf(stderr, "agreement_cluster[%d]: failed to bind endpoint\n",
                 id);
    return 2;
  }
  bool decided = replica.run_until(
      [&] {
        const svss::AbaSession* a = replica.node().aba();
        return a != nullptr && a->decided();
      },
      60'000);
  if (!decided) {
    if (svss::DaemonService::stop_requested()) {
      // Supervisor asked us to stop (SIGTERM/SIGINT): report, close the
      // listener, and exit 0 instead of dying mid-write.
      std::printf("agreement_cluster[%d]: stopped by signal, msgs=%llu\n", id,
                  static_cast<unsigned long long>(
                      replica.transport().metrics().packets_sent));
      replica.shutdown();
      return 0;
    }
    std::printf("agreement_cluster[%d]: TIMEOUT without decision\n", id);
    return 1;
  }
  std::printf("agreement_cluster[%d]: decided value=%d round=%u\n", id,
              replica.node().aba()->decision(),
              replica.node().aba()->decision_round());
  std::fflush(stdout);
  // Stay up so laggard peers can still complete their broadcasts (a stop
  // signal cuts the linger short).
  replica.linger(2'000);
  replica.shutdown();
  std::printf("agreement_cluster[%d]: shutdown msgs=%llu bytes=%llu\n", id,
              static_cast<unsigned long long>(
                  replica.transport().metrics().packets_sent),
              static_cast<unsigned long long>(
                  replica.transport().metrics().bytes_sent));
  return 0;
}

// The latest-epoch decision record for `inst`, if the service knows one.
const svss::DecisionRecord* find_record(const svss::DaemonService& replica,
                                        std::uint32_t inst) {
  const svss::DecisionRecord* found = nullptr;
  for (const auto& [key, rec] : replica.decisions()) {
    if (key.second == inst) found = &rec;
  }
  return found;
}

// Multi-instance daemon with durable decisions: submit K instances on a
// fresh start, or recover + catch up after a crash restart.
int run_daemon_multi(int id, const std::string& peers_spec, std::uint64_t seed,
                     int instances, const std::string& checkpoint,
                     int linger_ms, bool force_rejoin) {
  auto cluster = svss::net::parse_cluster(peers_spec);
  if (!cluster) {
    std::fprintf(stderr, "agreement_cluster: bad --peers spec\n");
    return 2;
  }
  int n = cluster->n();
  if (id < 0 || id >= n) {
    std::fprintf(stderr, "agreement_cluster: --id outside the fleet\n");
    return 2;
  }

  svss::DaemonService replica(id, *cluster, seed);
  bool rejoin = force_rejoin;
  if (!checkpoint.empty()) {
    // Cadence 2: a crash between checkpoints leaves a journal tail, so a
    // restart exercises both the checkpoint load and the journal replay.
    replica.enable_recovery(checkpoint, 2);
    rejoin = replica.recover() || rejoin;
  }
  if (!replica.start()) {
    std::fprintf(stderr, "agreement_cluster[%d]: failed to bind endpoint\n",
                 id);
    return 2;
  }

  std::vector<std::uint32_t> insts;
  for (int k = 1; k <= instances; ++k) {
    insts.push_back(static_cast<std::uint32_t>(k));
  }
  const std::uint64_t coin_seed = seed ^ 0xC01F;
  auto all_known = [&] {
    for (std::uint32_t k : insts) {
      if (!replica.decision(k)) return false;
    }
    return true;
  };

  bool complete = false;
  if (rejoin) {
    std::printf(
        "agreement_cluster[%d]: rejoining with %zu persisted decisions\n", id,
        replica.decisions().size());
    auto t0 = std::chrono::steady_clock::now();
    complete = replica.catch_up(insts, 45'000);
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (complete) {
      std::printf(
          "agreement_cluster[%d]: caught up in %lld ms, frames=%llu "
          "bytes=%llu\n",
          id, static_cast<long long>(ms),
          static_cast<unsigned long long>(replica.catchup_frames()),
          static_cast<unsigned long long>(replica.catchup_bytes()));
    }
  } else {
    std::printf("agreement_cluster[%d]: joining fleet of %d, %d instances\n",
                id, n, instances);
    for (std::uint32_t k : insts) {
      int vote = make_votes(n, seed ^ (0x9E3779B9ULL * k))
          [static_cast<std::size_t>(id)];
      replica.submit(k, vote, svss::CoinMode::kIdealCommon, coin_seed);
    }
    complete = replica.run_until(all_known, 45'000);
    if (!complete && !svss::DaemonService::stop_requested() &&
        !checkpoint.empty()) {
      // A restarted process with nothing on disk (killed before its first
      // journal write) cannot finish sessions its peers already spent;
      // adopt the fleet's decisions instead.
      complete = replica.catch_up(insts, 15'000);
    }
  }

  if (!complete) {
    if (svss::DaemonService::stop_requested()) {
      std::printf("agreement_cluster[%d]: stopped by signal, msgs=%llu\n", id,
                  static_cast<unsigned long long>(
                      replica.transport().metrics().packets_sent));
      replica.shutdown();
      return 0;
    }
    std::printf("agreement_cluster[%d]: TIMEOUT without decision\n", id);
    return 1;
  }

  for (std::uint32_t k : insts) {
    const svss::DecisionRecord* rec = find_record(replica, k);
    std::printf("agreement_cluster[%d]: decided instance=%u value=%d round=%u\n",
                id, k, rec ? rec->value : -1, rec ? rec->round : 0u);
  }
  std::fflush(stdout);
  // Stay up so laggards — including a replica restarting from a crash —
  // can still catch up against us (a stop signal cuts the linger short).
  replica.linger(linger_ms);
  if (!checkpoint.empty()) replica.checkpoint_now();
  replica.shutdown();
  std::printf("agreement_cluster[%d]: shutdown msgs=%llu bytes=%llu\n", id,
              static_cast<unsigned long long>(
                  replica.transport().metrics().packets_sent),
              static_cast<unsigned long long>(
                  replica.transport().metrics().bytes_sent));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int id = -1;
  std::string peers;
  std::uint64_t seed = 3;
  int vote = -1;
  int n = 4;
  int instances = 0;
  std::string checkpoint;
  int linger_ms = 2'000;
  // --rejoin: this process is a restart — adopt the fleet's decisions via
  // the catch-up handshake instead of submitting, even with no state on
  // disk (a crash can land before the first journal write).
  bool force_rejoin = false;
  bool daemon = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--id") == 0 && a + 1 < argc) {
      id = std::atoi(argv[++a]);
      daemon = true;
    } else if (std::strcmp(argv[a], "--peers") == 0 && a + 1 < argc) {
      peers = argv[++a];
    } else if (std::strcmp(argv[a], "--seed") == 0 && a + 1 < argc) {
      seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (std::strcmp(argv[a], "--vote") == 0 && a + 1 < argc) {
      vote = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--instances") == 0 && a + 1 < argc) {
      instances = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--checkpoint") == 0 && a + 1 < argc) {
      checkpoint = argv[++a];
    } else if (std::strcmp(argv[a], "--linger-ms") == 0 && a + 1 < argc) {
      linger_ms = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--rejoin") == 0) {
      force_rejoin = true;
    } else if (a == 1) {
      n = std::atoi(argv[a]);
    } else if (a == 2) {
      seed = std::strtoull(argv[a], nullptr, 10);
    }
  }
  if (daemon) {
    if (instances > 0) {
      return run_daemon_multi(id, peers, seed, instances, checkpoint,
                              linger_ms, force_rejoin);
    }
    return run_daemon(id, peers, seed, vote);
  }

  int t = (n - 1) / 3;
  auto votes = make_votes(n, seed);
  std::printf("cluster of %d replicas (tolerating %d), votes:", n, t);
  for (int v : votes) std::printf(" %d", v);
  std::printf("\n\n");

  svss::RunnerConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  cfg.scheduler = svss::SchedulerKind::kDelayLastHonest;  // hostile net
  for (int i = n - t; i < n; ++i) {
    cfg.faults[i] = svss::ByzConfig{svss::ByzKind::kBitFlip, 0, 0.15};
  }

  // The paper's protocol: SVSS-based shunning common coin.
  {
    svss::Runner cluster(cfg);
    auto res = cluster.run_aba(votes, svss::CoinMode::kSvss);
    print_result("SVSS coin (paper):", res);
    auto shuns = cluster.honest_shun_pairs();
    if (!shuns.empty()) {
      std::printf("  shun pairs during run: %zu (budget %d)\n", shuns.size(),
                  t * (n - t));
    }
  }

  // Baseline: same voting structure, private local coins (Bracha-style).
  {
    svss::Runner cluster(cfg);
    auto res = cluster.run_aba(votes, svss::CoinMode::kLocal);
    print_result("local coin baseline:", res);
  }

  // Abstraction: ideal common coin (what SCC provides with prob >= 1/4
  // per round) — the round count the paper's analysis predicts.
  {
    svss::Runner cluster(cfg);
    auto res = cluster.run_aba(votes, svss::CoinMode::kIdealCommon);
    print_result("ideal common coin:", res);
  }
  return 0;
}
