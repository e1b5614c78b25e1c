// coin_service: a distributed randomness beacon from the shunning common
// coin (paper Section 5).
//
// n processes jointly flip a sequence of coins no t-subset can predict or
// fix.  Each round runs the full SCC: every process deals n SVSS secrets,
// support sets form, and the reconstructed sums decide the bit.  The
// service reports, per round, each process's view of the coin — usually
// unanimous, occasionally split (Definition 2 allows mixed outcomes in up
// to half the rounds; consumers needing perfect agreement run ABA on top).
//
// Two deployment shapes:
//
//   $ ./coin_service [rounds] [seed] [--fault]
//       In-process beacon over the deterministic simulator.
//
//   $ ./coin_service --id I --peers H:P,H:P,... [--rounds R] [--seed S]
//       One beacon node of a REAL multi-process deployment: slot I binds
//       peers[I] and flips R coins with the fleet over TCP, printing its
//       view of each bit.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/runner.hpp"

namespace {

int run_daemon(int id, const std::string& peers_spec, std::uint32_t rounds,
               std::uint64_t seed) {
  auto cluster = svss::net::parse_cluster(peers_spec);
  if (!cluster) {
    std::fprintf(stderr, "coin_service: bad --peers spec\n");
    return 2;
  }
  if (id < 0 || id >= cluster->n()) {
    std::fprintf(stderr, "coin_service: --id outside the fleet\n");
    return 2;
  }
  svss::DaemonService beacon(id, *cluster, seed);
  if (!beacon.start()) {
    std::fprintf(stderr, "coin_service[%d]: failed to bind endpoint\n", id);
    return 2;
  }
  std::printf("coin_service[%d]: fleet of %d, %u rounds\n", id, cluster->n(),
              rounds);
  for (std::uint32_t round = 1; round <= rounds; ++round) {
    {
      // Coin rounds are independent sessions: starting round r as soon as
      // our round r-1 completed is fine even if peers lag — their messages
      // route to lazily created sessions.
      svss::Context ctx = beacon.ctx();
      beacon.node().coin(ctx, round).start(ctx);
    }
    bool done = beacon.run_until(
        [&] {
          const svss::CoinSession* cs = beacon.node().find_coin(round);
          return cs != nullptr && cs->has_output();
        },
        30'000);
    if (!done) {
      if (svss::DaemonService::stop_requested()) {
        std::printf("coin_service[%d]: stopped by signal at round %u, "
                    "msgs=%llu\n",
                    id, round,
                    static_cast<unsigned long long>(
                        beacon.transport().metrics().packets_sent));
        beacon.shutdown();
        return 0;
      }
      std::printf("coin_service[%d]: round %u TIMEOUT\n", id, round);
      return 1;
    }
    std::printf("coin_service[%d]: round %u bit=%d\n", id, round,
                beacon.node().find_coin(round)->output());
    std::fflush(stdout);
  }
  beacon.linger(2'000);
  beacon.shutdown();
  std::printf("coin_service[%d]: shutdown msgs=%llu bytes=%llu\n", id,
              static_cast<unsigned long long>(
                  beacon.transport().metrics().packets_sent),
              static_cast<unsigned long long>(
                  beacon.transport().metrics().bytes_sent));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int id = -1;
  std::string peers;
  unsigned long rounds = 8;
  std::uint64_t seed = 11;
  bool with_fault = false;
  bool daemon = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--id") == 0 && a + 1 < argc) {
      id = std::atoi(argv[++a]);
      daemon = true;
    } else if (std::strcmp(argv[a], "--peers") == 0 && a + 1 < argc) {
      peers = argv[++a];
    } else if (std::strcmp(argv[a], "--rounds") == 0 && a + 1 < argc) {
      rounds = std::strtoul(argv[++a], nullptr, 10);
    } else if (std::strcmp(argv[a], "--seed") == 0 && a + 1 < argc) {
      seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (std::strcmp(argv[a], "--fault") == 0) {
      with_fault = true;
    } else if (a == 1) {
      rounds = std::strtoul(argv[a], nullptr, 10);
    } else if (a == 2) {
      seed = std::strtoull(argv[a], nullptr, 10);
    }
  }
  // Beacon round r is coin round r of instance 0, and peers drop coin
  // traffic past the agreement's round bound.
  if (rounds >= svss::kCoinRoundsPerInstance) {
    std::fprintf(stderr, "coin_service: rounds must be below %u\n",
                 svss::kCoinRoundsPerInstance);
    return 2;
  }
  if (daemon) {
    return run_daemon(id, peers, static_cast<std::uint32_t>(rounds), seed);
  }

  svss::RunnerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = seed;
  if (with_fault) {
    cfg.faults[3] = svss::ByzConfig{svss::ByzKind::kWrongRecon};
    std::printf("(process 3 is corrupted and lies in reconstruction)\n");
  }
  svss::Runner service(cfg);
  int n = service.config().n;

  int unanimous[2] = {0, 0};
  int mixed = 0;
  for (std::uint32_t round = 1; round <= rounds; ++round) {
    for (int i = 0; i < n; ++i) {
      svss::Context ctx = service.ctx(i);
      service.node(i).coin(ctx, round).start(ctx);
    }
    (void)service.engine().run_until([&] {
      for (int i : service.honest_ids()) {
        const svss::CoinSession* cs = service.node(i).find_coin(round);
        if (cs == nullptr || !cs->has_output()) return false;
      }
      return true;
    });

    std::printf("round %2u: bits =", round);
    int first = -1;
    bool agree = true;
    for (int i : service.honest_ids()) {
      const svss::CoinSession* cs = service.node(i).find_coin(round);
      int bit = cs != nullptr && cs->has_output() ? cs->output() : -1;
      std::printf(" %d", bit);
      if (first < 0) first = bit;
      if (bit != first) agree = false;
    }
    std::printf("  %s\n", agree ? "(unanimous)" : "(split)");
    if (agree && (first == 0 || first == 1)) {
      unanimous[first]++;
    } else {
      ++mixed;
    }
  }

  std::printf(
      "\nsummary over %lu rounds: unanimous-0 %d, unanimous-1 %d, split %d\n",
      rounds, unanimous[0], unanimous[1], mixed);
  std::printf("messages total: %llu\n",
              static_cast<unsigned long long>(
                  service.engine().metrics().packets_sent));
  auto blacklist = service.honest_shun_pairs();
  if (!blacklist.empty()) {
    std::printf("shun pairs accumulated: %zu\n", blacklist.size());
  }
  return 0;
}
