// Quickstart: share a secret among n processes with SVSS, reconstruct it,
// and run one Byzantine agreement — the two primitives of the library in
// ~40 lines of application code.
//
//   $ ./quickstart [seed]
//
// Everything runs inside the deterministic network simulator: same seed,
// same run.
#include <cstdio>
#include <cstdlib>

#include "core/runner.hpp"

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  // A 4-process system tolerating t = 1 Byzantine fault (n > 3t).  The
  // same config runs over TCP loopback sockets with
  // cfg.transport.kind = svss::TransportKind::kSocketLoopback; one process
  // of a real fleet is an svss::DaemonService (core/daemon.hpp) — see
  // examples/agreement_cluster.cpp for the daemon shape.
  svss::RunnerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = seed;

  // --- 1. Verifiable secret sharing ---------------------------------
  {
    svss::Runner runner(cfg);
    svss::Fp secret(123456789);
    auto res = runner.run_svss(secret, /*dealer=*/0);
    std::printf("SVSS: share complete at every honest process: %s\n",
                res.all_honest_shared ? "yes" : "no");
    for (const auto& [process, output] : res.outputs) {
      std::printf("  process %d reconstructed: %llu\n", process,
                  output ? static_cast<unsigned long long>(output->value())
                         : 0ull);
    }
    std::printf("  network cost: %llu messages, %llu bytes\n",
                static_cast<unsigned long long>(res.metrics.packets_sent),
                static_cast<unsigned long long>(res.metrics.bytes_sent));
  }

  // --- 2. Byzantine agreement ----------------------------------------
  {
    svss::Runner runner(cfg);
    // Divided inputs: the common coin breaks the symmetry.
    auto res = runner.run_aba({0, 1, 0, 1}, svss::CoinMode::kSvss);
    std::printf("ABA:  decided=%s value=%d rounds=%u\n",
                res.all_decided && res.agreed ? "yes" : "NO",
                res.value, res.max_round);
    std::printf("  network cost: %llu messages\n",
                static_cast<unsigned long long>(res.metrics.packets_sent));
  }
  return 0;
}
