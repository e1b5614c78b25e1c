// private_tally: a privacy-preserving vote tally on the ASMPC secure-sum
// extension (paper Section 6).
//
// n committee members each hold a private vote weight.  The committee
// computes the total without any member (or any t-coalition) learning
// another member's individual contribution: inputs are SVSS-shared, a
// common core of contributors is agreed through n parallel binary
// agreements, and only *summed* share points are ever opened — with
// Reed-Solomon online error correction fixing up to t lying points.
//
//   $ ./private_tally [seed] [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/runner.hpp"

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
  bool corrupt = argc > 2 && std::strcmp(argv[2], "--corrupt") == 0;

  svss::RunnerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = seed;
  if (corrupt) {
    // Member 3 lies wherever it can, including in the reveal phase.
    cfg.faults[3] = svss::ByzConfig{svss::ByzKind::kBitFlip, 0, 0.9};
    std::printf("(member 3 is corrupted)\n");
  }
  svss::Runner committee(cfg);

  std::vector<svss::Fp> votes{svss::Fp(120), svss::Fp(340), svss::Fp(55),
                              svss::Fp(85)};
  std::printf("private votes:");
  for (const auto& v : votes) {
    std::printf(" %llu", static_cast<unsigned long long>(v.value()));
  }
  std::printf("  (never broadcast individually)\n");

  auto res = committee.run_secure_sum(votes);
  if (!res.all_output) {
    std::printf("tally did not complete (status %d)\n",
                static_cast<int>(res.status));
    return 1;
  }
  const auto& core = res.cores.begin()->second;
  std::printf("included contributors:");
  for (int j : core) std::printf(" %d", j);
  std::printf("\nagreed tally: %llu %s\n",
              static_cast<unsigned long long>(res.outputs.begin()->second),
              res.agreed ? "(all members agree)" : "(DISAGREEMENT!)");

  svss::Fp expected(0);
  for (int j : core) expected += votes[static_cast<std::size_t>(j)];
  std::printf("expected over the core: %llu  -> %s\n",
              static_cast<unsigned long long>(expected.value()),
              expected.value() == res.outputs.begin()->second ? "correct"
                                                              : "WRONG");
  std::printf("network cost: %llu messages\n",
              static_cast<unsigned long long>(res.metrics.packets_sent));
  return 0;
}
