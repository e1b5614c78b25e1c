// secret_vault: a distributed escrow built on SVSS.
//
// Scenario: a vault of n custodians holds client secrets.  A client
// (acting as dealer) deposits each secret with verifiable sharing; later,
// the custodians jointly open it.  Up to t custodians may be corrupted —
// they can tamper with reconstruction values or go silent — yet every
// deposit either opens to the exact deposited value or the tampering
// custodian lands on an honest custodian's permanent blacklist (the
// paper's shunning guarantee), so it can damage at most a bounded number
// of deposits, ever.
//
//   $ ./secret_vault [seed]
#include <cstdio>
#include <cstdlib>
#include <set>

#include "core/runner.hpp"

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  constexpr int kCustodians = 4;
  constexpr int kFaulty = 1;
  constexpr std::uint32_t kDeposits = 6;

  // Custodian 3 is corrupted: it lies in reconstruction.
  svss::RunnerConfig cfg;
  cfg.n = kCustodians;
  cfg.t = kFaulty;
  cfg.seed = seed;
  cfg.faults[3] = svss::ByzConfig{svss::ByzKind::kWrongRecon};
  svss::Runner vault(cfg);

  std::printf("vault: %d custodians, tolerating %d corruptions\n",
              kCustodians, kFaulty);

  std::set<std::pair<int, int>> blacklist;
  int opened_ok = 0;
  int damaged = 0;

  for (std::uint32_t c = 1; c <= kDeposits; ++c) {
    svss::Fp secret(static_cast<std::int64_t>(1000000 + c * 1111));
    svss::SessionId sid = svss::svss_top_id(c, /*dealer=*/0);

    // Deposit: custodian 0 relays the client's secret as dealer.
    {
      svss::Context ctx = vault.ctx(0);
      vault.node(0).svss(ctx, sid).deal(ctx, secret);
    }
    (void)vault.engine().run_until([&] {
      for (int i : vault.honest_ids()) {
        const svss::SvssSession* s = vault.node(i).find_svss(sid);
        if (s == nullptr || !s->share_complete()) return false;
      }
      return true;
    });

    // Open: every custodian that completed the share phase reconstructs.
    for (int i = 0; i < kCustodians; ++i) {
      const svss::SvssSession* s = vault.node(i).find_svss(sid);
      if (s == nullptr || !s->share_complete()) continue;
      svss::Context ctx = vault.ctx(i);
      vault.node(i).svss(ctx, sid).start_reconstruct(ctx);
    }
    (void)vault.engine().run_until([&] {
      for (int i : vault.honest_ids()) {
        const svss::SvssSession* s = vault.node(i).find_svss(sid);
        if (s == nullptr || !s->has_output()) return false;
      }
      return true;
    });

    bool all_correct = true;
    for (int i : vault.honest_ids()) {
      const svss::SvssSession* s = vault.node(i).find_svss(sid);
      auto out = s != nullptr && s->has_output()
                     ? s->output()
                     : std::optional<svss::Fp>();
      if (!out || !(*out == secret)) all_correct = false;
    }
    std::size_t blacklist_before = blacklist.size();
    for (const auto& p : vault.honest_shun_pairs()) blacklist.insert(p);

    std::printf("deposit %u: %s", c,
                all_correct ? "opened correctly" : "DAMAGED");
    if (blacklist.size() > blacklist_before) {
      std::printf("  -> new blacklist entries:");
      // Print the whole (small) blacklist; new entries are a subset.
      for (const auto& [watcher, suspect] : blacklist) {
        std::printf(" (custodian %d blacklists %d)", watcher, suspect);
      }
    }
    std::printf("\n");
    all_correct ? ++opened_ok : ++damaged;
  }

  std::printf(
      "summary: %d/%u deposits opened correctly, %d damaged, "
      "%zu blacklist pairs (budget: %d)\n",
      opened_ok, kDeposits, damaged, blacklist.size(),
      kFaulty * (kCustodians - kFaulty));
  // The shunning bound: damage is possible only while blacklist entries
  // are still being acquired; with the budget exhausted, every further
  // deposit is safe.
  return damaged <= kFaulty * (kCustodians - kFaulty) ? 0 : 1;
}
