// Byzantine behaviour library.
//
// A faulty process runs the honest Node code with a wire interceptor that
// rewrites its outbound packets per recipient ("honest code, corrupted
// wire").  An interceptor is its endpoint's ITransport::SendHook, so it
// acts the same on every backend.  This covers the attack classes the
// paper's proofs quantify over — equivocating dealers, wrong
// reconstruction values, lying moderators, crashes — while keeping a
// single protocol implementation.  Interceptors compose with adversarial
// schedulers (sim/scheduler.hpp), which control delivery order.
#pragma once

#include <cstdint>
#include <functional>

#include "net/transport.hpp"
#include "sim/message.hpp"

namespace svss {

enum class ByzKind {
  kHonest,          // no interference
  kSilent,          // crashed from the start: sends nothing
  kCrashMidway,     // sends the first `crash_after` packets, then nothing
  kEquivocate,      // sends perturbed field values to the upper half of
                    // the process ids (split-view dealer/confirmer)
  kWrongRecon,      // corrupts its MW-SVSS reconstruct broadcasts — the
                    // attack DMM rules 2-3 are built to catch
  kLyingModerator,  // corrupts its monitor values and M-set broadcasts
  kBitFlip,         // flips each outbound field value with probability
                    // `flip_prob` (protocol-grammar fuzzing)
};

struct ByzConfig {
  ByzKind kind = ByzKind::kHonest;
  std::uint64_t crash_after = 200;  // kCrashMidway
  double flip_prob = 0.05;          // kBitFlip
};

// Builds the send hook implementing `cfg` for process `self` of an (n, t)
// system; empty for kHonest.  `seed` makes randomized strategies
// reproducible.
ITransport::SendHook make_byzantine_interceptor(const ByzConfig& cfg,
                                                int self, int n, int t,
                                                std::uint64_t seed);

// Slot `slot`'s private stream seed in a run seeded with `seed`: what its
// wire interceptor or adversary strategy draws from.
[[nodiscard]] std::uint64_t slot_seed(std::uint64_t seed, int slot);

// Slot `slot`'s send hook under `fault` (null: honest), seeded with
// slot_seed.  Empty for an honest slot.  Every stack builder (Runner,
// LoopbackCluster, DaemonService) derives a slot's faults here, so one seed
// corrupts the same way on every backend.
ITransport::SendHook slot_interceptor(const ByzConfig* fault, int slot, int n,
                                      int t, std::uint64_t seed);

// Applies `mutate` to the application message carried by `p` — directly for
// direct packets, through (de)serialization for the value of the process's
// own RB phase-1 sends.  Relayed RB traffic (echo/ready for other origins)
// is left alone unless `mutate_relays` is set.  Shared by the interceptor
// library above and the protocol-level strategies in src/adversary/.
void mutate_outbound_message(Packet& p, int self,
                             const std::function<void(Message&)>& mutate,
                             bool mutate_relays);

}  // namespace svss
