#include "core/byzantine.hpp"

#include <memory>

#include "batch/batch.hpp"
#include "common/rng.hpp"
#include "sim/message.hpp"

namespace svss {

namespace {

void perturb_vals(Message& m, Fp delta) {
  for (Fp& v : m.vals) v += delta;
}

// See mutate_outbound_message below; template form avoids std::function
// overhead on the send-hook hot path.
template <typename Fn>
void mutate_packet(Packet& p, int self, Fn&& mutate, bool mutate_relays) {
  if (!p.is_rb) {
    mutate(p.app);
    return;
  }
  bool own_send = p.phase == RbPhase::kSend && p.bid.origin == self;
  if (!own_send && !mutate_relays) return;
  auto msg = Message::deserialize(p.rb_payload());
  if (!msg) return;
  mutate(*msg);
  // Copy-on-write: replace this recipient's pointer; the other copies of
  // the send_all burst keep the unmutated shared payload.
  p.value = std::make_shared<const Bytes>(msg->serialize());
}

}  // namespace

void mutate_outbound_message(Packet& p, int self,
                             const std::function<void(Message&)>& mutate,
                             bool mutate_relays) {
  mutate_packet(p, self, mutate, mutate_relays);
}

ITransport::SendHook make_byzantine_interceptor(const ByzConfig& cfg,
                                                int self, int n, int t,
                                                std::uint64_t seed) {
  (void)t;
  switch (cfg.kind) {
    case ByzKind::kHonest:
      return nullptr;

    case ByzKind::kSilent:
      return [](int, Packet&) { return false; };

    case ByzKind::kCrashMidway: {
      auto remaining = std::make_shared<std::uint64_t>(cfg.crash_after);
      return [remaining](int, Packet&) {
        if (*remaining == 0) return false;
        --*remaining;
        return true;
      };
    }

    case ByzKind::kEquivocate:
      // Different halves of the system see shares shifted by different
      // amounts — a split-view dealer/confirmer.  RB equivocation is also
      // exercised: the phase-1 value of its own broadcasts diverges.
      return [self, n](int to, Packet& p) {
        if (to < n / 2) return true;
        mutate_packet(
            p, self, [](Message& m) { perturb_vals(m, Fp(1)); },
            /*mutate_relays=*/false);
        return true;
      };

    case ByzKind::kWrongRecon:
      return [self](int, Packet& p) {
        mutate_packet(
            p, self,
            [](Message& m) {
              // Every recon value, on either framing: the same deviation
              // per coalesced session as per individual broadcast.
              batch::for_each_value(m, MsgType::kMwReconVal,
                                    [](Fp& v) { v += Fp(1); });
            },
            /*mutate_relays=*/false);
        return true;
      };

    case ByzKind::kLyingModerator:
      return [self](int, Packet& p) {
        mutate_packet(
            p, self,
            [](Message& m) {
              // The same lies on either framing; the batching layer owns
              // the envelope layout.
              batch::for_each_value(m, MsgType::kMwMonitorVal,
                                    [](Fp& v) { v += Fp(1); });
              if (m.type == MsgType::kMwMset ||
                  m.type == MsgType::kMwBatchMset) {
                // Rotate the accepted-monitor set by one: a plausible but
                // wrong commitment.
                if (int* member = batch::first_set_member(m)) {
                  *member = (*member + 1) % 2;
                }
              }
            },
            /*mutate_relays=*/false);
        return true;
      };

    case ByzKind::kBitFlip: {
      auto rng = std::make_shared<Rng>(seed);
      double prob = cfg.flip_prob;
      return [self, rng, prob](int, Packet& p) {
        mutate_packet(
            p, self,
            [&](Message& m) {
              for (Fp& v : m.vals) {
                if (rng->next_unit() < prob) v += Fp(1 + static_cast<int>(
                                                       rng->next_below(7)));
              }
            },
            /*mutate_relays=*/true);
        return true;
      };
    }
  }
  return nullptr;
}

std::uint64_t slot_seed(std::uint64_t seed, int slot) {
  return seed * 1315423911ULL + static_cast<std::uint64_t>(slot);
}

ITransport::SendHook slot_interceptor(const ByzConfig* fault, int slot, int n,
                                      int t, std::uint64_t seed) {
  if (fault == nullptr) return nullptr;
  return make_byzantine_interceptor(*fault, slot, n, t, slot_seed(seed, slot));
}

}  // namespace svss
