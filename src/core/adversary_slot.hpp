// Seam between core::Runner and the adversary layer (src/adversary/).
//
// A process slot in a run is either an honest Node or an *adversary slot*:
// an IProcess that runs its own (Byzantine) protocol logic instead of the
// honest code.  Core only knows this minimal interface; the concrete
// strategies — equivocating dealer forks, adaptive shun-aware behaviour,
// colluding cabals — live in src/adversary/ and are injected through
// RunnerConfig as factories, so core never depends on the adversary layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "batch/batch.hpp"
#include "sim/engine.hpp"

namespace svss {

class Node;

// What a strategy knows about its placement when it is constructed.
struct AdversaryEnv {
  int self = -1;
  int n = 0;
  int t = 0;
  std::uint64_t seed = 0;  // per-slot reproducibility seed
  // The slot's wire framing, with no default: strategies hosting
  // honest-code Nodes must frame exactly as the run's honest nodes do.
  BatchFraming framing;
};

// Observable side effects of a strategy, for non-vacuity assertions: a test
// that claims "honest processes survive attack X" must also check that
// attack X actually happened.
struct StrategyStats {
  std::uint64_t inbound = 0;   // packets delivered to this slot
  std::uint64_t emitted = 0;   // outbound packets let through
  std::uint64_t forked = 0;    // outbound packets from a non-primary
                               // protocol fork (split-brain branches)
  std::uint64_t mutated = 0;   // outbound packets rewritten in flight
  std::uint64_t withheld = 0;  // outbound packets deliberately suppressed
  bool adapted = false;        // adaptive strategies: trigger observed and
                               // behaviour switched
};

// A process slot hosting adversarial protocol logic.  It attaches through
// the same ProcessHost as an honest Node; the Runner wires on_outbound() as
// the first stage of the slot endpoint's send hook (a ByzConfig wire
// interceptor for the slot runs after it) and forwards the experiment
// drivers' start actions so the adversary receives the same role payload
// (deal this secret, enter agreement with this input) an honest Node would.
class AdversarySlot : public IProcess {
 public:
  // The driver-provided role payload; strategies typically replay it onto
  // internal honest-code forks.
  virtual void set_start_action(
      std::function<void(Context&, Node&)> action) = 0;
  // Outbound gate for every packet this slot sends (including packets
  // emitted by internal honest-code forks).  May mutate; false drops.
  virtual bool on_outbound(int to, Packet& p) = 0;
  [[nodiscard]] virtual const StrategyStats& stats() const = 0;
  [[nodiscard]] virtual const char* strategy_name() const = 0;
  // True while this strategy is actively deceiving process `id` — showing
  // it corrupted values, courting it with a split-brain fork, or denying it
  // traffic.  This is the strategy half of the widened scheduler seam
  // (sim/scheduler.hpp ScheduleView): a full-information schedule adversary
  // co-designs with the strategy by, e.g., starving exactly the deceived
  // processes.  The answer may change over a run (adaptive strategies stop
  // deceiving once they evade); it must be a pure function of the slot's
  // deterministic state so schedules that consult it stay replayable.
  [[nodiscard]] virtual bool is_deceiving(int id) const {
    (void)id;
    return false;
  }
};

using AdversarySlotFactory =
    std::function<std::unique_ptr<AdversarySlot>(const AdversaryEnv&)>;

}  // namespace svss
