// Epoch layer: membership reconfiguration over an unchanged core protocol.
//
// The paper fixes the process set forever; a long-lived agreement service
// cannot.  Following the recovery/reconfiguration-as-layers shape (Ekström
// & Haridi, PAPERS.md), epochs live entirely at the transport seam:
//
//   * EpochConfig names one membership epoch — an id, the member slots
//     drawn from a fixed universe of transport endpoints, and the epoch's
//     own resilience parameter t.
//   * EpochTransport wraps any ITransport endpoint and presents the
//     current epoch's members as a dense rank space [0, n_e).  Outbound
//     envelopes are stamped with the epoch id (SessionId::epoch, carried
//     by both wire codecs); inbound traffic from older epochs or from
//     non-members is dropped at the seam, traffic from *future* epochs is
//     buffered and replayed once the boundary passes, and the stamp is
//     zeroed before delivery — so Node and every protocol session run
//     exactly the code the equivalence harness pins, always at epoch 0.
//   * A boundary is agreed, not assumed: the runner drains the epoch's
//     submitted instances, then runs one reserved agreement instance
//     (kEpochBoundaryInstance) in which every member votes 1; the next
//     config installs when it decides.
//
// EpochSlot (core/daemon.hpp) pairs one fence with the current epoch's
// Node and is the only place a per-epoch Node is built.  Runner::run_epochs
// (defined in core/epoch.cpp) holds one per universe slot and drives a
// whole script of epochs, written once against the Runner's Cluster, so it
// runs on the sim engine (deterministic) or a socket-loopback fleet of
// real TCP endpoints alike — including join/leave/replace of a slot and
// members that crash exactly at an epoch boundary (the reconfiguration
// adversary).  DaemonService holds one over its socket endpoint.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/serialization.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"

namespace svss {

// One membership epoch: which universe slots participate, and with what
// resilience.  Members are global transport slot ids, strictly ascending;
// a member's *rank* (index in `members`) is the process id the protocol
// stack sees.
struct EpochConfig {
  std::uint32_t epoch = 0;
  std::vector<int> members;
  int t = 0;

  [[nodiscard]] int n() const { return static_cast<int>(members.size()); }
  [[nodiscard]] bool contains(int global) const;
  // Rank of a global slot id, or -1 if it is not a member.
  [[nodiscard]] int rank_of(int global) const;
  [[nodiscard]] int global_of(int rank) const {
    return members[static_cast<std::size_t>(rank)];
  }

  void serialize(Writer& w) const;
  static std::optional<EpochConfig> deserialize(Reader& r);

  friend bool operator==(const EpochConfig&, const EpochConfig&) = default;
};

// Per-epoch protocol seed: every member derives the same stream roots for
// epoch e from the service seed, on both backends.
[[nodiscard]] std::uint64_t epoch_seed(std::uint64_t base,
                                       std::uint32_t epoch);

// The reserved agreement instance that closes an epoch (all members vote
// 1; its decision is the agreed boundary).  High enough that application
// instance ids never collide with it.
inline constexpr std::uint32_t kEpochBoundaryInstance = 0xE0000000u;

// ----------------------------------------------------------------------
// EpochTransport — the epoch fence at the transport seam
// ----------------------------------------------------------------------

class EpochTransport final : public ITransport {
 public:
  // Wraps `inner` (one universe endpoint; self()/send() in global slot
  // space) and presents the rank space of `cfg`.  If inner.self() is not
  // a member, this endpoint is a spectator: it buffers future-epoch
  // traffic and answers the control plane, but delivers nothing.
  EpochTransport(ITransport& inner, EpochConfig cfg);
  // Detaches from `inner`, which may outlive the fence.
  ~EpochTransport() override { inner_.set_delivery(nullptr); }
  EpochTransport(const EpochTransport&) = delete;
  EpochTransport& operator=(const EpochTransport&) = delete;

  // --- ITransport (rank space of the current epoch) ---
  void send(int to, Packet p) override;
  void set_delivery(Delivery sink) override { sink_ = std::move(sink); }
  void set_send_hook(SendHook hook) override { hook_ = std::move(hook); }
  [[nodiscard]] int self() const override { return rank_; }
  [[nodiscard]] int n() const override { return cfg_.n(); }

  // Control-plane sink: catch-up messages (kEpochCatchupReq/State) bypass
  // the fence entirely and arrive here with the *global* sender id.
  using Control = std::function<void(int global_from, const Message& m)>;
  void set_control(Control c) { control_ = std::move(c); }

  [[nodiscard]] const EpochConfig& config() const { return cfg_; }
  [[nodiscard]] bool is_member() const { return rank_ >= 0; }

  // Installs the next epoch at the agreed boundary and replays buffered
  // future-epoch packets that now match.  Call only from the thread that
  // drives the inner transport, with the old epoch's sink cleared
  // (EpochSlot::install sequences this).
  void install(EpochConfig next);
  // Re-feeds the buffer through the fence.  Call after attaching a fresh
  // delivery sink: current-epoch packets that arrived while no Node was
  // attached (the construction window at a boundary) sit in the buffer
  // and deliver now.
  void flush_buffered();

  // Packets dropped at the fence (stale epoch / non-member sender).
  [[nodiscard]] std::uint64_t fenced_stale() const { return fenced_stale_; }
  [[nodiscard]] std::uint64_t fenced_foreign() const {
    return fenced_foreign_;
  }
  [[nodiscard]] std::size_t buffered_future() const {
    return future_.size();
  }

 private:
  void on_inner(int global_from, const Packet& p);
  // Buffers a copy of `p` (oldest dropped past the cap).
  void park(int global_from, const Packet& p);
  static std::uint32_t packet_epoch(const Packet& p);
  static void stamp_epoch(Packet& p, std::uint32_t epoch);

  ITransport& inner_;
  EpochConfig cfg_;
  int rank_ = -1;
  Delivery sink_;
  SendHook hook_;
  Control control_;
  // Parked packets (global sender id): future-epoch traffic awaiting its
  // boundary, plus current-epoch traffic that arrived while no delivery
  // sink was attached (the Node rebuild window at a boundary).  A peer
  // that reaches epoch e+1 first keeps sending; nothing is lost at the
  // boundary.  Bounded: oldest dropped past the cap (they count as stale
  // once the boundary passes anyway, so loss here only costs what
  // asynchrony could cost too).
  std::deque<std::pair<int, Packet>> future_;
  std::size_t future_cap_ = 1 << 14;
  std::uint64_t fenced_stale_ = 0;
  std::uint64_t fenced_foreign_ = 0;
};

// ----------------------------------------------------------------------
// Epoch scripts (Runner::run_epochs)
// ----------------------------------------------------------------------

// One epoch of a reconfiguration script: its config, the agreement
// instances to run in it (inputs indexed by *rank*), and the members that
// crash exactly at its boundary (global ids) — the reconfiguration
// adversary.  A crashed slot stays silent in every later epoch; scripts
// must keep crashes within each later epoch's t.
struct EpochPlan {
  EpochConfig config;
  std::map<std::uint32_t, std::vector<int>> instances;
  std::set<int> crash_at_boundary;
};

struct EpochsResult {
  struct PerEpoch {
    // instance -> global member id -> decision (live members only).
    std::map<std::uint32_t, std::map<int, int>> decisions;
    // instance -> agreed value (set iff all live members agreed).
    std::map<std::uint32_t, int> values;
    bool boundary_decided = false;  // trivially true for the last epoch
  };
  std::vector<PerEpoch> epochs;
  bool all_decided = false;  // every live member decided every instance
  bool agreed = false;       // ... and per-instance decisions match
  Metrics metrics;
};

}  // namespace svss
