// Run metrics: message counts, byte counts, and causal depth.
//
// The paper's efficiency claim is that expected computation time, memory,
// message size, and message count are all polynomial in n.  The simulator
// has no wall clock, so "time" is measured as causal depth (asynchronous
// rounds): the depth of a delivery is one more than the depth of the latest
// delivery its sender had processed when it sent the packet.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/message.hpp"

namespace svss {

struct Metrics {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t rb_transport_packets = 0;
  std::uint64_t direct_packets = 0;
  std::uint64_t max_depth = 0;  // causal depth == async rounds
  // Non-termination guard: set when a run stops because it exhausted its
  // `max_deliveries` budget rather than reaching quiescence or its goal.
  // Almost-sure-termination sweeps report the rate of capped runs, so the
  // cutoff must be a first-class outcome, not a silent truncation.
  bool capped = false;
  std::uint64_t deliveries_at_cap = 0;
  // Outbound frames shed by the socket transport's per-peer buffer cap
  // while a peer was unreachable (net/socket_transport.hpp).  Always whole
  // frames, oldest first; zero on the sim backend.
  std::uint64_t out_dropped_frames = 0;
  std::uint64_t out_dropped_bytes = 0;

  // Per-message-type attribution of serialization cost: every metered
  // packet is binned by the application MsgType it carries (RB transport
  // packets count under the slot they broadcast), so these counters say
  // where serialize time goes at scale (ROADMAP: n = 64 sweeps are
  // serialization-bound).  Indexed by the MsgType enum value.
  static constexpr std::size_t kTypeSlots = 64;
  std::array<std::uint64_t, kTypeSlots> packets_by_type{};
  std::array<std::uint64_t, kTypeSlots> bytes_by_type{};

  void note_type(MsgType type, std::size_t bytes) {
    auto slot = static_cast<std::size_t>(type);
    if (slot < kTypeSlots) {
      packets_by_type[slot]++;
      bytes_by_type[slot] += bytes;
    }
  }

  // The one send meter, shared by both backends: counts a packet its
  // endpoint's send hook let through at Packet::wire_size(), the modelled
  // envelope over Message::serialized_size(), not the TCP frame bytes.
  void note_send(const Packet& p) {
    packets_sent++;
    const std::size_t bytes = p.wire_size();
    bytes_sent += bytes;
    note_type(p.is_rb ? p.bid.slot : p.app.type, bytes);
    if (p.is_rb) {
      rb_transport_packets++;
    } else {
      direct_packets++;
    }
  }

  void merge(const Metrics& o) {
    packets_sent += o.packets_sent;
    bytes_sent += o.bytes_sent;
    packets_delivered += o.packets_delivered;
    rb_transport_packets += o.rb_transport_packets;
    direct_packets += o.direct_packets;
    if (o.max_depth > max_depth) max_depth = o.max_depth;
    capped = capped || o.capped;
    if (o.deliveries_at_cap > deliveries_at_cap) {
      deliveries_at_cap = o.deliveries_at_cap;
    }
    out_dropped_frames += o.out_dropped_frames;
    out_dropped_bytes += o.out_dropped_bytes;
    for (std::size_t i = 0; i < kTypeSlots; ++i) {
      packets_by_type[i] += o.packets_by_type[i];
      bytes_by_type[i] += o.bytes_by_type[i];
    }
  }

  // One-line human-readable digest for runner/example summary output.
  [[nodiscard]] std::string summary() const;

  // Traffic-group attribution: every MsgType belongs to one protocol
  // traffic group (mw-rb, mw-direct, svss-deal, svss-gset, coin, aba, ext,
  // other) and is either per-session framing or a batch envelope.  The
  // (group, batched?) packet split is what makes a batching win directly
  // readable from a run summary — e.g. the stress lane's >=5x full-stack
  // packet-reduction claim.
  static const char* type_group(MsgType type, bool* batched);
  // " [packets by group: mw-rb=N (M batched) ...]"; empty when no packets.
  [[nodiscard]] std::string group_summary() const;
};

}  // namespace svss
