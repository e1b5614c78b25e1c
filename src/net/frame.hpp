// Wire framing for the socket backend.
//
// A TCP connection carries a sequence of length-prefixed frames:
//
//   [u32 length | little-endian] [u8 kind] [payload ...]
//
// `length` counts the kind byte plus the payload.  Three frame kinds:
//
//   kHello  — first frame on every dialed connection; payload = u32
//             sender id.  Identifies which peer writes on an accepted
//             connection (each ordered pair of processes uses the dialing
//             side's connection for its traffic).
//   kDirect — payload = Message::serialize() of a direct application
//             message.
//   kRb     — payload = BcastId (its SessionId through the shared
//             write_sid/read_sid of sim/message.hpp) + RbPhase + the RB
//             value bytes: one step of a reliable-broadcast instance.
//             Batched envelopes (kSvssBatch*, kMwBatch*) need no
//             translation — they are ordinary Messages and ride inside
//             kDirect/kRb unchanged.
//
// Frame bytes are not metered bytes: both backends count the
// Packet::wire_size() model through Metrics::note_send.
//
// Error discipline, mirroring the Reader's treat-garbage-as-absent rule:
//  * a frame whose *payload* fails to parse is dropped alone — the length
//    prefix still delimits it, so the stream stays in sync;
//  * a *length* that is zero or exceeds kMaxFrameBytes can never be
//    trusted to delimit anything (the stream may be mid-desync), so the
//    decoder latches a stream error and the connection must be reset —
//    never resumed — exactly how a Byzantine peer is prevented from
//    desyncing an honest reader.
#pragma once

#include <cstdint>
#include <optional>

#include "common/serialization.hpp"
#include "sim/message.hpp"

namespace svss::net {

enum class FrameKind : std::uint8_t { kHello = 0, kDirect = 1, kRb = 2 };

// Ceiling on one frame's (kind + payload) size.  Generous relative to any
// protocol message at kMaxN, tiny relative to what a hostile length prefix
// could claim (and allocate).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

// --- encoding ---------------------------------------------------------

// Appends one framed packet / hello to `out`.
void append_packet_frame(Bytes& out, const Packet& p);
void append_hello_frame(Bytes& out, int self);

// --- decoding ---------------------------------------------------------

// One successfully delimited frame (payload may still be garbage).
struct Frame {
  FrameKind kind = FrameKind::kDirect;
  Bytes payload;
};

// Parses a frame payload back into a Packet; nullopt for malformed bytes
// (including a kHello kind, which never carries a Packet).
std::optional<Packet> decode_packet(const Frame& f);
// Parses a kHello payload; nullopt if malformed or not in [0, n).
std::optional<int> decode_hello(const Frame& f, int n);

// Incremental stream decoder: feed() bytes as they arrive, next() pops
// delimited frames.  Once `broken()` — an undelimitable length prefix —
// the decoder refuses all further input; the owner resets the connection.
class FrameDecoder {
 public:
  // Appends raw stream bytes.  Returns false (and consumes nothing) once
  // the stream is broken.
  bool feed(const std::uint8_t* data, std::size_t len);
  // Pops the next complete frame, if one is fully buffered.
  std::optional<Frame> next();

  [[nodiscard]] bool broken() const { return broken_; }
  // Bytes buffered but not yet delimited (tests).
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool broken_ = false;
};

}  // namespace svss::net
