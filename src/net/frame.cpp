#include "net/frame.hpp"

#include <cstring>

namespace svss::net {

namespace {

void append_frame(Bytes& out, FrameKind kind, const Bytes& payload) {
  std::uint32_t len = static_cast<std::uint32_t>(payload.size()) + 1;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

void append_packet_frame(Bytes& out, const Packet& p) {
  if (!p.is_rb) {
    append_frame(out, FrameKind::kDirect, p.app.serialize());
    return;
  }
  Writer w;
  w.i32(p.bid.origin);
  write_sid(w, p.bid.sid);
  w.u8(static_cast<std::uint8_t>(p.bid.slot));
  w.i32(p.bid.a);
  w.u8(static_cast<std::uint8_t>(p.phase));
  w.bytes(p.rb_payload());
  append_frame(out, FrameKind::kRb, std::move(w).take());
}

void append_hello_frame(Bytes& out, int self) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(self));
  append_frame(out, FrameKind::kHello, std::move(w).take());
}

std::optional<Packet> decode_packet(const Frame& f) {
  if (f.kind == FrameKind::kDirect) {
    auto msg = Message::deserialize(f.payload);
    if (!msg) return std::nullopt;
    return make_direct(std::move(*msg));
  }
  if (f.kind != FrameKind::kRb) return std::nullopt;
  Reader r(f.payload);
  auto origin = r.i32();
  auto sid = read_sid(r);
  auto slot = r.u8();
  auto a = r.i32();
  auto phase = r.u8();
  auto value = r.bytes();
  if (!origin || !sid || !slot || !a || !phase || !value || !r.exhausted()) {
    return std::nullopt;
  }
  if (*phase < static_cast<std::uint8_t>(RbPhase::kSend) ||
      *phase > static_cast<std::uint8_t>(RbPhase::kReady)) {
    return std::nullopt;
  }
  BcastId bid;
  bid.origin = static_cast<std::int16_t>(*origin);
  bid.sid = *sid;
  bid.slot = static_cast<MsgType>(*slot);
  bid.a = static_cast<std::int16_t>(*a);
  return make_rb(bid, static_cast<RbPhase>(*phase), std::move(*value));
}

std::optional<int> decode_hello(const Frame& f, int n) {
  if (f.kind != FrameKind::kHello) return std::nullopt;
  Reader r(f.payload);
  auto id = r.u32();
  if (!id || !r.exhausted()) return std::nullopt;
  if (*id >= static_cast<std::uint32_t>(n)) return std::nullopt;
  return static_cast<int>(*id);
}

bool FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  if (broken_) return false;
  buf_.insert(buf_.end(), data, data + len);
  return true;
}

std::optional<Frame> FrameDecoder::next() {
  if (broken_) return std::nullopt;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection doesn't grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  if (buf_.size() - pos_ < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len == 0 || len > kMaxFrameBytes) {
    // An undelimitable prefix: nothing downstream can be trusted.
    broken_ = true;
    return std::nullopt;
  }
  if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) {
    return std::nullopt;  // truncated: wait for more bytes
  }
  Frame f;
  std::uint8_t kind = buf_[pos_ + 4];
  if (kind > static_cast<std::uint8_t>(FrameKind::kRb)) {
    // Unknown kind is a payload-level problem: the length still delimits
    // it, so skip this frame and keep the stream alive.
    pos_ += 4 + static_cast<std::size_t>(len);
    return next();
  }
  f.kind = static_cast<FrameKind>(kind);
  f.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 5),
                   buf_.begin() + static_cast<std::ptrdiff_t>(
                                      pos_ + 4 + static_cast<std::size_t>(len)));
  pos_ += 4 + static_cast<std::size_t>(len);
  return f;
}

}  // namespace svss::net
