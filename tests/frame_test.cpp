// Frame codec tests for the socket backend (src/net/frame.*).
//
// The codec's error discipline is the load-bearing property: a Byzantine
// peer shares a TCP stream with honest traffic, so a frame whose *payload*
// is garbage must be droppable alone (the length prefix still delimits
// it), while a length prefix that cannot be trusted (zero, or beyond
// kMaxFrameBytes) must latch a stream error that only a connection reset
// clears — otherwise the peer desyncs the reader and every subsequent
// honest frame is misparsed.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "sim/message.hpp"

namespace svss::net {
namespace {

Message sample_message(std::uint32_t counter) {
  Message m;
  m.sid.path = SessionPath::kSvssCoin;
  m.sid.owner = 2;
  m.sid.counter = counter;
  m.type = MsgType::kSvssBatchShares;
  m.a = 1;
  m.vals.push_back(Fp(12345));
  m.vals.push_back(Fp(67890));
  m.ints = {0, 2, 3};
  m.blob = {0xDE, 0xAD};
  return m;
}

Packet sample_rb_packet(std::uint32_t counter) {
  BcastId bid;
  bid.origin = 1;
  bid.sid.path = SessionPath::kMwInSvssCoin;
  bid.sid.owner = 0;
  bid.sid.moderator = 2;
  bid.sid.svss_dealer = 3;
  bid.sid.counter = counter;
  bid.slot = MsgType::kMwBatchLset;
  bid.a = 4;
  Message payload = sample_message(counter);
  return make_rb(bid, RbPhase::kEcho, payload.serialize());
}

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t x : b) {
    s.push_back(kDigits[x >> 4]);
    s.push_back(kDigits[x & 0xF]);
  }
  return s;
}

Bytes unhex(const std::string& s) {
  Bytes b;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    b.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return b;
}

// Feeds `bytes` into a fresh decoder and pops all frames.
std::vector<Frame> decode_all(const Bytes& bytes, FrameDecoder& dec) {
  EXPECT_TRUE(dec.feed(bytes.data(), bytes.size()));
  std::vector<Frame> frames;
  while (auto f = dec.next()) frames.push_back(std::move(*f));
  return frames;
}

TEST(FrameCodec, DirectPacketRoundTrip) {
  Packet p = make_direct(sample_message(7));
  Bytes wire;
  append_packet_frame(wire, p);

  FrameDecoder dec;
  auto frames = decode_all(wire, dec);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kDirect);
  auto out = decode_packet(frames[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->is_rb);
  EXPECT_EQ(out->app, p.app);
  EXPECT_EQ(dec.pending_bytes(), 0u);
  EXPECT_FALSE(dec.broken());
}

TEST(FrameCodec, RbPacketRoundTrip) {
  Packet p = sample_rb_packet(9);
  Bytes wire;
  append_packet_frame(wire, p);

  FrameDecoder dec;
  auto frames = decode_all(wire, dec);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kRb);
  auto out = decode_packet(frames[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->is_rb);
  EXPECT_EQ(out->bid, p.bid);
  EXPECT_EQ(out->phase, p.phase);
  EXPECT_EQ(out->rb_payload(), p.rb_payload());
}

TEST(FrameCodec, HelloRoundTrip) {
  Bytes wire;
  append_hello_frame(wire, 3);
  FrameDecoder dec;
  auto frames = decode_all(wire, dec);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(decode_hello(frames[0], 4), std::optional<int>(3));
  // Out-of-range ids are rejected by the fleet-size bound.
  EXPECT_EQ(decode_hello(frames[0], 3), std::nullopt);
}

TEST(FrameCodec, ByteAtATimeFeedingWaitsThenDelivers) {
  Packet p = sample_rb_packet(11);
  Bytes wire;
  append_hello_frame(wire, 1);
  append_packet_frame(wire, p);

  FrameDecoder dec;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    // A truncated prefix is a wait, never an error.
    EXPECT_FALSE(dec.broken());
    EXPECT_TRUE(dec.feed(&wire[i], 1));
    while (auto f = dec.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(frames[1].kind, FrameKind::kRb);
  EXPECT_TRUE(decode_packet(frames[1]).has_value());
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(FrameCodec, ZeroLengthPrefixBreaksStream) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  FrameDecoder dec;
  EXPECT_TRUE(dec.feed(zeros, sizeof zeros));
  EXPECT_EQ(dec.next(), std::nullopt);
  EXPECT_TRUE(dec.broken());
  // A broken stream refuses all further input — the connection must be
  // reset, not resumed.
  Bytes good;
  append_hello_frame(good, 0);
  EXPECT_FALSE(dec.feed(good.data(), good.size()));
  EXPECT_EQ(dec.next(), std::nullopt);
}

TEST(FrameCodec, OversizedLengthPrefixBreaksStream) {
  std::uint32_t len = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &len, 4);  // little-endian hosts only (CI is x86/ARM)
  FrameDecoder dec;
  EXPECT_TRUE(dec.feed(prefix, 4));
  EXPECT_EQ(dec.next(), std::nullopt);
  EXPECT_TRUE(dec.broken());
  EXPECT_FALSE(dec.feed(prefix, 4));
}

TEST(FrameCodec, GarbagePayloadDropsFrameWithoutDesync) {
  // A well-delimited frame full of garbage parses as "no packet", and the
  // frame after it still decodes — rejecting a payload never desyncs.
  Bytes wire;
  Bytes garbage = {0xFF, 0xFF, 0x00, 0x41, 0x99};
  std::uint32_t len = static_cast<std::uint32_t>(garbage.size()) + 1;
  wire.insert(wire.end(), reinterpret_cast<std::uint8_t*>(&len),
              reinterpret_cast<std::uint8_t*>(&len) + 4);
  wire.push_back(static_cast<std::uint8_t>(FrameKind::kDirect));
  wire.insert(wire.end(), garbage.begin(), garbage.end());
  Packet good = make_direct(sample_message(13));
  append_packet_frame(wire, good);

  FrameDecoder dec;
  auto frames = decode_all(wire, dec);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(decode_packet(frames[0]), std::nullopt);
  auto out = decode_packet(frames[1]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->app, good.app);
  EXPECT_FALSE(dec.broken());
}

TEST(FrameCodec, UnknownFrameKindIsSkipped) {
  Bytes wire;
  std::uint32_t len = 3;
  wire.insert(wire.end(), reinterpret_cast<std::uint8_t*>(&len),
              reinterpret_cast<std::uint8_t*>(&len) + 4);
  wire.push_back(0x7F);  // no such FrameKind
  wire.push_back(0x01);
  wire.push_back(0x02);
  Bytes hello;
  append_hello_frame(hello, 2);
  wire.insert(wire.end(), hello.begin(), hello.end());

  FrameDecoder dec;
  auto frames = decode_all(wire, dec);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_FALSE(dec.broken());
}

// Deterministic fuzz: random byte streams must never crash the decoder,
// and whatever it does must be one of the three sanctioned outcomes —
// wait for more bytes, deliver a delimited frame (whose payload may then
// be rejected), or latch broken.  Once broken, feed() must refuse input.
TEST(FrameCodec, RandomStreamFuzzNeverDesyncsOrCrashes) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder dec;
    bool refused = false;
    for (int chunk = 0; chunk < 32 && !refused; ++chunk) {
      Bytes noise;
      std::size_t len = rng.next_below(64);
      for (std::size_t i = 0; i < len; ++i) {
        noise.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
      bool ok = dec.feed(noise.data(), noise.size());
      if (!ok) {
        EXPECT_TRUE(dec.broken());
        refused = true;
        break;
      }
      while (auto f = dec.next()) {
        // Delivered frames are well-delimited by construction; parsing
        // them must fail safe, not crash.
        (void)decode_packet(*f);
        (void)decode_hello(*f, 4);
      }
    }
    if (dec.broken()) {
      std::uint8_t byte = 0x42;
      EXPECT_FALSE(dec.feed(&byte, 1));
    }
  }
}

// Interleaving honest frames into a hostile stream: every honest frame fed
// *before* the stream breaks is recovered intact.
TEST(FrameCodec, HonestFramesSurviveUntilStreamBreaks) {
  Rng rng(424242);
  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder dec;
    int fed = 0;
    int recovered = 0;
    for (int k = 0; k < 8; ++k) {
      Packet p = sample_rb_packet(static_cast<std::uint32_t>(k));
      Bytes wire;
      append_packet_frame(wire, p);
      if (!dec.feed(wire.data(), wire.size())) break;
      ++fed;
      while (auto f = dec.next()) {
        if (decode_packet(*f)) ++recovered;
      }
      // Occasionally inject garbage *between* frames: either a delimited
      // garbage frame (dropped alone) or a poisoned length prefix (breaks
      // the stream for good).
      if (rng.next_below(4) == 0) {
        Bytes junk;
        if (rng.next_bool()) {
          std::uint32_t len = 2;
          junk.insert(junk.end(), reinterpret_cast<std::uint8_t*>(&len),
                      reinterpret_cast<std::uint8_t*>(&len) + 4);
          junk.push_back(static_cast<std::uint8_t>(FrameKind::kRb));
          junk.push_back(0xEE);
        } else {
          junk.assign(4, 0x00);  // zero length prefix
        }
        if (!dec.feed(junk.data(), junk.size())) break;
        while (auto f = dec.next()) {
          if (decode_packet(*f)) ++recovered;
        }
      }
    }
    EXPECT_EQ(recovered, fed) << "trial " << trial;
  }
}

// Golden bytes: these frames are the socket wire format, so their bytes
// must never move.  The hex below was recorded from the codec as it stood
// when the cases were added; a layout change fails here first.
Message golden_message() {
  Message m;
  m.sid.path = SessionPath::kMwInSvssCoin;
  m.sid.variant = 1;
  m.sid.owner = 2;
  m.sid.moderator = 3;
  m.sid.svss_dealer = 1;
  m.sid.counter = 0x01020304;
  m.sid.instance = 5;
  m.sid.epoch = 6;
  m.type = MsgType::kMwReconVal;
  m.a = 4;
  m.b = -2;
  m.vals = {Fp(7), Fp(0x12345)};
  m.ints = {1, -1};
  m.blob = {0xAB};
  return m;
}

Packet golden_rb_packet() {
  BcastId bid;
  bid.origin = 3;
  bid.sid.path = SessionPath::kAba;
  bid.sid.variant = 0;
  bid.sid.owner = 1;
  bid.sid.counter = 9;
  bid.sid.instance = 17;
  bid.sid.epoch = 2;
  bid.slot = MsgType::kAbaVote;
  bid.a = 5;
  return make_rb(bid, RbPhase::kReady, Bytes{0x01, 0x02, 0x03});
}

constexpr const char* kGoldenDirect =
    "410000000102010200000003000000010000000403020105000000060000000a04000000"
    "feffffff0200000007000000452301000200000001000000ffffffff01000000ab";
constexpr const char* kGoldenRb =
    "2c0000000203000000060001000000ffffffffffffffff09000000110000000200000028"
    "050000000303000000010203";
constexpr const char* kGoldenHello = "050000000003000000";

// Decodes the single frame in `wire`.
std::optional<Packet> decode_one(const Bytes& wire) {
  FrameDecoder dec;
  auto frames = decode_all(wire, dec);
  EXPECT_EQ(frames.size(), 1u);
  EXPECT_EQ(dec.pending_bytes(), 0u);
  if (frames.size() != 1) return std::nullopt;
  return decode_packet(frames[0]);
}

TEST(FrameGolden, DirectFrameBytes) {
  Bytes wire;
  append_packet_frame(wire, make_direct(golden_message()));
  EXPECT_EQ(hex(wire), kGoldenDirect);

  auto out = decode_one(unhex(kGoldenDirect));
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->is_rb);
  EXPECT_EQ(out->app, golden_message());
}

TEST(FrameGolden, RbFrameBytes) {
  Packet p = golden_rb_packet();
  Bytes wire;
  append_packet_frame(wire, p);
  EXPECT_EQ(hex(wire), kGoldenRb);

  auto out = decode_one(unhex(kGoldenRb));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->is_rb);
  EXPECT_EQ(out->bid, p.bid);
  EXPECT_EQ(out->phase, p.phase);
  EXPECT_EQ(out->rb_payload(), p.rb_payload());
}

TEST(FrameGolden, HelloFrameBytes) {
  Bytes wire;
  append_hello_frame(wire, 3);
  EXPECT_EQ(hex(wire), kGoldenHello);

  FrameDecoder dec;
  auto frames = decode_all(unhex(kGoldenHello), dec);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(decode_hello(frames[0], 4), std::optional<int>(3));
}

// The SessionId reader is shared by kRb frames and Message::deserialize;
// message_test pins the Message side, this pins the frame side.  The path
// byte sits after the 4-byte length, the kind byte and the i32 origin.
TEST(FrameGolden, RbPathByteBeyondTestRejected) {
  Bytes wire = unhex(kGoldenRb);
  ASSERT_TRUE(decode_one(wire).has_value());
  constexpr std::size_t kPathOffset = 4 + 1 + 4;
  ASSERT_EQ(wire[kPathOffset], static_cast<std::uint8_t>(SessionPath::kAba));
  wire[kPathOffset] = static_cast<std::uint8_t>(SessionPath::kTest);
  EXPECT_TRUE(decode_one(wire).has_value());
  for (std::uint8_t bad : {std::uint8_t{8}, std::uint8_t{0xFF}}) {
    wire[kPathOffset] = bad;
    EXPECT_EQ(decode_one(wire), std::nullopt) << "path byte " << int(bad);
  }
}

}  // namespace
}  // namespace svss::net
