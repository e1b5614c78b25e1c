// Unit tests: byte writer/reader round trips and malformed-input safety.
// The batching layer's envelope codecs are covered by batch_codec_test.
#include "common/serialization.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "alloc_count.hpp"

namespace svss {
namespace {

TEST(Serialization, ScalarRoundTrip) {
  Writer w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.field(Fp(999));
  Bytes buf = std::move(w).take();

  Reader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.field(), Fp(999));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, VectorRoundTrip) {
  Writer w;
  w.field_vec({Fp(1), Fp(2), Fp(3)});
  w.int_vec({-1, 0, 7});
  w.bytes({0xAA, 0xBB});
  Bytes buf = std::move(w).take();

  Reader r(buf);
  EXPECT_EQ(r.field_vec(), (FieldVec{Fp(1), Fp(2), Fp(3)}));
  EXPECT_EQ(r.int_vec(), (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(r.bytes(), (Bytes{0xAA, 0xBB}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, EmptyVectors) {
  Writer w;
  w.field_vec({});
  w.int_vec({});
  w.bytes({});
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_EQ(r.field_vec(), FieldVec{});
  EXPECT_EQ(r.int_vec(), std::vector<int>{});
  EXPECT_EQ(r.bytes(), Bytes{});
}

TEST(Serialization, TruncatedInputReturnsNullopt) {
  Writer w;
  w.u64(12345);
  Bytes buf = std::move(w).take();
  buf.pop_back();
  Reader r(buf);
  EXPECT_FALSE(r.u64().has_value());
}

TEST(Serialization, TruncatedVectorReturnsNullopt) {
  Writer w;
  w.field_vec({Fp(1), Fp(2), Fp(3)});
  Bytes buf = std::move(w).take();
  buf.resize(buf.size() - 2);
  Reader r(buf);
  EXPECT_FALSE(r.field_vec().has_value());
}

TEST(Serialization, LengthBombRejected) {
  // A length prefix claiming 2^31 elements must not allocate or crash.
  Writer w;
  w.u32(0x7FFFFFFF);
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_FALSE(r.field_vec().has_value());
  Reader r2(buf);
  EXPECT_FALSE(r2.int_vec().has_value());
  Reader r3(buf);
  EXPECT_FALSE(r3.bytes().has_value());
}

TEST(Serialization, ForgedLengthReservesNoMoreThanTheBuffer) {
  // A length prefix of 2^20 (within max_len) over a 4-element body: the
  // decode fails, and no allocation outgrows the 4 elements present.
  Writer w;
  w.u32(1u << 20);
  for (int i = 0; i < 4; ++i) w.u32(7);
  Bytes buf = std::move(w).take();
  std::size_t largest = 0;
  bool fields = true;
  bool ints = true;
  {
    test::AllocCounter counter;
    Reader r(buf);
    fields = r.field_vec().has_value();
    Reader r2(buf);
    ints = r2.int_vec().has_value();
    largest = counter.largest();
  }
  EXPECT_FALSE(fields);
  EXPECT_FALSE(ints);
  EXPECT_LE(largest, 4 * sizeof(Fp));
}

TEST(Serialization, NonCanonicalFieldValueRejected) {
  Writer w;
  w.u32(0xFFFFFFFF);  // >= modulus
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_FALSE(r.field().has_value());
}

TEST(Serialization, EmptyBufferFailsEverything) {
  Bytes empty;
  Reader r(empty);
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.field().has_value());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, SequentialReadsConsumeExactly) {
  Writer w;
  for (int i = 0; i < 10; ++i) w.u32(static_cast<std::uint32_t>(i));
  Bytes buf = std::move(w).take();
  Reader r(buf);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i));
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Serialization, WriterAppendsToAnExistingBuffer) {
  Writer first;
  first.u32(1);
  Writer w(std::move(first).take());
  w.u32(2);
  Bytes buf = std::move(w).take();
  Reader r(buf);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace svss
