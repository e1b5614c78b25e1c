// Byte-accurate message serialization.
//
// Every protocol message is flattened to bytes before entering the network
// simulator.  This serves two purposes: (1) the byte count is what the
// metrics layer meters when checking the paper's "message size polynomial
// in n" claim, and (2) it enforces that processes exchange data only
// through explicit, private point-to-point payloads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/field.hpp"

namespace svss {

using Bytes = std::vector<std::uint8_t>;

class Writer {
 public:
  Writer() = default;
  // Appends to an existing buffer.
  explicit Writer(Bytes buf) : buf_(std::move(buf)) {}
  // Sizes the buffer for `n` more bytes, so a writer that knows its output
  // size allocates once.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void field(Fp x) { u32(static_cast<std::uint32_t>(x.value())); }
  void field_vec(const FieldVec& xs) {
    u32(static_cast<std::uint32_t>(xs.size()));
    for (Fp x : xs) field(x);
  }
  void int_vec(const std::vector<int>& xs) {
    u32(static_cast<std::uint32_t>(xs.size()));
    for (int x : xs) i32(x);
  }
  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& data() const { return buf_; }

 private:
  Bytes buf_;
};

// Reader with explicit failure: every accessor returns nullopt on truncated
// or malformed input, so Byzantine-crafted payloads can never crash a
// nonfaulty process — they parse to nullopt and are dropped.
class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > buf_.size()) return std::nullopt;
    return buf_[pos_++];
  }
  std::optional<std::uint32_t> u32() {
    if (pos_ + 4 > buf_.size()) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  std::optional<std::uint64_t> u64() {
    if (pos_ + 8 > buf_.size()) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }
  std::optional<std::int32_t> i32() {
    auto v = u32();
    if (!v) return std::nullopt;
    return static_cast<std::int32_t>(*v);
  }
  std::optional<Fp> field() {
    auto v = u32();
    if (!v || *v >= Fp::kModulus) return std::nullopt;
    return Fp(static_cast<std::int64_t>(*v));
  }
  std::optional<FieldVec> field_vec(std::size_t max_len = 1 << 20);
  std::optional<std::vector<int>> int_vec(std::size_t max_len = 1 << 20);
  std::optional<Bytes> bytes(std::size_t max_len = 1 << 24);
  // The same decoders into a caller's buffer, which keeps its capacity: the
  // delivery path parses into reused messages.  On false, `out` holds a
  // partial value.
  bool field_vec(FieldVec& out, std::size_t max_len = 1 << 20);
  bool int_vec(std::vector<int>& out, std::size_t max_len = 1 << 20);
  bool bytes(Bytes& out, std::size_t max_len = 1 << 24);

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  // Bytes not yet read: an upper bound for decoders sizing a buffer from a
  // count the input claims.
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace svss
