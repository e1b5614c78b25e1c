#include "common/serialization.hpp"

#include <algorithm>

namespace svss {

std::optional<FieldVec> Reader::field_vec(std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return std::nullopt;
  FieldVec out;
  // Every element takes 4 bytes, so a forged length reserves no more than
  // the buffer could hold.
  out.reserve(std::min<std::size_t>(*len, remaining() / 4));
  for (std::uint32_t i = 0; i < *len; ++i) {
    auto x = field();
    if (!x) return std::nullopt;
    out.push_back(*x);
  }
  return out;
}

std::optional<std::vector<int>> Reader::int_vec(std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return std::nullopt;
  std::vector<int> out;
  out.reserve(std::min<std::size_t>(*len, remaining() / 4));
  for (std::uint32_t i = 0; i < *len; ++i) {
    auto x = i32();
    if (!x) return std::nullopt;
    out.push_back(*x);
  }
  return out;
}

std::optional<Bytes> Reader::bytes(std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return std::nullopt;
  if (pos_ + *len > buf_.size()) return std::nullopt;
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
  pos_ += *len;
  return out;
}

}  // namespace svss
