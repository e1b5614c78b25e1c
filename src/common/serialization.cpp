#include "common/serialization.hpp"

#include <algorithm>

namespace svss {

bool Reader::field_vec(FieldVec& out, std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return false;
  out.clear();
  // Every element takes 4 bytes, so a forged length reserves no more than
  // the buffer could hold.
  out.reserve(std::min<std::size_t>(*len, remaining() / 4));
  for (std::uint32_t i = 0; i < *len; ++i) {
    auto x = field();
    if (!x) return false;
    out.push_back(*x);
  }
  return true;
}

bool Reader::int_vec(std::vector<int>& out, std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return false;
  out.clear();
  out.reserve(std::min<std::size_t>(*len, remaining() / 4));
  for (std::uint32_t i = 0; i < *len; ++i) {
    auto x = i32();
    if (!x) return false;
    out.push_back(*x);
  }
  return true;
}

bool Reader::bytes(Bytes& out, std::size_t max_len) {
  auto len = u32();
  if (!len || *len > max_len) return false;
  if (pos_ + *len > buf_.size()) return false;
  out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
             buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
  pos_ += *len;
  return true;
}

std::optional<FieldVec> Reader::field_vec(std::size_t max_len) {
  FieldVec out;
  if (!field_vec(out, max_len)) return std::nullopt;
  return out;
}

std::optional<std::vector<int>> Reader::int_vec(std::size_t max_len) {
  std::vector<int> out;
  if (!int_vec(out, max_len)) return std::nullopt;
  return out;
}

std::optional<Bytes> Reader::bytes(std::size_t max_len) {
  Bytes out;
  if (!bytes(out, max_len)) return std::nullopt;
  return out;
}

}  // namespace svss
