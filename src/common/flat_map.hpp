// Insert-only open-addressing hash map.
//
// The simulator's hot lookups — protocol sessions by SessionId, RB
// instances by BcastId — are get-or-create with no erasure, hit millions
// of times per run.  std::unordered_map pays a node allocation per entry
// and a pointer chase per probe; this flat table keeps entries in one
// vector and probes linearly after a murmur-style finalizer (the index is
// a power of two, so raw hashes with weak low bits would cluster).
//
// Contract: no erase, only clear(); references returned by find() and
// operator[] are invalidated by the next insertion (hold the value behind a
// unique_ptr or re-look it up), while heap-allocated pointees stay stable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace svss {

template <typename K, typename V, typename Hash>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  V* find(const K& key) {
    if (entries_.empty()) return nullptr;
    std::size_t mask = table_.size() - 1;
    std::size_t h = slot_hash(key) & mask;
    while (table_[h] != 0) {
      auto& entry = entries_[table_[h] - 1];
      if (entry.first == key) return &entry.second;
      h = (h + 1) & mask;
    }
    return nullptr;
  }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  // Get-or-default-construct.
  V& operator[](const K& key) {
    // Grow before probing so the returned reference survives until the
    // *next* insertion.
    if ((entries_.size() + 1) * 4 > table_.size() * 3) grow();
    std::size_t mask = table_.size() - 1;
    std::size_t h = slot_hash(key) & mask;
    while (table_[h] != 0) {
      auto& entry = entries_[table_[h] - 1];
      if (entry.first == key) return entry.second;
      h = (h + 1) & mask;
    }
    entries_.emplace_back(key, V{});
    table_[h] = static_cast<std::uint32_t>(entries_.size());
    return entries_.back().second;
  }

  // Drops every entry; the table keeps its capacity.
  void clear() {
    entries_.clear();
    std::fill(table_.begin(), table_.end(), 0);
  }

  // Entries in insertion order (deterministic).
  [[nodiscard]] const std::vector<std::pair<K, V>>& entries() const {
    return entries_;
  }

 private:
  static std::size_t slot_hash(const K& key) {
    std::size_t h = Hash{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  void grow() {
    std::size_t cap = table_.empty() ? 64 : table_.size() * 2;
    table_.assign(cap, 0);
    std::size_t mask = cap - 1;
    for (std::uint32_t e = 0; e < entries_.size(); ++e) {
      std::size_t h = slot_hash(entries_[e].first) & mask;
      while (table_[h] != 0) h = (h + 1) & mask;
      table_[h] = e + 1;
    }
  }

  // Index into entries_ + 1; 0 marks an empty slot.
  std::vector<std::uint32_t> table_;
  std::vector<std::pair<K, V>> entries_;
};

}  // namespace svss
