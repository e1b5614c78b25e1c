#include <algorithm>
#include <utility>

#include "batch/codec.hpp"

namespace svss {

namespace {

// The clients, in window flush order.
const std::array<const batch::Codec*, 3> kCodecs = {
    &batch::kVoteCodec, &batch::kMwCodec, &batch::kCoinCodec};

}  // namespace

Batcher::Batcher(BatchHost& host, int self, int n, int t,
                 BatchFraming framing)
    : host_(host),
      shape_{self, n, t},
      enabled_{framing.votes, framing.mw, framing.coin} {}

int Batcher::client(MsgType type, bool envelope) {
  // Per MsgType value, built once from the codecs' declarations.
  static const auto table = [] {
    std::array<std::array<std::int8_t, 256>, 2> t;
    for (std::size_t v = 0; v < 256; ++v) {
      t[0][v] = t[1][v] = -1;
      for (std::int8_t c = 2; c >= 0; --c) {
        const batch::Codec& codec = *kCodecs[static_cast<std::size_t>(c)];
        if (codec.captures(static_cast<MsgType>(v))) t[0][v] = c;
        if (codec.owns(static_cast<MsgType>(v))) t[1][v] = c;
      }
    }
    return t;
  }();
  return table[envelope ? 1 : 0][static_cast<std::size_t>(type)];
}

void Batcher::flush_window(Context& ctx) {
  window_captured_ = false;
  for (int c = 0; c < 3; ++c) {
    Groups& groups = pending_[static_cast<std::size_t>(c)];
    const bool windowed = !kCodecs[static_cast<std::size_t>(c)]->when_complete;
    if (groups.live == 0 || !windowed) continue;
    for (std::size_t i = 0; i < groups.live; ++i) {
      Group& g = groups.list[i];
      for (std::size_t k = 0; k < g.buckets.size(); ++k) {
        if (g.buckets[k].count != 0) flush(ctx, c, g, k);
      }
    }
    groups.live = 0;
    groups.index.clear();
  }
}

bool Batcher::capture(Context& ctx, int to, const Message& m) {
  const int c = client(m.type, /*envelope=*/false);
  if (c < 0 || !enabled_[static_cast<std::size_t>(c)] || to >= shape_.n ||
      to < batch::kBroadcast) {
    return false;
  }
  const batch::Codec& codec = *kCodecs[static_cast<std::size_t>(c)];
  if (!window_open_ && !codec.when_complete) return false;
  std::optional<batch::Entry> entry = codec.group(shape_, m, to);
  if (!entry) return false;
  window_captured_ |= !codec.when_complete;
  Group& g = group_for(pending_[static_cast<std::size_t>(c)], entry->group);
  const auto n = static_cast<std::size_t>(shape_.n);
  if (g.buckets.empty()) g.buckets.resize(n + codec.rb_slots);
  const std::size_t k = to == batch::kBroadcast
                            ? n + static_cast<std::size_t>(entry->slot)
                            : static_cast<std::size_t>(to);
  Bucket& b = g.buckets[k];
  if (b.count == 0) {
    b.env.sid = entry->group;
    b.env.type = entry->envelope;
  }
  if (!codec.pack(shape_, b.env, m)) return true;  // duplicate: dropped
  if (++b.count < shape_.n || !codec.when_complete) return true;
  flush(ctx, c, g, k);
  // A group whose every bucket has left keeps only its key.
  if (std::all_of(g.buckets.begin(), g.buckets.end(),
                  [](const Bucket& x) { return x.count == 0; })) {
    g.buckets = {};
  }
  return true;
}

Batcher::Group& Batcher::group_for(Groups& groups, const SessionId& key) {
  std::vector<Group>& list = groups.list;
  std::size_t& live = groups.live;
  // Consecutive captures mostly share a group; the index serves the rest
  // and is built only once a second group shows up.
  if (live > 0 && list[live - 1].key == key) return list[live - 1];
  if (const std::uint32_t* i = groups.index.find(key)) return list[*i];
  if (live == 1) groups.index[list[0].key] = 0;
  if (live > 0) groups.index[key] = static_cast<std::uint32_t>(live);
  if (live == list.size()) list.emplace_back();
  list[live].key = key;
  return list[live++];
}

void Batcher::flush(Context& ctx, int client, Group& g, std::size_t k) {
  const batch::Codec& codec = *kCodecs[static_cast<std::size_t>(client)];
  Bucket& b = g.buckets[k];
  const auto n = static_cast<std::size_t>(shape_.n);
  const bool rb = k >= n;
  const int to = rb ? batch::kBroadcast : static_cast<int>(k);
  if (b.count == 1 && codec.lone_passthrough) {
    // A lone entry gains nothing from an envelope: it leaves as the
    // per-session message it was captured from.
    batch::SubMessages& lone = free_pool();
    if (codec.unpack(shape_, b.env, rb, lone)) {
      if (rb) {
        host_.emit_rb(ctx, lone[0]);
      } else {
        host_.emit_direct(ctx, to, lone[0]);
      }
    }
  } else if (rb) {
    codec.seal(b.env, codec.when_complete ? 0 : flush_seq_[g.key][k - n]++);
    host_.emit_rb(ctx, b.env);
  } else if (codec.when_complete) {
    host_.emit_direct(ctx, to, std::move(b.env));
  } else {
    host_.emit_direct(ctx, to, b.env);  // the bucket keeps its buffers
  }
  b.env.a = b.env.b = -1;
  b.env.vals.clear();
  b.env.ints.clear();
  b.env.blob.clear();
  b.count = 0;
}

batch::SubMessages& Batcher::free_pool() {
  if (depth_ == pools_.size()) pools_.emplace_back();
  batch::SubMessages& pool = pools_[depth_];
  pool.clear();
  return pool;
}

bool Batcher::unpack(Context& ctx, int sender, const Message& env,
                     bool via_rb) {
  const int c = client(env.type, /*envelope=*/true);
  if (c < 0) return false;
  const std::size_t depth = depth_;
  if (kCodecs[static_cast<std::size_t>(c)]->unpack(shape_, env, via_rb,
                                                   free_pool())) {
    ++depth_;
    // Indexed afresh per sub: a nested unpack may grow pools_, which moves
    // the pools but not the sub-messages their slots own.
    for (std::size_t i = 0; i < pools_[depth].size(); ++i) {
      host_.deliver_sub(ctx, sender, pools_[depth][i], via_rb);
    }
    --depth_;
  }
  return true;
}

}  // namespace svss
