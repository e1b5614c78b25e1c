// MW client.  Envelope sids reuse the coin-nested child id space with
// variant 2 + v (the children's variant v) and the counter at the
// attachee-0 slot; blob stays empty, and field values ride in vals so
// value-corrupting interceptors act on batched traffic as on per-session
// framing.  Wire layout:
//   kMwBatchDirect    ints = (type, j, len) triples; vals = concatenation.
//   kMwBatchAck/Ok    ints = attachee list.
//   kMwBatchLset/Mset ints = (j, len, members...) runs.
//   kMwBatchReconVal  ints = (j, l) pairs; vals = one value per pair.
// RB envelopes carry their flush sequence in `a`.
#include <algorithm>
#include <bitset>

#include "batch/codec.hpp"

namespace svss::batch {

SessionId mw_group_sid(const SessionId& child) {
  SessionId g = child;
  g.variant = static_cast<std::uint8_t>(2 + child.variant);
  g.counter = (child.counter / kMaxN) * kMaxN;
  return g;
}

SessionId mw_child_sid(const SessionId& group, int j) {
  SessionId c = group;
  c.variant = static_cast<std::uint8_t>(group.variant - 2);
  c.counter = group.counter + static_cast<std::uint32_t>(j);
  return c;
}

namespace {

bool is_direct(MsgType type) {
  return type >= MsgType::kMwDealerShares && type <= MsgType::kMwMonitorVal;
}

bool is_set_run(MsgType type) {
  return type == MsgType::kMwBatchLset || type == MsgType::kMwBatchMset;
}

// kMwAck..kMwReconVal map in order onto kMwBatchAck..kMwBatchReconVal, the
// RB slots in flush order.  -1 for other types.
int rb_slot(MsgType type) {
  const int slot = static_cast<int>(type) - static_cast<int>(MsgType::kMwAck);
  return slot >= 0 && type <= MsgType::kMwReconVal ? slot : -1;
}

MsgType rb_envelope(int slot) {
  return static_cast<MsgType>(static_cast<int>(MsgType::kMwBatchAck) + slot);
}

std::optional<Entry> group(const Shape& node, const Message& m, int to) {
  if (m.sid.path != SessionPath::kMwInSvssCoin || m.sid.variant > 1 ||
      static_cast<int>(m.sid.counter % kMaxN) >= node.n) {
    return std::nullopt;
  }
  if (to != kBroadcast) {
    if (!is_direct(m.type)) return std::nullopt;
    return Entry{mw_group_sid(m.sid), MsgType::kMwBatchDirect, 0};
  }
  // Only single-value recon broadcasts have the shape re-framed here.
  const int slot = rb_slot(m.type);
  if (slot < 0 || (m.type == MsgType::kMwReconVal && m.vals.size() != 1)) {
    return std::nullopt;
  }
  return Entry{mw_group_sid(m.sid), rb_envelope(slot), slot};
}

bool pack(const Shape&, Message& env, const Message& m) {
  const int j = static_cast<int>(m.sid.counter % kMaxN);
  switch (env.type) {
    case MsgType::kMwBatchDirect:
      env.ints.insert(env.ints.end(), {static_cast<int>(m.type), j,
                                       static_cast<int>(m.vals.size())});
      env.vals.insert(env.vals.end(), m.vals.begin(), m.vals.end());
      break;
    case MsgType::kMwBatchLset:
    case MsgType::kMwBatchMset:
      env.ints.insert(env.ints.end(), {j, static_cast<int>(m.ints.size())});
      env.ints.insert(env.ints.end(), m.ints.begin(), m.ints.end());
      break;
    case MsgType::kMwBatchReconVal:
      env.ints.insert(env.ints.end(), {j, static_cast<int>(m.a)});
      env.vals.push_back(m.vals[0]);
      break;
    default:  // ack, OK: the attachee list
      env.ints.push_back(j);
      break;
  }
  return true;
}

void seal(Message& env, std::uint32_t seq) {
  env.a = static_cast<std::int16_t>(seq);
}

bool unpack(const Shape& node, const Message& env, bool via_rb,
            SubMessages& out) {
  // Role pids were vetted by the host's sid check; the sub-sessions
  // re-enter full per-session validation.
  if (env.sid.path != SessionPath::kMwInSvssCoin || env.sid.variant < 2 ||
      env.sid.variant > 3 || env.sid.counter % kMaxN != 0 ||
      !env.blob.empty() ||
      (env.type == MsgType::kMwBatchDirect) == via_rb) {
    return false;
  }
  // One delivery per (sub-type, attachee) per envelope: a duplicate is
  // the Byzantine shape that could double-drive a session.
  std::bitset<11 * kMaxN> seen;
  auto claim = [&](MsgType type, int j) {
    if (j < 0 || j >= node.n) return false;
    std::size_t bit = static_cast<std::size_t>(type) * kMaxN +
                      static_cast<std::size_t>(j);
    if (seen[bit]) return false;
    seen[bit] = true;
    return true;
  };
  const std::vector<int>& r = env.ints;
  // The per-session type of an RB envelope (kMwBatchAck -> kMwAck, ...).
  const auto rb_type = static_cast<MsgType>(
      static_cast<int>(env.type) - static_cast<int>(MsgType::kMwBatchAck) +
      static_cast<int>(MsgType::kMwAck));
  switch (env.type) {
    case MsgType::kMwBatchDirect: {
      if (r.size() % 3 != 0) return false;
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < r.size(); i += 3) {
        auto type = static_cast<MsgType>(r[i]);
        int len = r[i + 2];
        if (!is_direct(type) || len < 0 ||
            cursor + static_cast<std::size_t>(len) > env.vals.size() ||
            !claim(type, r[i + 1])) {
          return false;
        }
        auto first = env.vals.begin() + static_cast<std::ptrdiff_t>(cursor);
        out.add(mw_child_sid(env.sid, r[i + 1]), type)
            .vals.assign(first, first + len);
        cursor += static_cast<std::size_t>(len);
      }
      return cursor == env.vals.size();
    }
    case MsgType::kMwBatchAck:
    case MsgType::kMwBatchOk: {
      if (!env.vals.empty()) return false;
      for (int j : r) {
        if (!claim(rb_type, j)) return false;
        out.add(mw_child_sid(env.sid, j), rb_type);
      }
      return true;
    }
    case MsgType::kMwBatchLset:
    case MsgType::kMwBatchMset: {
      if (!env.vals.empty()) return false;
      std::size_t i = 0;
      while (i < r.size()) {
        if (i + 2 > r.size()) return false;
        int len = r[i + 1];
        if (len < 0 || i + 2 + static_cast<std::size_t>(len) > r.size() ||
            !claim(rb_type, r[i])) {
          return false;
        }
        auto first = r.begin() + static_cast<std::ptrdiff_t>(i + 2);
        out.add(mw_child_sid(env.sid, r[i]), rb_type)
            .ints.assign(first, first + len);
        i += 2 + static_cast<std::size_t>(len);
      }
      return true;
    }
    case MsgType::kMwBatchReconVal: {
      if (r.size() % 2 != 0 || env.vals.size() * 2 != r.size()) {
        return false;
      }
      // A duplicate (j, l) within one envelope is rejected here; across
      // two flushes of a Byzantine sender the session's per-(origin, l)
      // guard catches it.
      std::bitset<kMaxN * kMaxN> recon_seen;
      for (std::size_t i = 0; i < env.vals.size(); ++i) {
        int j = r[2 * i];
        int l = r[2 * i + 1];
        if (j < 0 || j >= node.n || l < 0 || l >= node.n) return false;
        std::size_t bit = static_cast<std::size_t>(j) * kMaxN +
                          static_cast<std::size_t>(l);
        if (recon_seen[bit]) return false;
        recon_seen[bit] = true;
        Message& sub = out.add(mw_child_sid(env.sid, j), MsgType::kMwReconVal);
        sub.a = static_cast<std::int16_t>(l);
        sub.vals.push_back(env.vals[i]);
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

const Codec kMwCodec{MsgType::kMwDealerShares, MsgType::kMwReconVal,
                     MsgType::kMwBatchDirect,  MsgType::kMwBatchReconVal,
                     /*rb_slots=*/5,
                     /*when_complete=*/false,  /*lone_passthrough=*/false,
                     group, pack, seal, unpack};

// ---------------------------------------------------------------------
// Fault-injection views
// ---------------------------------------------------------------------
void for_each_value(Message& m, MsgType type,
                    const std::function<void(Fp&)>& fn) {
  const int slot = rb_slot(type);
  if (m.type == type || (slot >= 0 && m.type == rb_envelope(slot))) {
    for (Fp& v : m.vals) fn(v);
    return;
  }
  if (m.type != MsgType::kMwBatchDirect) return;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i + 2 < m.ints.size(); i += 3) {
    const auto len = static_cast<std::size_t>(std::max(m.ints[i + 2], 0));
    const std::size_t end = std::min(cursor + len, m.vals.size());
    if (static_cast<MsgType>(m.ints[i]) == type) {
      for (std::size_t k = cursor; k < end; ++k) fn(m.vals[k]);
    }
    cursor += len;
  }
}

int* first_set_member(Message& m) {
  const std::size_t at = is_set_run(m.type) ? 2 : 0;
  if (m.ints.size() <= at || (at == 2 && m.ints[1] < 1)) return nullptr;
  return &m.ints[at];
}

bool for_each_member_set(const Message& m,
                         const std::function<void(std::span<const int>)>& fn) {
  const std::vector<int>& r = m.ints;
  if (!is_set_run(m.type)) {
    fn(r);
    return true;
  }
  std::size_t i = 0;
  while (i + 2 <= r.size()) {
    int len = r[i + 1];
    if (len < 0 || i + 2 + static_cast<std::size_t>(len) > r.size()) {
      return false;
    }
    fn(std::span<const int>(r).subspan(i + 2, static_cast<std::size_t>(len)));
    i += 2 + static_cast<std::size_t>(len);
  }
  return true;
}

}  // namespace svss::batch
