// Coin client.  Both envelopes of (instance, round, dealer) use the
// attachee-0 kSvssCoin sid with variant 1.  Wire layout:
//   kSvssBatchShares (direct): vals = the n sessions' kSvssDealerShares
//     values in attachee order, 2(t+1) each.
//   kSvssBatchGset (RB): blob = [int_vec G, bytes {G_j} blob] per
//     attachee, in attachee order.
// Buckets flush once all n siblings are in.  The coin counts a dealer only
// when all n of its sessions completed, so waiting for the slowest sibling
// delays nothing a consumer could act on.
#include <algorithm>
#include <utility>

#include "batch/codec.hpp"

namespace svss::batch {
namespace {

int attachee(const SessionId& sid) {
  return static_cast<int>(sid.counter % kMaxN);
}

// The session id of attachee j under an envelope.
SessionId sibling(const SessionId& env, int j) {
  SessionId sid = env;
  sid.variant = 0;
  sid.counter += static_cast<std::uint32_t>(j);
  return sid;
}

std::optional<Entry> group(const Shape& node, const Message& m, int to) {
  if (m.sid.path != SessionPath::kSvssCoin || m.sid.owner != node.self ||
      m.sid.variant != 0 || attachee(m.sid) >= node.n) {
    return std::nullopt;
  }
  SessionId env = sibling(m.sid, -attachee(m.sid));
  env.variant = 1;
  if (to == kBroadcast) {
    if (m.type != MsgType::kSvssGset) return std::nullopt;
    return Entry{env, MsgType::kSvssBatchGset, 0};
  }
  if (m.type != MsgType::kSvssDealerShares) return std::nullopt;
  return Entry{env, MsgType::kSvssBatchShares, 0};
}

bool pack(const Shape& node, Message& env, const Message& m) {
  if (env.type == MsgType::kSvssBatchShares) {
    // The dealing loop runs the siblings in attachee order.
    if (env.vals.empty()) {
      env.vals.reserve(static_cast<std::size_t>(node.n) * m.vals.size());
    }
    env.vals.insert(env.vals.end(), m.vals.begin(), m.vals.end());
    return true;
  }
  // G-sets complete in any order: ints keeps the attachee order until
  // seal() sorts the parts.  Sessions broadcast their set once.
  const int j = attachee(m.sid);
  if (std::find(env.ints.begin(), env.ints.end(), j) != env.ints.end()) {
    return false;
  }
  env.ints.push_back(j);
  Writer w(std::move(env.blob));
  w.int_vec(m.ints);
  w.bytes(m.blob);
  env.blob = std::move(w).take();
  return true;
}

void seal(Message& env, std::uint32_t /*seq*/) {
  std::vector<std::pair<std::vector<int>, Bytes>> parts(env.ints.size());
  Reader r(env.blob);
  for (int j : env.ints) {
    parts[static_cast<std::size_t>(j)] = {*r.int_vec(), *r.bytes()};
  }
  Writer w;
  for (const auto& [g, blob] : parts) {
    w.int_vec(g);
    w.bytes(blob);
  }
  env.blob = std::move(w).take();
  env.ints.clear();
}

bool unpack(const Shape& node, const Message& env, bool via_rb,
            SubMessages& out) {
  if (env.sid.path != SessionPath::kSvssCoin || env.sid.variant != 1 ||
      env.sid.counter % kMaxN != 0) {
    return false;
  }
  if (env.type == MsgType::kSvssBatchShares) {
    // Share envelopes travel on the private dealer -> recipient channel.
    const auto per = 2 * static_cast<std::size_t>(node.t + 1);
    if (via_rb || !env.ints.empty() || !env.blob.empty() ||
        env.vals.size() != static_cast<std::size_t>(node.n) * per) {
      return false;
    }
    for (int j = 0; j < node.n; ++j) {
      auto first =
          env.vals.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(j) * per);
      out.add(sibling(env.sid, j), MsgType::kSvssDealerShares)
          .vals.assign(first, first + static_cast<std::ptrdiff_t>(per));
    }
    return true;
  }
  // G-set envelopes arrive through RBC, exactly once, all or none.
  if (!via_rb || !env.vals.empty() || !env.ints.empty()) return false;
  Reader r(env.blob);
  for (int j = 0; j < node.n; ++j) {
    Message& sub = out.add(sibling(env.sid, j), MsgType::kSvssGset);
    if (!r.int_vec(sub.ints, static_cast<std::size_t>(node.n)) ||
        !r.bytes(sub.blob)) {
      return false;
    }
  }
  return r.exhausted();
}

}  // namespace

const Codec kCoinCodec{MsgType::kSvssDealerShares, MsgType::kSvssGset,
                       MsgType::kSvssBatchShares,  MsgType::kSvssBatchGset,
                       /*rb_slots=*/1,
                       /*when_complete=*/true,     /*lone_passthrough=*/false,
                       group, pack, seal, unpack};

}  // namespace svss::batch
