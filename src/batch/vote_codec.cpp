// Vote client.  Wire layout, in the kAba variant-4 sid space at instance 0:
//   kAbaBatchVote (direct, counter 0): ints = (instance, round, subtype,
//     value) runs covering EST (0), AUX (1) and DECIDE (3) votes.
//   kAbaBatchConf (RB, counter = flush sequence): ints = (instance, round,
//     setcode) runs.
// A Byzantine sender can spread conflicting CONF sets for one (instance,
// round) across distinct flushes, so batched CONF has plain-broadcast
// equivocation semantics.  Agreement never rests on CONF non-equivocation
// (the tier rule tolerates arbitrary CONF sets from t processes).
#include <climits>

#include "batch/codec.hpp"

namespace svss::batch {
namespace {

constexpr int kConf = 2;

// Negative rounds wrap past the bound.
bool round_ok(int round) {
  return coin_round_ok(static_cast<std::uint32_t>(round));
}

bool direct_subtype(int subtype) {
  return subtype == 0 || subtype == 1 || subtype == 3;
}

void add_vote(SubMessages& out, int instance, int round, int subtype,
              int value) {
  Message& m = out.add(SessionId{SessionPath::kAba, 0, -1, -1, -1, 0,
                                 static_cast<std::uint32_t>(instance)},
                       MsgType::kAbaVote);
  m.a = static_cast<std::int16_t>(round);
  m.b = static_cast<std::int16_t>(subtype);
  m.ints.push_back(value);
}

std::optional<Entry> group(const Shape&, const Message& m, int to) {
  // Only the canonical vote sid (aba.cpp's aba_sid) is re-framed, and
  // only instances that survive the int-typed runs.
  const SessionId canonical{SessionPath::kAba, 0, -1, -1, -1, 0,
                            m.sid.instance};
  if (m.sid != canonical || m.sid.instance > INT_MAX || m.ints.size() != 1 ||
      !m.vals.empty() || !m.blob.empty() || !round_ok(m.a)) {
    return std::nullopt;
  }
  const SessionId env{SessionPath::kAba, 4, -1, -1, -1, 0, 0};
  if (to == kBroadcast) {
    if (m.b != kConf) return std::nullopt;
    return Entry{env, MsgType::kAbaBatchConf, 0};
  }
  if (!direct_subtype(m.b)) return std::nullopt;
  return Entry{env, MsgType::kAbaBatchVote, 0};
}

bool pack(const Shape&, Message& env, const Message& m) {
  const auto instance = static_cast<int>(m.sid.instance);
  if (env.type == MsgType::kAbaBatchVote) {
    env.ints.insert(env.ints.end(), {instance, m.a, m.b, m.ints[0]});
  } else {
    env.ints.insert(env.ints.end(), {instance, m.a, m.ints[0]});
  }
  return true;
}

void seal(Message& env, std::uint32_t seq) { env.sid.counter = seq; }

bool unpack(const Shape&, const Message& env, bool via_rb,
            SubMessages& out) {
  const SessionId& sid = env.sid;
  if (sid.path != SessionPath::kAba || sid.variant != 4 || sid.owner != -1 ||
      sid.moderator != -1 || sid.svss_dealer != -1 || sid.instance != 0 ||
      !env.vals.empty() || !env.blob.empty() || env.ints.empty()) {
    return false;
  }
  const std::vector<int>& r = env.ints;
  if (env.type == MsgType::kAbaBatchVote) {
    if (via_rb || sid.counter != 0 || r.size() % 4 != 0) return false;
    for (std::size_t i = 0; i < r.size(); i += 4) {
      if (r[i] < 0 || !round_ok(r[i + 1]) || !direct_subtype(r[i + 2])) {
        return false;
      }
      add_vote(out, r[i], r[i + 1], r[i + 2], r[i + 3]);
    }
    return true;
  }
  if (!via_rb || r.size() % 3 != 0) return false;
  for (std::size_t i = 0; i < r.size(); i += 3) {
    if (r[i] < 0 || !round_ok(r[i + 1])) return false;
    add_vote(out, r[i], r[i + 1], kConf, r[i + 2]);
  }
  return true;
}

}  // namespace

const Codec kVoteCodec{MsgType::kAbaVote,       MsgType::kAbaVote,
                       MsgType::kAbaBatchVote,  MsgType::kAbaBatchConf,
                       /*rb_slots=*/1,
                       /*when_complete=*/false, /*lone_passthrough=*/true,
                       group, pack, seal, unpack};

}  // namespace svss::batch
