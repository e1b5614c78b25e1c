#include "sim/message.hpp"

#include <sstream>

namespace svss {

std::string SessionId::str() const {
  std::ostringstream os;
  static constexpr const char* kPathNames[] = {
      "mw", "mw/svss", "mw/svss/coin", "svss", "svss/coin", "coin", "aba",
      "test"};
  os << kPathNames[static_cast<int>(path)] << "(c=" << counter
     << ",d=" << owner;
  if (instance != 0) os << ",i=" << instance;
  if (epoch != 0) os << ",e=" << epoch;
  if (moderator >= 0) os << ",m=" << moderator;
  if (svss_dealer >= 0) os << ",sd=" << svss_dealer << ",v=" << int(variant);
  os << ")";
  return os.str();
}

std::optional<SessionId> parent_session(const SessionId& sid) {
  // Nesting never crosses instances: a child session's parent carries the
  // same instance id.
  switch (sid.path) {
    case SessionPath::kMwInSvssTop:
      return SessionId{SessionPath::kSvssTop, 0, sid.svss_dealer, -1, -1,
                       sid.counter, sid.instance, sid.epoch};
    case SessionPath::kMwInSvssCoin:
      return SessionId{SessionPath::kSvssCoin, 0, sid.svss_dealer, -1, -1,
                       sid.counter, sid.instance, sid.epoch};
    case SessionPath::kSvssCoin:
      return SessionId{SessionPath::kCoin, 0, -1, -1, -1,
                       sid.counter / kMaxN, sid.instance, sid.epoch};
    default:
      return std::nullopt;
  }
}

void write_sid(Writer& w, const SessionId& s) {
  w.u8(static_cast<std::uint8_t>(s.path));
  w.u8(s.variant);
  w.i32(s.owner);
  w.i32(s.moderator);
  w.i32(s.svss_dealer);
  w.u32(s.counter);
  w.u32(s.instance);
  w.u32(s.epoch);
}

std::optional<SessionId> read_sid(Reader& r) {
  auto path = r.u8();
  auto variant = r.u8();
  auto owner = r.i32();
  auto moderator = r.i32();
  auto svss_dealer = r.i32();
  auto counter = r.u32();
  auto instance = r.u32();
  auto epoch = r.u32();
  if (!path || !variant || !owner || !moderator || !svss_dealer || !counter ||
      !instance || !epoch) {
    return std::nullopt;
  }
  if (*path > static_cast<std::uint8_t>(SessionPath::kTest)) return std::nullopt;
  SessionId s;
  s.path = static_cast<SessionPath>(*path);
  s.variant = *variant;
  s.owner = static_cast<std::int16_t>(*owner);
  s.moderator = static_cast<std::int16_t>(*moderator);
  s.svss_dealer = static_cast<std::int16_t>(*svss_dealer);
  s.counter = *counter;
  s.instance = *instance;
  s.epoch = *epoch;
  return s;
}

Bytes Message::serialize() const {
  Writer w;
  w.reserve(serialized_size());
  write_sid(w, sid);
  w.u8(static_cast<std::uint8_t>(type));
  w.i32(a);
  w.i32(b);
  w.field_vec(vals);
  w.int_vec(ints);
  w.bytes(blob);
  return std::move(w).take();
}

bool Message::parse(const Bytes& raw) {
  Reader r(raw);
  auto s = read_sid(r);
  auto t = r.u8();
  auto x = r.i32();
  auto y = r.i32();
  if (!s || !t || !x || !y || !r.field_vec(vals) || !r.int_vec(ints) ||
      !r.bytes(blob) || !r.exhausted()) {
    return false;
  }
  sid = *s;
  type = static_cast<MsgType>(*t);
  a = static_cast<std::int16_t>(*x);
  b = static_cast<std::int16_t>(*y);
  return true;
}

std::optional<Message> Message::deserialize(const Bytes& raw) {
  Message m;
  if (!m.parse(raw)) return std::nullopt;
  return m;
}

std::size_t Message::serialized_size() const {
  // sid (26) + type (1) + a (4) + b (4) + three length-prefixed payloads.
  return 26 + 1 + 4 + 4 + (4 + 4 * vals.size()) + (4 + 4 * ints.size()) +
         (4 + blob.size());
}

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kMwDealerShares: return "mw-dealer-shares";
    case MsgType::kMwDealerPoly: return "mw-dealer-poly";
    case MsgType::kMwDealerWhole: return "mw-dealer-whole";
    case MsgType::kMwEchoVal: return "mw-echo-val";
    case MsgType::kMwMonitorVal: return "mw-monitor-val";
    case MsgType::kMwAck: return "mw-ack";
    case MsgType::kMwLset: return "mw-lset";
    case MsgType::kMwMset: return "mw-mset";
    case MsgType::kMwOk: return "mw-ok";
    case MsgType::kMwReconVal: return "mw-recon-val";
    case MsgType::kMwBatchDirect: return "mw-batch-direct";
    case MsgType::kMwBatchAck: return "mw-batch-ack";
    case MsgType::kMwBatchLset: return "mw-batch-lset";
    case MsgType::kMwBatchMset: return "mw-batch-mset";
    case MsgType::kMwBatchOk: return "mw-batch-ok";
    case MsgType::kMwBatchReconVal: return "mw-batch-recon-val";
    case MsgType::kSvssDealerShares: return "svss-dealer-shares";
    case MsgType::kSvssGset: return "svss-gset";
    case MsgType::kSvssBatchShares: return "svss-batch-shares";
    case MsgType::kSvssBatchGset: return "svss-batch-gset";
    case MsgType::kCoinGset: return "coin-gset";
    case MsgType::kCoinStartRecon: return "coin-start-recon";
    case MsgType::kAbaVote: return "aba-vote";
    case MsgType::kAbaBatchVote: return "aba-batch-vote";
    case MsgType::kAbaBatchConf: return "aba-batch-conf";
    case MsgType::kAcsProposal: return "acs-proposal";
    case MsgType::kSumPoint: return "sum-point";
    case MsgType::kEpochCatchupReq: return "epoch-catchup-req";
    case MsgType::kEpochCatchupState: return "epoch-catchup-state";
    case MsgType::kTestPayload: return "test-payload";
  }
  return "unknown";
}

const Bytes& Packet::rb_payload() const {
  static const Bytes kEmpty;
  return value ? *value : kEmpty;
}

std::size_t Packet::wire_size() const {
  // Envelope overhead (routing headers) + payload bytes.  The direct-path
  // payload size is computed arithmetically: serializing just to count
  // bytes used to dominate the per-enqueue cost.
  constexpr std::size_t kEnvelope = 8;
  if (is_rb) {
    return kEnvelope + 16 /* bid */ + 1 /* phase */ + rb_payload().size();
  }
  return kEnvelope + app.serialized_size();
}

Packet make_direct(Message m) {
  Packet p;
  p.is_rb = false;
  p.app = std::move(m);
  return p;
}

Packet make_rb(BcastId bid, RbPhase phase, Bytes value) {
  return make_rb(bid, phase,
                 std::make_shared<const Bytes>(std::move(value)));
}

Packet make_rb(BcastId bid, RbPhase phase,
               std::shared_ptr<const Bytes> value) {
  Packet p;
  p.is_rb = true;
  p.bid = bid;
  p.phase = phase;
  p.value = std::move(value);
  return p;
}

namespace {
inline std::size_t mix(std::size_t h, std::size_t v) {
  return h * 0x100000001B3ULL ^ v;
}
}  // namespace

std::size_t SessionIdHash::operator()(const SessionId& s) const {
  std::size_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::size_t>(s.path));
  h = mix(h, s.variant);
  h = mix(h, static_cast<std::size_t>(s.owner + 1));
  h = mix(h, static_cast<std::size_t>(s.moderator + 1));
  h = mix(h, static_cast<std::size_t>(s.svss_dealer + 1));
  h = mix(h, s.counter);
  h = mix(h, s.instance);
  h = mix(h, s.epoch);
  return h;
}

std::size_t BcastIdHash::operator()(const BcastId& b) const {
  std::size_t h = SessionIdHash{}(b.sid);
  h = mix(h, static_cast<std::size_t>(b.origin + 1));
  h = mix(h, static_cast<std::size_t>(b.slot));
  h = mix(h, static_cast<std::size_t>(b.a + 1));
  return h;
}

}  // namespace svss
