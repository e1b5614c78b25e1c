// Unit tests for the crash-recovery layer (core/recovery.hpp) and the
// epoch fence (core/epoch.hpp): checkpoint atomicity + round-trip, journal
// torn-tail tolerance, the catch-up codec, EpochConfig rank math, and
// EpochTransport's stamp/fence/buffer behaviour over a fake inner
// transport.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/epoch.hpp"
#include "core/recovery.hpp"

namespace svss {
namespace {

std::string tmp_path(const std::string& name) {
  std::string p = ::testing::TempDir() + name;
  std::remove(p.c_str());
  return p;
}

std::vector<DecisionRecord> sample_records() {
  return {{0, 0, 1, 2}, {0, 1, 0, 3}, {1, 7, 1, 1}};
}

EpochConfig sample_config(std::uint32_t epoch) {
  EpochConfig cfg;
  cfg.epoch = epoch;
  cfg.members = {0, 1, 2, 4};
  cfg.t = 1;
  return cfg;
}

TEST(EpochConfig, RankMathAndCodec) {
  EpochConfig cfg = sample_config(3);
  EXPECT_EQ(cfg.n(), 4);
  EXPECT_TRUE(cfg.contains(4));
  EXPECT_FALSE(cfg.contains(3));
  EXPECT_EQ(cfg.rank_of(0), 0);
  EXPECT_EQ(cfg.rank_of(4), 3);
  EXPECT_EQ(cfg.rank_of(3), -1);
  EXPECT_EQ(cfg.global_of(3), 4);

  Writer w;
  cfg.serialize(w);
  Bytes raw = std::move(w).take();
  Reader r(raw);
  auto back = EpochConfig::deserialize(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, cfg);
  EXPECT_TRUE(r.exhausted());

  // Unsorted member lists do not deserialize (rank math relies on order).
  Writer bad;
  bad.u32(1);
  bad.i32(1);
  bad.int_vec({2, 1});
  Bytes bad_raw = std::move(bad).take();
  Reader br(bad_raw);
  EXPECT_FALSE(EpochConfig::deserialize(br).has_value());
}

TEST(EpochSeed, DeterministicAndEpochSeparated) {
  EXPECT_EQ(epoch_seed(42, 0), epoch_seed(42, 0));
  EXPECT_NE(epoch_seed(42, 0), epoch_seed(42, 1));
  EXPECT_NE(epoch_seed(42, 0), epoch_seed(43, 0));
}

TEST(Checkpoint, RoundTripAndAtomicity) {
  std::string path = tmp_path("svss_ckpt");
  EXPECT_FALSE(load_checkpoint(path).has_value());

  CheckpointData data;
  data.epoch = 1;
  data.config = sample_config(1);
  data.seed = 99;
  data.decisions = sample_records();
  ASSERT_TRUE(save_checkpoint(path, data));

  auto back = load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 1u);
  EXPECT_EQ(back->config, data.config);
  EXPECT_EQ(back->seed, 99u);
  EXPECT_EQ(back->decisions, data.decisions);

  // tmp+rename: no temporary survives a successful save.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  // A truncated checkpoint is rejected, never half-loaded.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  std::FILE* out = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(::ftruncate(fileno(out), size - 3), 0);
  std::fclose(out);
  EXPECT_FALSE(load_checkpoint(path).has_value());
}

TEST(Journal, AppendReplayAndTornTail) {
  std::string path = tmp_path("svss_journal");
  {
    DecisionJournal j;
    ASSERT_TRUE(j.open(path));
    for (const DecisionRecord& r : sample_records()) {
      ASSERT_TRUE(j.append(r));
    }
  }
  EXPECT_EQ(DecisionJournal::replay(path), sample_records());

  // Crash mid-append: a torn final entry is ignored, the prefix survives.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::uint8_t torn[7] = {16, 0, 0, 0, 0xAB, 0xCD, 0xEF};  // len 16, 3 bytes
  ASSERT_EQ(std::fwrite(torn, 1, sizeof torn, f), sizeof torn);
  std::fclose(f);
  EXPECT_EQ(DecisionJournal::replay(path), sample_records());

  // reset() truncates (post-checkpoint the journal restarts empty).
  DecisionJournal j;
  ASSERT_TRUE(j.open(path));
  ASSERT_TRUE(j.reset());
  EXPECT_TRUE(DecisionJournal::replay(path).empty());
  DecisionRecord one{2, 5, 1, 4};
  ASSERT_TRUE(j.append(one));
  EXPECT_EQ(DecisionJournal::replay(path), std::vector<DecisionRecord>{one});
}

TEST(CatchupCodec, RoundTripAndRejects) {
  Bytes blob = encode_catchup_state(2, sample_config(2), sample_records());
  auto st = decode_catchup_state(blob);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->current_epoch, 2u);
  EXPECT_EQ(st->config, sample_config(2));
  EXPECT_EQ(st->decisions, sample_records());

  Bytes cut(blob.begin(), blob.end() - 2);
  EXPECT_FALSE(decode_catchup_state(cut).has_value());
  Bytes padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(decode_catchup_state(padded).has_value());
}

// A peer's blob whose record count claims far more records than it holds
// is rejected, and the decoder reserves only what the bytes left can hold
// (before the bound, this 36-byte blob made it allocate 16 MiB).
TEST(CatchupCodec, ForgedRecordCountRejected) {
  Bytes blob = encode_catchup_state(2, sample_config(2), {});
  ASSERT_EQ(blob.size(), 36u);
  // The trailing u32 is the record count: claim 2^20 records.
  blob[32] = 0x00;
  blob[33] = 0x00;
  blob[34] = 0x10;
  blob[35] = 0x00;
  EXPECT_FALSE(decode_catchup_state(blob).has_value());
  // The same forged count with one genuine record behind it.
  Bytes one = encode_catchup_state(2, sample_config(2), {{1, 2, 3, 4}});
  one[32] = 0x00;
  one[33] = 0x00;
  one[34] = 0x10;
  one[35] = 0x00;
  EXPECT_FALSE(decode_catchup_state(one).has_value());
}

// ----------------------------------------------------------------------
// Golden bytes: checkpoint files and journals outlive the binary that
// wrote them, and catch-up blobs cross the wire, so their layouts must
// never move.  The hex below was recorded from the codecs as they stood
// when the cases were added; a file written then must still load.
// ----------------------------------------------------------------------

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t x : b) {
    s.push_back(kDigits[x >> 4]);
    s.push_back(kDigits[x & 0xF]);
  }
  return s;
}

Bytes unhex(const std::string& s) {
  Bytes b;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    b.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return b;
}

Bytes read_file(const std::string& path) {
  Bytes b;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return b;
  int c;
  while ((c = std::fgetc(f)) != EOF) b.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  return b;
}

void write_file(const std::string& path, const Bytes& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
}

// Every field non-default, negative values included.
std::vector<DecisionRecord> golden_records() {
  return {{1, 2, 1, 3}, {4, 0x01020304, -1, 7}};
}

constexpr const char* kGoldenCheckpoint =
    "5356434b01000000050000000500000001000000040000000000000001000000020000"
    "000400000008070605040302010200000001000000020000000100000003000000040000"
    "0004030201ffffffff07000000";
constexpr const char* kGoldenCatchup =
    "060000000500000001000000040000000000000001000000020000000400000002000000"
    "010000000200000001000000030000000400000004030201ffffffff07000000";
constexpr const char* kGoldenJournal = "100000000400000004030201ffffffff07000000";

TEST(RecoveryGolden, CheckpointFileBytes) {
  CheckpointData data;
  data.epoch = 5;
  data.config = sample_config(5);
  data.seed = 0x0102030405060708ULL;
  data.decisions = golden_records();
  std::string path = tmp_path("svss_golden_ckpt");
  ASSERT_TRUE(save_checkpoint(path, data));
  EXPECT_EQ(hex(read_file(path)), kGoldenCheckpoint);

  write_file(path, unhex(kGoldenCheckpoint));
  auto back = load_checkpoint(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, data.epoch);
  EXPECT_EQ(back->config, data.config);
  EXPECT_EQ(back->seed, data.seed);
  EXPECT_EQ(back->decisions, data.decisions);
}

TEST(RecoveryGolden, CatchupBlobBytes) {
  Bytes blob = encode_catchup_state(6, sample_config(5), golden_records());
  EXPECT_EQ(hex(blob), kGoldenCatchup);

  auto st = decode_catchup_state(unhex(kGoldenCatchup));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->current_epoch, 6u);
  EXPECT_EQ(st->config, sample_config(5));
  EXPECT_EQ(st->decisions, golden_records());
}

TEST(RecoveryGolden, JournalEntryBytes) {
  const DecisionRecord rec = golden_records()[1];
  std::string path = tmp_path("svss_golden_journal");
  {
    DecisionJournal j;
    ASSERT_TRUE(j.open(path));
    ASSERT_TRUE(j.append(rec));
  }
  EXPECT_EQ(hex(read_file(path)), kGoldenJournal);

  write_file(path, unhex(kGoldenJournal));
  EXPECT_EQ(DecisionJournal::replay(path), std::vector<DecisionRecord>{rec});
}

// ----------------------------------------------------------------------
// EpochTransport over a fake inner transport
// ----------------------------------------------------------------------

// Records sends; delivers on demand.  Lives in global slot space.
class FakeTransport final : public ITransport {
 public:
  FakeTransport(int self, int n) : self_(self), n_(n) {}

  void send(int to, Packet p) override { sent.emplace_back(to, std::move(p)); }
  void broadcast(const Packet& p) override {
    for (int i = 0; i < n_; ++i) sent.emplace_back(i, p);
  }
  void set_delivery(Delivery sink) override { sink_ = std::move(sink); }
  void set_send_hook(SendHook hook) override { hook_ = std::move(hook); }
  [[nodiscard]] int self() const override { return self_; }
  [[nodiscard]] int n() const override { return n_; }

  void deliver(int from, Packet p) { sink_(from, std::move(p)); }

  std::vector<std::pair<int, Packet>> sent;

 private:
  int self_;
  int n_;
  Delivery sink_;
  SendHook hook_;
};

Packet app_packet(std::uint32_t epoch, std::uint32_t counter) {
  Message m;
  m.sid = SessionId{SessionPath::kTest, 0, -1, -1, -1, counter};
  m.sid.epoch = epoch;
  m.type = MsgType::kTestPayload;
  return make_direct(std::move(m));
}

TEST(EpochTransport, StampsOutboundAndTranslatesRanks) {
  FakeTransport inner(4, 5);  // global slot 4 of a 5-slot universe
  EpochConfig cfg = sample_config(3);  // members {0,1,2,4}; slot 4 = rank 3
  EpochTransport port(inner, cfg);
  ASSERT_TRUE(port.is_member());
  EXPECT_EQ(port.self(), 3);
  EXPECT_EQ(port.n(), 4);

  port.send(1, app_packet(0, 7));  // rank 1 == global 1
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(inner.sent[0].first, 1);
  EXPECT_EQ(inner.sent[0].second.app.sid.epoch, 3u);

  inner.sent.clear();
  port.broadcast(app_packet(0, 8));
  ASSERT_EQ(inner.sent.size(), 4u);  // members only, global ids
  EXPECT_EQ(inner.sent[3].first, 4);
  for (const auto& [to, p] : inner.sent) EXPECT_EQ(p.app.sid.epoch, 3u);
}

TEST(EpochTransport, FencesStaleAndForeignDeliversCurrent) {
  FakeTransport inner(0, 5);
  EpochTransport port(inner, sample_config(3));
  std::vector<std::pair<int, Packet>> got;
  port.set_delivery([&](int from, Packet p) {
    got.emplace_back(from, std::move(p));
  });

  inner.deliver(1, app_packet(3, 1));  // current epoch, member sender
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1);  // rank of global 1
  EXPECT_EQ(got[0].second.app.sid.epoch, 0u) << "stamp must be zeroed";
  EXPECT_EQ(got[0].second.app.sid.counter, 1u);

  inner.deliver(1, app_packet(2, 2));  // stale epoch
  inner.deliver(3, app_packet(3, 3));  // non-member sender
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(port.fenced_stale(), 1u);
  EXPECT_EQ(port.fenced_foreign(), 1u);
}

TEST(EpochTransport, BuffersFutureEpochAndReplaysOnInstall) {
  FakeTransport inner(0, 5);
  EpochTransport port(inner, sample_config(3));
  std::vector<Packet> got;
  port.set_delivery([&](int, Packet p) { got.push_back(std::move(p)); });

  inner.deliver(1, app_packet(4, 11));  // a peer already past the boundary
  inner.deliver(2, app_packet(4, 12));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(port.buffered_future(), 2u);

  EpochConfig next = sample_config(4);
  port.install(next);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].app.sid.counter, 11u);
  EXPECT_EQ(got[1].app.sid.counter, 12u);
  EXPECT_EQ(port.buffered_future(), 0u);
}

TEST(EpochTransport, ParksCurrentEpochTrafficWhileNoSinkAttached) {
  FakeTransport inner(0, 5);
  EpochTransport port(inner, sample_config(3));

  inner.deliver(1, app_packet(3, 21));  // boundary window: no Node yet
  EXPECT_EQ(port.buffered_future(), 1u);

  std::vector<Packet> got;
  port.set_delivery([&](int, Packet p) { got.push_back(std::move(p)); });
  port.flush_buffered();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].app.sid.counter, 21u);
}

TEST(EpochTransport, RoutesCatchupToControlAcrossEpochs) {
  FakeTransport inner(0, 5);
  EpochTransport port(inner, sample_config(3));
  std::vector<Packet> app_got;
  port.set_delivery([&](int, Packet p) { app_got.push_back(std::move(p)); });
  std::vector<std::pair<int, Message>> ctl;
  port.set_control([&](int from, const Message& m) {
    ctl.emplace_back(from, m);
  });

  Packet req = app_packet(0, 1);  // epoch 0 sid: would be fenced as stale
  req.app.type = MsgType::kEpochCatchupReq;
  inner.deliver(3, req);  // even from a non-member (the rejoiner)
  EXPECT_TRUE(app_got.empty());
  ASSERT_EQ(ctl.size(), 1u);
  EXPECT_EQ(ctl[0].first, 3) << "control plane keeps global sender ids";
  EXPECT_EQ(ctl[0].second.type, MsgType::kEpochCatchupReq);
  EXPECT_EQ(port.fenced_stale(), 0u);
}

TEST(EpochTransport, SpectatorDeliversNothingButBuffersFuture) {
  FakeTransport inner(3, 5);  // slot 3 is not a member of sample_config
  EpochTransport port(inner, sample_config(3));
  EXPECT_FALSE(port.is_member());
  EXPECT_EQ(port.self(), -1);

  std::vector<Packet> got;
  port.set_delivery([&](int, Packet p) { got.push_back(std::move(p)); });
  inner.deliver(1, app_packet(3, 1));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(port.fenced_foreign(), 1u);

  inner.deliver(1, app_packet(4, 2));  // future epoch buffers even here
  EXPECT_EQ(port.buffered_future(), 1u);

  // Joining at the boundary: install a config that includes slot 3.
  EpochConfig next;
  next.epoch = 4;
  next.members = {1, 2, 3, 4};
  next.t = 1;
  port.install(next);
  EXPECT_TRUE(port.is_member());
  EXPECT_EQ(port.self(), 2);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].app.sid.counter, 2u);
}

}  // namespace
}  // namespace svss
