#include "core/recovery.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace svss {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4B435653u;  // "SVCK"
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::size_t kMaxRecords = 1 << 20;
constexpr std::size_t kRecordBytes = 16;  // four u32 fields

void write_record(Writer& w, const DecisionRecord& r) {
  w.u32(r.epoch);
  w.u32(r.instance);
  w.i32(r.value);
  w.u32(r.round);
}

std::optional<DecisionRecord> read_record(Reader& r) {
  auto epoch = r.u32();
  auto instance = r.u32();
  auto value = r.i32();
  auto round = r.u32();
  if (!epoch || !instance || !value || !round) return std::nullopt;
  DecisionRecord rec;
  rec.epoch = *epoch;
  rec.instance = *instance;
  rec.value = *value;
  rec.round = *round;
  return rec;
}

// The decision-record list of checkpoints and catch-up blobs: a u32 count,
// then the records.  read_records rejects a count past kMaxRecords and a
// short record, and reserves no more records than the bytes left can hold,
// so a forged count cannot make it allocate.
void write_records(Writer& w, const std::vector<DecisionRecord>& records) {
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const DecisionRecord& r : records) write_record(w, r);
}

std::optional<std::vector<DecisionRecord>> read_records(Reader& r) {
  auto count = r.u32();
  if (!count || *count > kMaxRecords) return std::nullopt;
  std::vector<DecisionRecord> out;
  out.reserve(std::min<std::size_t>(*count, r.remaining() / kRecordBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto rec = read_record(r);
    if (!rec) return std::nullopt;
    out.push_back(*rec);
  }
  return out;
}

bool write_all_and_sync(const std::string& path, const Bytes& payload) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = payload.empty() ||
            std::fwrite(payload.data(), 1, payload.size(), f) ==
                payload.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

std::optional<Bytes> read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  Bytes buf;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + got);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return buf;
}

}  // namespace

// ----------------------------------------------------------------------
// Checkpoint
// ----------------------------------------------------------------------

bool save_checkpoint(const std::string& path, const CheckpointData& data) {
  Writer w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u32(data.epoch);
  data.config.serialize(w);
  w.u64(data.seed);
  write_records(w, data.decisions);

  const std::string tmp = path + ".tmp";
  if (!write_all_and_sync(tmp, w.data())) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CheckpointData> load_checkpoint(const std::string& path) {
  auto buf = read_whole_file(path);
  if (!buf) return std::nullopt;
  Reader r(*buf);
  auto magic = r.u32();
  auto version = r.u32();
  if (!magic || *magic != kCheckpointMagic || !version ||
      *version != kCheckpointVersion) {
    return std::nullopt;
  }
  auto epoch = r.u32();
  auto config = EpochConfig::deserialize(r);
  auto seed = r.u64();
  if (!epoch || !config || !seed) return std::nullopt;
  auto decisions = read_records(r);
  if (!decisions || !r.exhausted()) return std::nullopt;
  return CheckpointData{*epoch, std::move(*config), *seed,
                        std::move(*decisions)};
}

// ----------------------------------------------------------------------
// Journal
// ----------------------------------------------------------------------

DecisionJournal::~DecisionJournal() { close(); }

bool DecisionJournal::open(const std::string& path) {
  close();
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) return false;
  path_ = path;
  return true;
}

bool DecisionJournal::append(const DecisionRecord& r) {
  if (f_ == nullptr) return false;
  Writer w;
  write_record(w, r);
  const Bytes& payload = w.data();
  std::uint8_t len[4];
  for (int i = 0; i < 4; ++i) {
    len[i] = static_cast<std::uint8_t>(payload.size() >> (8 * i));
  }
  bool ok = std::fwrite(len, 1, 4, f_) == 4 &&
            std::fwrite(payload.data(), 1, payload.size(), f_) ==
                payload.size();
  ok = ok && std::fflush(f_) == 0;
  ok = ok && ::fsync(fileno(f_)) == 0;
  return ok;
}

bool DecisionJournal::reset() {
  if (f_ == nullptr) return false;
  std::fclose(f_);
  f_ = std::fopen(path_.c_str(), "wb");  // truncate
  if (f_ == nullptr) return false;
  std::fclose(f_);
  f_ = std::fopen(path_.c_str(), "ab");
  return f_ != nullptr;
}

void DecisionJournal::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

std::vector<DecisionRecord> DecisionJournal::replay(const std::string& path) {
  std::vector<DecisionRecord> out;
  auto buf = read_whole_file(path);
  if (!buf) return out;
  std::size_t pos = 0;
  while (pos + 4 <= buf->size()) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>((*buf)[pos + static_cast<std::size_t>(
                                                        i)])
             << (8 * i);
    }
    if (len == 0 || len > 64 || pos + 4 + len > buf->size()) break;  // torn
    Bytes entry(buf->begin() + static_cast<std::ptrdiff_t>(pos + 4),
                buf->begin() + static_cast<std::ptrdiff_t>(pos + 4 + len));
    Reader r(entry);
    auto rec = read_record(r);
    if (!rec || !r.exhausted()) break;
    out.push_back(*rec);
    pos += 4 + len;
  }
  return out;
}

// ----------------------------------------------------------------------
// Catch-up codec
// ----------------------------------------------------------------------

Bytes encode_catchup_state(std::uint32_t current_epoch,
                           const EpochConfig& config,
                           const std::vector<DecisionRecord>& decisions) {
  Writer w;
  w.u32(current_epoch);
  config.serialize(w);
  write_records(w, decisions);
  return std::move(w).take();
}

std::optional<CatchupState> decode_catchup_state(const Bytes& blob) {
  Reader r(blob);
  auto epoch = r.u32();
  auto config = EpochConfig::deserialize(r);
  if (!epoch || !config) return std::nullopt;
  auto decisions = read_records(r);
  if (!decisions || !r.exhausted()) return std::nullopt;
  return CatchupState{*epoch, std::move(*config), std::move(*decisions)};
}

}  // namespace svss
