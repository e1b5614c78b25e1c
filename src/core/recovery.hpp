// Crash recovery for a single daemon: checkpoint + journal + catch-up.
//
// A daemon's durable state is tiny — the epoch it is in and the decisions
// it has emitted — because the agreement protocol itself is memoryless
// across instances: an undecided instance is re-learned from peers (the
// catch-up handshake), never replayed locally.  Persistence is two files:
//
//   * checkpoint: the full state, written atomically (tmp + fsync +
//     rename) at a configurable decision cadence.  A reader either sees
//     the old checkpoint or the new one, never a torn one.
//   * journal: an append-only log of decisions since the last checkpoint
//     ([u32 len][record] entries, fsync'd per append).  A crash can tear
//     the final entry; replay stops at the first short or malformed entry
//     and keeps everything before it — exactly the EventLog-as-journal
//     discipline, applied to the one event class that must survive.
//
// On restart, state = checkpoint ∪ journal.  What neither can hold —
// decisions made by the fleet while this daemon was dead — comes from the
// catch-up handshake (kEpochCatchupReq/State, core/epoch.hpp control
// plane): the rejoiner broadcasts what it knows, peers answer with their
// decision records and current epoch, and the rejoiner adopts a decision
// once t+1 peers report the same value for the same (epoch, instance) —
// one honest witness among any t+1 reporters.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/serialization.hpp"
#include "core/epoch.hpp"

namespace svss {

struct DecisionRecord {
  std::uint32_t epoch = 0;
  std::uint32_t instance = 0;
  std::int32_t value = 0;
  std::uint32_t round = 0;

  friend bool operator==(const DecisionRecord&,
                         const DecisionRecord&) = default;
};

struct CheckpointData {
  std::uint32_t epoch = 0;  // epoch the daemon was in when it checkpointed
  EpochConfig config;       // that epoch's membership
  std::uint64_t seed = 0;   // service seed (sanity-checked on recovery)
  std::vector<DecisionRecord> decisions;
};

// Atomic checkpoint write: serialize to `path`.tmp, fsync, rename over
// `path`.  Returns false (leaving any previous checkpoint intact) on any
// I/O failure.
bool save_checkpoint(const std::string& path, const CheckpointData& data);
// Returns nullopt if the file is absent, truncated, or malformed.
std::optional<CheckpointData> load_checkpoint(const std::string& path);

// Append-only decision journal between checkpoints.
class DecisionJournal {
 public:
  DecisionJournal() = default;
  ~DecisionJournal();
  DecisionJournal(const DecisionJournal&) = delete;
  DecisionJournal& operator=(const DecisionJournal&) = delete;

  // Opens `path` for appending (creating it if needed).
  bool open(const std::string& path);
  // Appends one record and flushes it to disk before returning.
  bool append(const DecisionRecord& r);
  // Truncates the journal (call right after a successful checkpoint — the
  // checkpoint now covers everything the journal held).
  bool reset();
  void close();

  // Replays a journal file: every complete, well-formed entry in order.  A
  // torn tail (crash mid-append) is expected and silently ignored.
  static std::vector<DecisionRecord> replay(const std::string& path);

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
};

// Catch-up handshake payloads.  The request's known decisions travel as
// Message::ints pairs [epoch, instance, epoch, instance, ...]; the reply
// blob is this codec: the responder's current epoch, its config, and its
// decision records.
Bytes encode_catchup_state(std::uint32_t current_epoch,
                           const EpochConfig& config,
                           const std::vector<DecisionRecord>& decisions);
struct CatchupState {
  std::uint32_t current_epoch = 0;
  EpochConfig config;
  std::vector<DecisionRecord> decisions;
};
std::optional<CatchupState> decode_catchup_state(const Bytes& blob);

}  // namespace svss
