// Wire formats for transaction-log RPCs (internal Raft traffic and the
// client-facing service API). Shared by RaftReplica and TxLogClient.

#ifndef MEMDB_TXLOG_WIRE_H_
#define MEMDB_TXLOG_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "sim/types.h"
#include "txlog/record.h"

namespace memdb::txlog::wire {

// Message type strings.
inline constexpr char kVoteReq[] = "raft.vote";
inline constexpr char kAppendEntriesReq[] = "raft.append_entries";
inline constexpr char kClientAppend[] = "txlog.append";
inline constexpr char kClientRead[] = "txlog.read";
inline constexpr char kClientTail[] = "txlog.tail";
inline constexpr char kClientTrim[] = "txlog.trim";

// Outcome of a client-facing operation.
enum class ClientResult : uint8_t {
  kOk = 0,
  kConditionFailed = 1,  // precondition index was stale
  kNotLeader = 2,        // retry at leader_hint
  kUnavailable = 3,      // election in progress / barrier pending
};

struct VoteRequest {
  uint64_t term = 0;
  sim::NodeId candidate = sim::kInvalidNode;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, candidate);
    PutVarint64(&out, last_log_index);
    PutVarint64(&out, last_log_term);
    return out;
  }
  static bool Decode(Slice data, VoteRequest* out) {
    Decoder dec(data);
    uint64_t cand;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&cand) ||
        !dec.GetVarint64(&out->last_log_index) ||
        !dec.GetVarint64(&out->last_log_term)) {
      return false;
    }
    out->candidate = static_cast<sim::NodeId>(cand);
    return true;
  }
};

struct VoteResponse {
  uint64_t term = 0;
  bool granted = false;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, granted ? 1 : 0);
    return out;
  }
  static bool Decode(Slice data, VoteResponse* out) {
    Decoder dec(data);
    uint64_t g;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&g)) return false;
    out->granted = g != 0;
    return true;
  }
};

struct AppendEntriesRequest {
  uint64_t term = 0;
  sim::NodeId leader = sim::kInvalidNode;
  uint64_t prev_index = 0;
  uint64_t prev_term = 0;
  uint64_t commit_index = 0;
  std::vector<LogEntry> entries;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, leader);
    PutVarint64(&out, prev_index);
    PutVarint64(&out, prev_term);
    PutVarint64(&out, commit_index);
    PutVarint64(&out, entries.size());
    for (const LogEntry& e : entries) e.EncodeTo(&out);
    return out;
  }
  static bool Decode(Slice data, AppendEntriesRequest* out) {
    Decoder dec(data);
    uint64_t leader, count;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&leader) ||
        !dec.GetVarint64(&out->prev_index) ||
        !dec.GetVarint64(&out->prev_term) ||
        !dec.GetVarint64(&out->commit_index) || !dec.GetVarint64(&count)) {
      return false;
    }
    out->leader = static_cast<sim::NodeId>(leader);
    // Every entry takes at least one byte: a larger count is malformed, and
    // must not reach resize().
    if (count > dec.Remaining()) return false;
    out->entries.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (!LogEntry::DecodeFrom(&dec, &out->entries[i])) return false;
    }
    return true;
  }
};

struct AppendEntriesResponse {
  uint64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, term);
    PutVarint64(&out, success ? 1 : 0);
    PutVarint64(&out, match_index);
    return out;
  }
  static bool Decode(Slice data, AppendEntriesResponse* out) {
    Decoder dec(data);
    uint64_t s;
    if (!dec.GetVarint64(&out->term) || !dec.GetVarint64(&s) ||
        !dec.GetVarint64(&out->match_index)) {
      return false;
    }
    out->success = s != 0;
    return true;
  }
};

// Conditional append. prev_index == kUnconditional skips the CAS check.
inline constexpr uint64_t kUnconditional = ~0ULL;

// Records one append request may carry. A decode bound (a hostile frame of
// minimal records must not expand into millions of objects) that also caps
// a writer's batch.
inline constexpr size_t kMaxAppendRecords = 4096;

// A batch of 1..N records, appended at contiguous indexes under one
// precondition. Wire form: prev_index, then the records back to back (each
// one self-delimiting), so a one-record request encodes byte for byte as
// the single-record format did.
struct ClientAppendRequest {
  uint64_t prev_index = kUnconditional;
  std::vector<LogRecord> records;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, prev_index);
    for (const LogRecord& r : records) r.EncodeTo(&out);
    return out;
  }
  static bool Decode(Slice data, ClientAppendRequest* out) {
    Decoder dec(data);
    out->records.clear();
    if (!dec.GetVarint64(&out->prev_index)) return false;
    do {
      if (out->records.size() >= kMaxAppendRecords) return false;
      out->records.emplace_back();
      if (!LogRecord::DecodeFrom(&dec, &out->records.back())) return false;
    } while (!dec.Empty());
    return true;
  }
};

struct ClientAppendResponse {
  ClientResult result = ClientResult::kUnavailable;
  // kOk: index of the request's first record; kConditionFailed: the tail.
  uint64_t index = 0;
  sim::NodeId leader_hint = sim::kInvalidNode;
  // kOk: records committed at index, index + 1, ... — the whole request, or
  // on a retry of a batch that a new leader holds only in part, the prefix
  // it holds (the rest determinately did not append).
  uint64_t count = 1;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, static_cast<uint64_t>(result));
    PutVarint64(&out, index);
    PutVarint64(&out, leader_hint);
    PutVarint64(&out, count);
    return out;
  }
  static bool Decode(Slice data, ClientAppendResponse* out) {
    Decoder dec(data);
    uint64_t r, hint;
    if (!dec.GetVarint64(&r) || !dec.GetVarint64(&out->index) ||
        !dec.GetVarint64(&hint) || !dec.GetVarint64(&out->count)) {
      return false;
    }
    out->result = static_cast<ClientResult>(r);
    out->leader_hint = static_cast<sim::NodeId>(hint);
    return true;
  }
};

struct ClientReadRequest {
  uint64_t from_index = 1;
  uint64_t max_count = 64;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, from_index);
    PutVarint64(&out, max_count);
    return out;
  }
  static bool Decode(Slice data, ClientReadRequest* out) {
    Decoder dec(data);
    return dec.GetVarint64(&out->from_index) &&
           dec.GetVarint64(&out->max_count);
  }
};

struct ClientReadResponse {
  std::vector<LogEntry> entries;
  uint64_t commit_index = 0;
  // First index still present (reads below this hit truncated history and
  // the reader must restore from a snapshot instead).
  uint64_t first_index = 1;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, entries.size());
    for (const LogEntry& e : entries) e.EncodeTo(&out);
    PutVarint64(&out, commit_index);
    PutVarint64(&out, first_index);
    return out;
  }
  static bool Decode(Slice data, ClientReadResponse* out) {
    Decoder dec(data);
    uint64_t count;
    if (!dec.GetVarint64(&count) || count > dec.Remaining()) return false;
    out->entries.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      if (!LogEntry::DecodeFrom(&dec, &out->entries[i])) return false;
    }
    return dec.GetVarint64(&out->commit_index) &&
           dec.GetVarint64(&out->first_index);
  }
};

struct ClientTailResponse {
  ClientResult result = ClientResult::kUnavailable;
  uint64_t commit_index = 0;
  uint64_t last_index = 0;
  sim::NodeId leader_hint = sim::kInvalidNode;
  // Log consumers the answering replica can observe: readers currently
  // parked in its long-poll table. A lower bound — reads round-robin across
  // replicas, so each replica sees only its own followers.
  uint64_t consumers = 0;

  std::string Encode() const {
    std::string out;
    PutVarint64(&out, static_cast<uint64_t>(result));
    PutVarint64(&out, commit_index);
    PutVarint64(&out, last_index);
    PutVarint64(&out, leader_hint);
    PutVarint64(&out, consumers);
    return out;
  }
  static bool Decode(Slice data, ClientTailResponse* out) {
    Decoder dec(data);
    uint64_t r, hint;
    if (!dec.GetVarint64(&r) || !dec.GetVarint64(&out->commit_index) ||
        !dec.GetVarint64(&out->last_index) || !dec.GetVarint64(&hint)) {
      return false;
    }
    out->result = static_cast<ClientResult>(r);
    out->leader_hint = static_cast<sim::NodeId>(hint);
    // Absent in encodings from the simulation path; default 0.
    if (!dec.GetVarint64(&out->consumers)) out->consumers = 0;
    return true;
  }
};

}  // namespace memdb::txlog::wire

#endif  // MEMDB_TXLOG_WIRE_H_
