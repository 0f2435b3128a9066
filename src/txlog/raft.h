// RaftReplica: one member of a 3-node (one per AZ) replication group backing
// a single shard's transaction log. Implements leader election, log
// replication, and commitment with the standard Raft safety rules; on top of
// the replicated log it exposes the service API the paper describes:
//
//   - conditional append: the request names the entry id it intends to
//     follow; a stale precondition is rejected (this is what fences stale
//     DB primaries, §4.1.1),
//   - committed reads from any replica,
//   - prefix truncation (after a verified snapshot covers it).
//
// Appends are acknowledged only after a majority of AZs has the entry
// durably on "disk" (a modeled fsync latency), matching §3.1.

#ifndef MEMDB_TXLOG_RAFT_H_
#define MEMDB_TXLOG_RAFT_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "sim/actor.h"
#include "sim/queue_server.h"
#include "txlog/record.h"

namespace memdb::txlog {

struct RaftOptions {
  sim::Duration heartbeat_interval = 30 * sim::kMs;
  sim::Duration election_timeout_min = 150 * sim::kMs;
  sim::Duration election_timeout_max = 300 * sim::kMs;
  sim::Duration rpc_timeout = 60 * sim::kMs;
  // Modeled fsync cost for appending a batch to local storage.
  sim::Duration disk_write_us = 120;
  // Max entries returned by one read.
  size_t max_read_batch = 256;
};

// State that survives crash/restart of the replica process (the "disk").
struct RaftPersistentState {
  uint64_t current_term = 0;
  sim::NodeId voted_for = sim::kInvalidNode;
  // log_[i] holds the entry with index base_index + i + 1.
  std::deque<LogEntry> log;
  uint64_t base_index = 0;  // entries <= base_index have been truncated
  uint64_t base_term = 0;
};

class RaftReplica : public sim::Actor {
 public:
  enum class RaftRole { kFollower, kCandidate, kLeader };

  RaftReplica(sim::Simulation* sim, sim::NodeId id,
              std::vector<sim::NodeId> peers,  // excludes self
              std::shared_ptr<RaftPersistentState> persistent,
              RaftOptions options);

  void OnRestart() override;

  RaftRole role() const { return role_; }
  bool IsLeader() const { return role_ == RaftRole::kLeader; }
  uint64_t current_term() const { return persistent_->current_term; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_index() const;

  // Test/inspection helper: committed entries in [from, from+count).
  std::vector<LogEntry> CommittedEntries(uint64_t from, size_t count) const;

  // Observability: per-replica metrics (elections, per-peer replication lag,
  // append->quorum-commit latency) and the write-path span log for records
  // carrying a trace id.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const TraceLog& trace_log() const { return trace_; }

 private:
  // --- role transitions ---------------------------------------------------
  void BecomeFollower(uint64_t term);
  void StartElection();
  void BecomeLeader();
  void ResetElectionTimer();

  // --- leader operation ---------------------------------------------------
  void BroadcastAppendEntries();
  void SendAppendEntries(sim::NodeId peer);
  void AdvanceCommitIndex();
  void AppendToLocalLog(LogRecord record);
  void FailPendingAppends(const Status& status);
  void MaybeAckClients();

  // --- log access -----------------------------------------------------
  const LogEntry* EntryAt(uint64_t index) const;
  uint64_t TermAt(uint64_t index) const;
  void TruncateSuffixFrom(uint64_t index);

  // --- message handlers -----------------------------------------------
  void HandleVoteRequest(const sim::Message& m);
  void HandleAppendEntriesRequest(const sim::Message& m);
  void HandleClientAppend(const sim::Message& m);
  void HandleClientRead(const sim::Message& m);
  void HandleClientTail(const sim::Message& m);
  void HandleClientTrim(const sim::Message& m);

  std::vector<sim::NodeId> peers_;
  std::shared_ptr<RaftPersistentState> persistent_;
  RaftOptions options_;
  Rng rng_;
  sim::QueueServer disk_;

  // Volatile state.
  RaftRole role_ = RaftRole::kFollower;
  sim::NodeId leader_hint_ = sim::kInvalidNode;
  uint64_t commit_index_ = 0;
  // Durability horizon of the local log (entries fsynced so far).
  uint64_t durable_index_ = 0;
  sim::TimerHandle election_timer_;
  int votes_received_ = 0;
  uint64_t election_epoch_ = 0;  // invalidates stale vote responses
  bool heartbeat_loop_running_ = false;

  // Leader bookkeeping.
  std::map<sim::NodeId, uint64_t> next_index_;
  std::map<sim::NodeId, uint64_t> match_index_;
  std::map<sim::NodeId, bool> append_inflight_;
  // Client appends awaiting commitment, keyed by the request's last index.
  struct PendingAppend {
    sim::Message request;
    uint64_t first_index = 0;  // a batch's records sit at [first, key]
  };
  std::map<uint64_t, PendingAppend> pending_appends_;
  // Index of the no-op barrier this leader appended at election; client
  // appends are deferred with Unavailable until it commits.
  uint64_t barrier_index_ = 0;

  // Observability.
  MetricsRegistry metrics_;
  TraceLog trace_;
  // Receipt time of client appends awaiting quorum, for the
  // append->commit latency histogram: index -> receipt time.
  std::map<uint64_t, sim::Time> append_received_at_;
  std::map<sim::NodeId, Gauge*> peer_lag_gauges_;
  Counter* elections_started_ = nullptr;
  Counter* leader_elected_ = nullptr;
  Counter* client_appends_ = nullptr;
  Counter* entries_replicated_ = nullptr;
  Gauge* term_gauge_ = nullptr;
  Gauge* commit_gauge_ = nullptr;
  Histogram* commit_latency_ = nullptr;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_RAFT_H_
