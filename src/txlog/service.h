// LogService: one memorydb-txlogd replica — the out-of-process transaction
// log service. Where src/txlog/raft.cc implements the replica as a
// simulation actor, LogService implements the same protocol as a real
// process: an rpc::Server for the client-facing API and raft traffic, an
// rpc::Channel per peer, and a write-ahead file per replica whose fsync
// gates every acknowledgement — commit still requires a majority of AZs
// durable, now across real processes.
//
// Service API (see txlog/rpc_wire.h for method names):
//   * ConditionalAppend — leader-only CAS append; acks only after quorum
//     persistence; idempotent under retry via (writer, request_id) dedup:
//     a retried append whose record already entered the log returns the
//     original index instead of appending twice.
//   * ReadStream — committed entries from any replica, with long-poll
//     follow (wait_ms) so replicas can tail the log without busy polling.
//   * Tail — linearizable tail query (leader, post-barrier).
//   * AcquireLease / RenewLease — leader fencing for database primaries;
//     grants are replicated kLease records, so the table survives txlogd
//     failover.
//
// Threading: the entire replica runs on one rpc::LoopThread; every member
// below is loop-thread state unless noted, enforced at runtime by
// loop_.AssertOnLoopThread() at every raft-core and handler entry point
// (common/sync.h ThreadAffinity). Cross-thread observers (tests, the stats
// banner) read the *_atomic_ mirrors.

#ifndef MEMDB_TXLOG_SERVICE_H_
#define MEMDB_TXLOG_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "rpc/server.h"
#include "txlog/record.h"
#include "txlog/rpc_wire.h"
#include "txlog/wire.h"

namespace memdb::txlog {

class LogService {
 public:
  struct Options {
    uint64_t node_id = 1;  // 1-based replica id (one per simulated AZ)
    std::string listen_host = "127.0.0.1";
    uint16_t listen_port = 0;  // 0 = kernel-assigned
    // Durable state directory; empty = memory-only (tests). With a data
    // dir, every append is fsynced before it counts toward the quorum.
    std::string data_dir;
    bool fsync = true;

    uint64_t heartbeat_ms = 40;
    uint64_t election_min_ms = 150;
    uint64_t election_max_ms = 300;
    uint64_t raft_rpc_timeout_ms = 150;
    size_t max_read_batch = 256;
    size_t max_append_entries = 64;
    // Cap on the (writer, request_id) idempotency table. Oldest entries are
    // evicted first; a retry arriving after its entry was evicted re-appends
    // (a duplicate), so size this to cover the longest plausible retry
    // window, not to zero. 0 = unbounded (tests).
    size_t dedup_max_entries = 65536;
    uint64_t seed = 0;  // 0 = derived from node_id
    // When set, the daemon's TraceLog is exported as JSONL (proc label
    // "txlogd-<node_id>") to this path at Stop(); the offline analogue of
    // the svc.TraceDump scrape.
    std::string trace_file;
  };

  enum class Role : uint8_t { kFollower, kCandidate, kLeader };

  explicit LogService(Options options);
  ~LogService();
  LogService(const LogService&) = delete;
  LogService& operator=(const LogService&) = delete;

  // Opens the listener (port() valid afterwards) and loads persistent
  // state. Raft stays dormant until SetPeers().
  Status Start();
  // Full membership as (node_id, "host:port"); entries matching node_id are
  // skipped. Starts the election timer — call on every replica once all
  // ports are known.
  void SetPeers(std::vector<std::pair<uint64_t, std::string>> peers);
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t node_id() const { return options_.node_id; }

  // Cross-thread-safe observers.
  bool IsLeader() const {
    return role_atomic_.load(std::memory_order_acquire) ==
           static_cast<uint8_t>(Role::kLeader);
  }
  uint64_t commit_index() const {
    return commit_atomic_.load(std::memory_order_acquire);
  }
  uint64_t current_term() const {
    return term_atomic_.load(std::memory_order_acquire);
  }

  MetricsRegistry& metrics() { return metrics_; }
  rpc::FaultInjector& fault() { return server_->fault(); }
  // Thread-safe: TraceLog::Snapshot tolerates concurrent loop-thread
  // recording (lock-free slot versioning).
  const TraceLog& trace_log() const { return trace_; }

 private:
  using AckCallback = std::function<void(bool committed, uint64_t index)>;

  // --- raft core (loop thread) ---------------------------------------------
  uint64_t last_index() const { return base_index_ + log_.size(); }
  const LogEntry* EntryAt(uint64_t index) const;
  uint64_t TermAt(uint64_t index) const;
  void TruncateSuffixFrom(uint64_t index);
  // Discards entries [base+1, new_base]; caller guarantees new_base is
  // committed and applied. Persists the new base and rewrites the log file.
  void TruncatePrefixTo(uint64_t new_base);
  void DedupInsert(uint64_t writer, uint64_t request_id, uint64_t index);
  // Index at which `record`'s (writer, request_id) entered the log; 0 if it
  // never did (or its dedup slot was evicted).
  uint64_t DedupLookup(const LogRecord& record) const;

  void ResetElectionTimer();
  void BecomeFollower(uint64_t term);
  void StartElection();
  void BecomeLeader();
  void HeartbeatTick();

  // Appends `records` at contiguous indexes after last_index() and makes
  // them durable in one PersistLogSuffix: one write and one fsync however
  // many records the batch holds.
  void AppendToLocalLog(std::vector<LogRecord> records);
  // Answers a client append of `count` records at [first, first + count)
  // once the last of them commits (NotLeader if it is truncated first).
  void AckAppend(uint64_t first, uint64_t count,
                 std::function<void(const wire::ClientAppendResponse&)> reply);
  void BroadcastAppendEntries();
  void SendAppendEntries(uint64_t peer);
  void AdvanceCommitIndex();
  void OnCommitAdvanced(uint64_t prev_commit);
  void FailPendingAppends();

  // --- message handlers (loop thread) --------------------------------------
  void HandleRaftVote(rpc::Server::Call&& call);
  void HandleRaftAppendEntries(rpc::Server::Call&& call);
  void HandleClientAppend(rpc::Server::Call&& call);
  void HandleReadStream(rpc::Server::Call&& call);
  void HandleTail(rpc::Server::Call&& call);
  void HandleTrim(rpc::Server::Call&& call);
  void HandleLease(rpc::Server::Call&& call, bool renew);
  void HandleMetricsScrape(rpc::Server::Call&& call);
  void HandleTraceDump(rpc::Server::Call&& call);

  std::string TraceProcLabel() const {
    return "txlogd-" + std::to_string(options_.node_id);
  }

  void ServeRead(const rpcwire::ReadStreamRequest& req,
                 rpc::Server::Call& call);
  void ApplyCommitted();
  void WakeLongPolls();

  // --- persistence (loop thread) -------------------------------------------
  Status LoadDisk();
  void PersistMeta();
  // Appends log entries [from_index, last_index()] to the log file.
  void PersistLogSuffix(uint64_t from_index);
  void RewriteLogFile();
  std::string MetaPath() const;
  std::string LogPath() const;

  void SetRole(Role role);

  Options options_;
  uint16_t port_ = 0;
  bool started_ = false;

  // Declared before raft_stats_/server_: both are constructed against this
  // registry in the member-init list.
  MetricsRegistry metrics_;
  TraceLog trace_;

  rpc::LoopThread loop_;
  std::unique_ptr<rpc::Server> server_;
  // Peer raft channels; key = peer node id.
  std::map<uint64_t, std::unique_ptr<rpc::Channel>> peer_channels_;
  std::vector<uint64_t> peer_ids_;
  rpc::RpcStats raft_stats_;

  // Persistent state (mirrored to disk when data_dir is set).
  uint64_t current_term_ = 0;
  uint64_t voted_for_ = 0;  // 0 = none
  std::deque<LogEntry> log_;
  uint64_t base_index_ = 0;
  uint64_t base_term_ = 0;
  int log_fd_ = -1;

  // Volatile raft state.
  Role role_ = Role::kFollower;
  uint64_t leader_hint_ = 0;
  uint64_t commit_index_ = 0;
  uint64_t durable_index_ = 0;
  uint64_t applied_index_ = 0;
  uint64_t election_epoch_ = 0;
  int votes_received_ = 0;
  uint64_t election_timer_ = 0;
  uint64_t heartbeat_timer_ = 0;
  uint64_t barrier_index_ = 0;
  std::map<uint64_t, uint64_t> next_index_;
  std::map<uint64_t, uint64_t> match_index_;
  std::map<uint64_t, bool> append_inflight_;

  // Client appends (and lease grants) awaiting quorum: index -> callbacks.
  std::map<uint64_t, std::vector<AckCallback>> pending_acks_;
  std::map<uint64_t, uint64_t> append_received_at_us_;

  // Idempotency: (writer, request_id) -> log index, maintained with the
  // in-memory log (inserted on append, removed on suffix truncation) and
  // bounded by options_.dedup_max_entries: dedup_order_ records insertion
  // order, and the oldest entries are evicted once the map exceeds the cap.
  // An order slot whose (key -> index) mapping was since replaced or erased
  // is skipped at eviction time, so re-inserted keys get a fresh lifetime.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dedup_;
  std::deque<std::pair<std::pair<uint64_t, uint64_t>, uint64_t>> dedup_order_;

  // Long-poll readers parked until commit reaches from_index.
  struct Waiter {
    uint64_t id = 0;
    rpcwire::ReadStreamRequest req;
    rpc::Server::Call call;
    uint64_t timer_id = 0;
  };
  std::map<uint64_t, Waiter> read_waiters_;
  uint64_t next_waiter_id_ = 1;

  // Lease table derived from committed kLease records.
  struct Lease {
    uint64_t owner = 0;
    uint64_t expiry_ms = 0;  // local steady clock at apply + duration
  };
  std::map<std::string, Lease> leases_;
  // Leader-only: grants appended but not yet applied. Arbitration must see
  // these too, or two contenders racing AcquireLease in the commit window
  // would BOTH be granted (both see the stale committed table). Latest grant
  // per shard; cleared when its record applies and on step-down.
  std::map<std::string, Lease> pending_leases_;

  Rng rng_;

  // Cross-thread mirrors.
  std::atomic<uint8_t> role_atomic_{0};
  std::atomic<uint64_t> commit_atomic_{0};
  std::atomic<uint64_t> term_atomic_{0};

  // Observability (instruments created in the constructor).
  Counter* elections_started_ = nullptr;
  Counter* leader_elected_ = nullptr;
  Counter* client_appends_ = nullptr;
  Counter* dedup_hits_ = nullptr;
  Counter* dedup_evictions_ = nullptr;
  Counter* trims_ = nullptr;
  Counter* entries_replicated_ = nullptr;
  Counter* fsyncs_ = nullptr;
  Gauge* dedup_entries_gauge_ = nullptr;
  Gauge* base_index_gauge_ = nullptr;
  Gauge* term_gauge_ = nullptr;
  Gauge* commit_gauge_ = nullptr;
  Gauge* role_gauge_ = nullptr;
  Gauge* read_waiters_gauge_ = nullptr;
  Histogram* commit_latency_ = nullptr;
  Histogram* fsync_us_ = nullptr;
};

}  // namespace memdb::txlog

#endif  // MEMDB_TXLOG_SERVICE_H_
