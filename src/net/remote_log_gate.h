// RemoteLogGate: connects the RESP front end to an out-of-process
// transaction-log group (memorydb-txlogd processes) — the real-socket
// version of the §3.1/§3.2 durability gate. The RespServer submits one
// record per write and parks the client's reply; the gate reports
// completions (commit or terminal failure) back to the server loop, which
// releases the parked replies in order.
//
// Group commit: one append is in flight at a time, and it carries every
// record that queued while the previous one was on the wire — one rpc, one
// log persist (write + fsync) and one replication round for the whole
// batch. Batching adapts to load with no timer: an idle gate sends a lone
// record at once, a busy one sends whatever waited. Each write stays its
// own log record (its own index, request id and trace id), so log order
// equals local execution order and completions arrive in batch-seq order.
// Retries, leader redirects, and per-record (writer, request_id) dedup live
// inside txlog::RemoteClient; the gate sees each record complete exactly
// once.
//
// Threading: SubmitAppend/DrainCompletions are called from the RespServer
// loop thread; the append machinery runs on the gate's own rpc::LoopThread;
// the completion queue is the mutex-protected bridge between them. The
// on_complete callback (RespServer's EventLoop::Wakeup) may be invoked from
// the gate thread.

#ifndef MEMDB_NET_REMOTE_LOG_GATE_H_
#define MEMDB_NET_REMOTE_LOG_GATE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/trace.h"
#include "rpc/loop.h"
#include "txlog/remote_client.h"

namespace memdb::net {

class RemoteLogGate {
 public:
  struct Options {
    std::vector<std::string> endpoints;  // host:port per txlogd replica
    uint64_t writer_id = 1;              // this database node's identity
    uint64_t rpc_timeout_ms = 300;
    uint64_t backoff_base_ms = 20;
    uint64_t backoff_cap_ms = 1000;
    int max_attempts = 8;
    int max_redirects = 4;
    // Inject a kChecksum record carrying the running CRC64 of all data
    // payloads after every N data appends (§7.2.1); 0 = off. Consumers
    // (replicas, the off-box snapshotter) verify the chain as they replay.
    uint64_t checksum_every = 0;
    // Chain basis, from the snapshot the primary restored from (0 = fresh).
    uint64_t checksum_seed = 0;
    // Poll txlog.Tail every N ms for commit index + observable consumer
    // count (repl_log_consumers / txlog_tail_commit_index gauges); 0 = off.
    uint64_t tail_poll_ms = 0;
    // Fenced appends (§4.1): chain every append on the previous one's index
    // (prev_index conditional) instead of kUnconditional. On a stale
    // precondition the gate reads the gap: benign tail movement (kNoop
    // election barriers, this writer's own lease renewals) re-chains and
    // retries; a foreign writer's record — another primary's data append or
    // a lease grant to a different owner — means this node lost the shard
    // lease, and the gate goes terminally fenced: the in-flight batch and
    // everything queued fail with ConditionFailed, and the embedding server
    // demotes. Off (default) preserves the pre-failover unconditional path.
    bool fence = false;
    // With fence: kLease records for a different shard are benign (multi-
    // shard logs). Empty matches every shard (single-shard deployments).
    std::string shard_id;
    // Optional write-path tracing: the gate records gate.append.issue when
    // an append actually goes on the wire, and the RemoteClient's channels
    // record rpc.send/rpc.recv. Owned by the embedding RespServer.
    TraceLog* trace = nullptr;
  };

  struct Completion {
    uint64_t seq = 0;    // batch sequence handed out by SubmitAppend
    Status status;       // OK = committed at `index`; else terminal failure
    uint64_t index = 0;  // log index on success
  };

  // Instruments (rpc_* client metrics plus gate counters) are resolved from
  // `registry` at construction — before any loop thread exists.
  RemoteLogGate(Options options, MetricsRegistry* registry);
  ~RemoteLogGate();
  RemoteLogGate(const RemoteLogGate&) = delete;
  RemoteLogGate& operator=(const RemoteLogGate&) = delete;

  // on_complete fires (from the gate thread) whenever a completion is
  // queued; wire it to the RespServer's EventLoop::Wakeup.
  Status Start(std::function<void()> on_complete);
  void Stop();

  // Thread-safe. Queues one durable append carrying `payload` (an encoded
  // effect batch) and returns its batch seq (monotonic from 1). `trace_id`
  // rides the log record and the rpc frame (write-path tracing).
  uint64_t SubmitAppend(std::string payload, uint64_t trace_id);

  // Thread-safe. Like SubmitAppend but with an explicit record type — used
  // for kSlotOwnership flips (§5): the record rides the same ordered,
  // fenced chain as data, so a committed completion proves this writer
  // still held the shard lease when the flip landed. Non-data records do
  // not advance the §7.2.1 checksum chain (replicas skip them too).
  uint64_t SubmitTyped(txlog::RecordType type, std::string payload,
                       uint64_t trace_id);

  // Thread-safe; returns queued completions in batch-seq order.
  std::vector<Completion> DrainCompletions();

  // Appends submitted but not yet completed (thread-safe).
  uint64_t inflight() const {
    return submitted_.load(std::memory_order_acquire) -
           completed_.load(std::memory_order_acquire);
  }
  size_t replica_count() const { return options_.endpoints.size(); }

  // Fence mode only (thread-safe): true once a foreign record proved this
  // node lost the shard lease. Terminal — every subsequent append fails.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }
  // Writer id of the foreign record that fenced us (0 until fenced, or if
  // fencing came from a ConditionFailed append rather than a gap scan).
  uint64_t fenced_by() const {
    return fenced_by_.load(std::memory_order_acquire);
  }

  // Test access to the underlying client (backoff hook, sync reads).
  txlog::RemoteClient* client() { return client_.get(); }

 private:
  struct PendingAppend {
    uint64_t seq = 0;
    uint64_t trace_id = 0;
    std::string payload;
    txlog::RecordType type = txlog::RecordType::kData;
  };
  // One record of the batch on the wire.
  struct Member {
    uint64_t seq = 0;
    // Gate-internal kChecksum record: invisible to SubmitAppend accounting
    // and never reported as a completion.
    bool internal = false;
  };

  // Gate-loop-thread only (loop_.AssertOnLoopThread() on entry).
  // Moves the whole queue (up to the batch caps) into one append.
  void Pump();
  // Sends the in-flight batch, at prev_index_ in fence mode.
  void IssueInflight();
  // Member i of the batch committed at first + i, for i < count.
  void OnAppendDone(const Status& status, uint64_t first, size_t count);
  void ScheduleTailPoll();
  // Fence machinery (gate-loop thread): (re)learn the chain position from
  // txlog.Tail; scan_gap additionally classifies (prev, tail] — required
  // whenever the tail moved while this writer wasn't looking (a stale
  // precondition, or an indeterminate append). Scans wait for the commit
  // index to catch the tail first, so a mid-commit foreign grant cannot be
  // chained past. reissue_after re-sends the still-in-flight batch once
  // the chain is re-learned (ConditionFailed path); otherwise Pump resumes.
  void ResolveChain(bool scan_gap, bool reissue_after);
  // Classify [from, tail]; benign -> on_benign(), foreign -> EnterFenced().
  void ScanGap(uint64_t from, uint64_t tail, std::function<void()> on_benign);
  bool ForeignRecord(const txlog::LogEntry& entry) const;
  // Terminal: fail the in-flight batch (if any) and everything queued.
  void EnterFenced();
  void CompleteAppend(const Member& m, const Status& status, uint64_t index);
  // Completes every in-flight member with `status` and clears the batch.
  void FailInflight(const Status& status);

  Options options_;
  rpc::LoopThread loop_;
  std::unique_ptr<txlog::RemoteClient> client_;
  std::function<void()> on_complete_;
  bool started_ = false;

  Counter* appends_issued_ = nullptr;
  Histogram* group_size_ = nullptr;
  Counter* appends_failed_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Counter* checksum_records_ = nullptr;
  Gauge* log_consumers_ = nullptr;
  Gauge* tail_commit_ = nullptr;

  // Gate-loop-thread state (thread-affine, no lock; see Pump/OnAppendDone).
  std::deque<PendingAppend> queue_;
  // The batch on the wire (empty: none). Its records are kept, without
  // request ids, for a re-issue after a benign race or a prefix ack.
  std::vector<Member> inflight_;
  std::vector<txlog::LogRecord> inflight_records_;
  // --- fence-mode chain state (gate-loop thread) ---------------------------
  bool prev_known_ = false;    // chain position learned from txlog.Tail
  uint64_t prev_index_ = 0;    // last index this writer observed/appended
  std::atomic<bool> fenced_{false};
  std::atomic<uint64_t> fenced_by_{0};
  // Running CRC64 over data payloads in submission order — which equals log
  // order: one batch is in flight at a time, and it keeps queue order.
  uint64_t running_checksum_ = 0;
  uint64_t data_since_checksum_ = 0;
  std::atomic<bool> stopping_{false};

  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};

  // Bridge between the gate loop (producer) and the RespServer loop
  // (consumer via DrainCompletions).
  memdb::Mutex done_mu_;
  std::vector<Completion> done_ GUARDED_BY(done_mu_);
};

}  // namespace memdb::net

#endif  // MEMDB_NET_REMOTE_LOG_GATE_H_
