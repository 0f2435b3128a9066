#include "net/remote_log_gate.h"

#include <chrono>
#include <utility>

#include "common/coding.h"
#include "common/crc.h"
#include "rpc/frame.h"

namespace memdb::net {

namespace {

// Payload bytes a batch may carry beyond its first record: a quarter of the
// rpc frame cap, which leaves ample room for the per-record headers.
constexpr size_t kMaxBatchBytes = rpc::kMaxFrameBytes / 4;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

RemoteLogGate::RemoteLogGate(Options options, MetricsRegistry* registry)
    : options_(std::move(options)),
      running_checksum_(options_.checksum_seed) {
  if (registry != nullptr) {
    registry->SetHelp("txlog_gate_appends_total",
                      "appends the gate sent to the log; one carries every "
                      "write that queued behind the previous one");
    registry->SetHelp("txlog_group_size",
                      "log records per gate append (writes plus inline "
                      "checksum records)");
    appends_issued_ = registry->GetCounter("txlog_gate_appends_total");
    group_size_ = registry->GetHistogram("txlog_group_size");
    appends_failed_ = registry->GetCounter("txlog_gate_append_failures_total");
    queue_depth_ = registry->GetGauge("txlog_gate_queue_depth");
    checksum_records_ = registry->GetCounter("txlog_checksum_records_total");
    log_consumers_ = registry->GetGauge("repl_log_consumers");
    tail_commit_ = registry->GetGauge("txlog_tail_commit_index");
  }
  // RemoteClient resolves its rpc_* instruments here too — before Start()
  // spawns the loop thread, so registry mutation stays single-threaded.
  txlog::RemoteClient::Options copt;
  copt.writer_id = options_.writer_id;
  copt.rpc_timeout_ms = options_.rpc_timeout_ms;
  copt.backoff_base_ms = options_.backoff_base_ms;
  copt.backoff_cap_ms = options_.backoff_cap_ms;
  copt.max_attempts = options_.max_attempts;
  copt.max_redirects = options_.max_redirects;
  copt.trace = options_.trace;
  client_ = std::make_unique<txlog::RemoteClient>(&loop_, options_.endpoints,
                                                  copt, registry);
}

RemoteLogGate::~RemoteLogGate() { Stop(); }

Status RemoteLogGate::Start(std::function<void()> on_complete) {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("remote log gate needs endpoints");
  }
  on_complete_ = std::move(on_complete);
  MEMDB_RETURN_IF_ERROR(loop_.Start());
  started_ = true;
  if (options_.fence) {
    // Learn the chain position before the first append. No gap scan: this
    // writer has appended nothing yet, and its claim to the tail is the
    // shard lease it acquired before the gate started (§4.1).
    loop_.Post([this] { ResolveChain(/*scan_gap=*/false,
                                     /*reissue_after=*/false); });
  }
  if (options_.tail_poll_ms > 0) {
    loop_.Post([this] { ScheduleTailPoll(); });
  }
  return Status::OK();
}

void RemoteLogGate::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  client_->Shutdown();
  loop_.Stop();
}

uint64_t RemoteLogGate::SubmitAppend(std::string payload, uint64_t trace_id) {
  return SubmitTyped(txlog::RecordType::kData, std::move(payload), trace_id);
}

uint64_t RemoteLogGate::SubmitTyped(txlog::RecordType type,
                                    std::string payload, uint64_t trace_id) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  loop_.Post([this, seq, type, trace_id,
              payload = std::move(payload)]() mutable {
    PendingAppend p;
    p.seq = seq;
    p.trace_id = trace_id;
    p.payload = std::move(payload);
    p.type = type;
    queue_.push_back(std::move(p));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    Pump();
  });
  return seq;
}

std::vector<RemoteLogGate::Completion> RemoteLogGate::DrainCompletions() {
  std::vector<Completion> out;
  MutexLock lock(&done_mu_);
  out.swap(done_);
  return out;
}

void RemoteLogGate::Pump() {
  loop_.AssertOnLoopThread();
  if (!inflight_.empty() || queue_.empty()) return;
  if (options_.fence) {
    if (fenced_.load(std::memory_order_acquire)) {
      EnterFenced();  // drains whatever queued after the fence landed
      return;
    }
    if (!prev_known_) return;  // ResolveChain() re-pumps once learned
  }
  // Group commit: everything that queued while the last append was on the
  // wire leaves as one batch, each item still its own log record. The
  // batch always takes one item; the caps only bound how many follow it.
  const uint64_t now_us =
      options_.trace != nullptr ? NowUs() : 0;  // one clock read per batch
  size_t bytes = 0;
  while (!queue_.empty() &&
         inflight_records_.size() + 2 <= txlog::wire::kMaxAppendRecords &&
         (inflight_records_.empty() ||
          bytes + queue_.front().payload.size() <= kMaxBatchBytes)) {
    PendingAppend p = std::move(queue_.front());
    queue_.pop_front();
    bytes += p.payload.size();
    if (options_.trace != nullptr && p.trace_id != 0) {
      // The span between gate.submit and gate.append.issue is the wait for
      // the append ahead of this one, which this batch now shares.
      options_.trace->Record(p.trace_id, "gate.append.issue", now_us, p.seq);
    }
    txlog::LogRecord record;
    record.type = p.type;
    record.writer = options_.writer_id;
    record.trace_id = p.trace_id;
    record.payload = std::move(p.payload);
    const bool data = p.type == txlog::RecordType::kData;
    if (data) {
      // Advance the chain in submission order, which is log order.
      running_checksum_ = Crc64(running_checksum_, Slice(record.payload));
    }
    inflight_.push_back({p.seq, /*internal=*/false});
    inflight_records_.push_back(std::move(record));
    if (data && options_.checksum_every > 0 &&
        ++data_since_checksum_ >= options_.checksum_every) {
      data_since_checksum_ = 0;
      // The checksum record lands right after the data it covers: next in
      // the same batch, so at the next log index.
      txlog::LogRecord chk;
      chk.type = txlog::RecordType::kChecksum;
      chk.writer = options_.writer_id;
      PutFixed64(&chk.payload, running_checksum_);
      inflight_.push_back({0, /*internal=*/true});
      inflight_records_.push_back(std::move(chk));
      if (checksum_records_ != nullptr) checksum_records_->Increment();
    }
  }
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  if (appends_issued_ != nullptr) appends_issued_->Increment();
  if (group_size_ != nullptr) group_size_->Record(inflight_records_.size());
  IssueInflight();
}

void RemoteLogGate::IssueInflight() {
  loop_.AssertOnLoopThread();
  // The kept records carry no request ids: RemoteClient stamps fresh ones
  // on each issue and reuses them across that issue's own retries. A
  // re-issue follows a determinate "not appended", so fresh ids keep the
  // dedup table clean.
  const uint64_t prev =
      options_.fence ? prev_index_ : txlog::wire::kUnconditional;
  client_->AppendBatch(
      prev, inflight_records_,
      [this](const Status& status, uint64_t first, size_t count) {
        OnAppendDone(status, first, count);
      });
}

void RemoteLogGate::CompleteAppend(const Member& m, const Status& status,
                                   uint64_t index) {
  loop_.AssertOnLoopThread();
  if (m.internal) return;  // checksum records are invisible to completions
  if (!status.ok() && appends_failed_ != nullptr) appends_failed_->Increment();
  {
    MutexLock lock(&done_mu_);
    Completion c;
    c.seq = m.seq;
    c.status = status;
    c.index = index;
    done_.push_back(std::move(c));
  }
  completed_.fetch_add(1, std::memory_order_acq_rel);
  if (on_complete_) on_complete_();
}

void RemoteLogGate::FailInflight(const Status& status) {
  loop_.AssertOnLoopThread();
  // A failed checksum record just thins the chain; the value travels in
  // the payload, so consumers stay consistent either way.
  for (const Member& m : inflight_) CompleteAppend(m, status, 0);
  inflight_.clear();
  inflight_records_.clear();
}

void RemoteLogGate::OnAppendDone(const Status& status, uint64_t first,
                                 size_t count) {
  loop_.AssertOnLoopThread();
  if (options_.fence && !status.ok() &&
      !stopping_.load(std::memory_order_acquire)) {
    if (status.IsConditionFailed()) {
      // Determinate: nothing was appended — the tail moved past our chain
      // position. The gap decides: a foreign record fences us; benign
      // movement (kNoop barriers, our own lease renewals) re-chains and
      // re-issues this same batch. It stays in flight throughout.
      ResolveChain(/*scan_gap=*/true, /*reissue_after=*/true);
      return;
    }
    // Indeterminate (timeout after retries) or unavailable: the batch may
    // or may not have landed, so the chain position is lost. Report the
    // failure (the server fails those clients), then re-learn the tail WITH
    // a gap scan — a foreign grant could hide in the unobserved window.
    prev_known_ = false;
    FailInflight(status);
    ResolveChain(/*scan_gap=*/true, /*reissue_after=*/false);
    return;
  }
  if (!status.ok()) {
    FailInflight(status);
    Pump();
    return;
  }
  // Member i committed at first + i.
  for (size_t i = 0; i < count; ++i) {
    CompleteAppend(inflight_[i], Status::OK(), first + i);
  }
  if (options_.fence) prev_index_ = first + count - 1;
  if (count < inflight_.size()) {
    // A retry met a new leader that holds only a prefix of this batch; the
    // rest determinately did not append. Send the rest again — its checksum
    // was folded when it first left the queue, and must not be re-folded.
    inflight_.erase(inflight_.begin(), inflight_.begin() + count);
    inflight_records_.erase(inflight_records_.begin(),
                            inflight_records_.begin() + count);
    if (options_.fence) {
      // The new leader's barrier sits between the prefix and the rest.
      ResolveChain(/*scan_gap=*/true, /*reissue_after=*/true);
    } else {
      IssueInflight();
    }
    return;
  }
  inflight_.clear();
  inflight_records_.clear();
  Pump();
}

bool RemoteLogGate::ForeignRecord(const txlog::LogEntry& entry) const {
  const txlog::LogRecord& rec = entry.record;
  // txlogd's own barriers (kNoop) carry writer 0; everything a database
  // node wrote — data, checksum, lease records — carries its writer id.
  if (rec.writer == 0 || rec.writer == options_.writer_id) return false;
  if (rec.type == txlog::RecordType::kLease && !options_.shard_id.empty()) {
    txlog::rpcwire::LeaseGrant grant;
    if (txlog::rpcwire::LeaseGrant::Decode(Slice(rec.payload), &grant) &&
        grant.shard_id != options_.shard_id) {
      return false;  // another shard's lease traffic sharing the log
    }
  }
  return true;
}

void RemoteLogGate::ScanGap(uint64_t from, uint64_t tail,
                            std::function<void()> on_benign) {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  if (from > tail) {
    on_benign();
    return;
  }
  client_->Read(
      from, /*max_count=*/256, /*wait_ms=*/0,
      [this, from, tail, on_benign = std::move(on_benign)](
          const Status& status,
          const txlog::wire::ClientReadResponse& resp) mutable {
        if (stopping_.load(std::memory_order_acquire)) return;
        if (!status.ok()) {
          loop_.After(options_.backoff_base_ms,
                      [this, from, tail, on_benign = std::move(on_benign)]()
                          mutable { ScanGap(from, tail, std::move(on_benign)); });
          return;
        }
        uint64_t next = from;
        if (resp.entries.empty()) {
          if (resp.first_index > from) {
            // The gap prefix was trimmed behind a durable snapshot. Trim
            // only covers committed history old enough to be snapshotted,
            // which cannot include a fencing grant newer than our last
            // successful append: skip past it.
            next = resp.first_index;
          } else {
            // Committed (ResolveChain scans only after commit caught the
            // tail) yet unreadable: transient — retry.
            loop_.After(options_.backoff_base_ms,
                        [this, from, tail, on_benign = std::move(on_benign)]()
                            mutable {
                          ScanGap(from, tail, std::move(on_benign));
                        });
            return;
          }
        }
        for (const txlog::LogEntry& e : resp.entries) {
          if (e.index > tail) break;
          if (ForeignRecord(e)) {
            std::fprintf(stderr,
                         "remote-log-gate: foreign record (writer %llu, "
                         "type %u) at log index %llu — fenced\n",
                         static_cast<unsigned long long>(e.record.writer),
                         static_cast<unsigned>(e.record.type),
                         static_cast<unsigned long long>(e.index));
            fenced_by_.store(e.record.writer, std::memory_order_release);
            EnterFenced();
            return;
          }
          next = e.index + 1;
        }
        if (next > tail) {
          on_benign();
        } else {
          ScanGap(next, tail, std::move(on_benign));
        }
      });
}

void RemoteLogGate::ResolveChain(bool scan_gap, bool reissue_after) {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  if (fenced_.load(std::memory_order_acquire)) {
    EnterFenced();
    return;
  }
  client_->Tail([this, scan_gap, reissue_after](
                    const Status& status,
                    const txlog::wire::ClientTailResponse& resp) {
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!status.ok()) {
      loop_.After(options_.backoff_base_ms, [this, scan_gap, reissue_after] {
        ResolveChain(scan_gap, reissue_after);
      });
      return;
    }
    if (scan_gap && resp.commit_index < resp.last_index) {
      // An uncommitted suffix could hide a foreign lease grant mid-commit.
      // Adopting the tail now would let a zombie append chain PAST that
      // grant — exactly the split-brain fencing must prevent. Wait until
      // the suffix resolves (commits, or is discarded by a leader change),
      // then scan a fully-readable gap.
      loop_.After(options_.backoff_base_ms, [this, scan_gap, reissue_after] {
        ResolveChain(scan_gap, reissue_after);
      });
      return;
    }
    const uint64_t tail = resp.last_index;
    const auto adopt = [this, tail, reissue_after] {
      prev_index_ = tail;
      prev_known_ = true;
      if (reissue_after) {
        IssueInflight();
      } else {
        Pump();
      }
    };
    if (scan_gap && tail > prev_index_) {
      ScanGap(prev_index_ + 1, tail, adopt);
    } else {
      adopt();
    }
  });
}

void RemoteLogGate::EnterFenced() {
  loop_.AssertOnLoopThread();
  fenced_.store(true, std::memory_order_release);
  const Status fenced =
      Status::ConditionFailed("fenced: this writer lost the shard lease");
  FailInflight(fenced);
  while (!queue_.empty()) {
    CompleteAppend({queue_.front().seq, /*internal=*/false}, fenced, 0);
    queue_.pop_front();
  }
  if (queue_depth_ != nullptr) queue_depth_->Set(0);
}

void RemoteLogGate::ScheduleTailPoll() {
  loop_.AssertOnLoopThread();
  if (stopping_.load(std::memory_order_acquire)) return;
  loop_.After(options_.tail_poll_ms, [this] {
    if (stopping_.load(std::memory_order_acquire)) return;
    client_->Tail([this](const Status& status,
                         const txlog::wire::ClientTailResponse& resp) {
      if (status.ok()) {
        if (log_consumers_ != nullptr) {
          log_consumers_->Set(static_cast<int64_t>(resp.consumers));
        }
        if (tail_commit_ != nullptr) {
          tail_commit_->Set(static_cast<int64_t>(resp.commit_index));
        }
      }
      ScheduleTailPoll();
    });
  });
}

}  // namespace memdb::net
