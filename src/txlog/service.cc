#include "txlog/service.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "common/crc.h"
#include "common/trace_export.h"

namespace memdb::txlog {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Splits "host:port"; returns false on malformed input.
bool SplitEndpoint(const std::string& ep, std::string* host,
                   uint16_t* port) {
  const size_t colon = ep.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= ep.size()) {
    return false;
  }
  unsigned long p = 0;
  for (size_t i = colon + 1; i < ep.size(); ++i) {
    if (ep[i] < '0' || ep[i] > '9') return false;
    p = p * 10 + static_cast<unsigned long>(ep[i] - '0');
    if (p > 65535) return false;
  }
  *host = ep.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

LogService::LogService(Options options)
    : options_(std::move(options)),
      server_(std::make_unique<rpc::Server>(&loop_, options_.listen_host,
                                            options_.listen_port)),
      raft_stats_(&metrics_, {rpcwire::kRaftVote, rpcwire::kRaftAppendEntries}),
      rng_(options_.seed != 0 ? options_.seed
                              : 0x7178 /* 'tx' */ + options_.node_id) {
  elections_started_ = metrics_.GetCounter("raft_elections_started_total");
  leader_elected_ = metrics_.GetCounter("raft_leader_elected_total");
  client_appends_ = metrics_.GetCounter("txlog_client_appends_total");
  dedup_hits_ = metrics_.GetCounter("txlog_dedup_hits_total");
  dedup_evictions_ = metrics_.GetCounter("txlog_dedup_evictions_total");
  trims_ = metrics_.GetCounter("txlog_trims_total");
  dedup_entries_gauge_ = metrics_.GetGauge("txlog_dedup_entries");
  base_index_gauge_ = metrics_.GetGauge("txlog_base_index");
  entries_replicated_ = metrics_.GetCounter("raft_entries_replicated_total");
  fsyncs_ = metrics_.GetCounter("txlog_fsyncs_total");
  term_gauge_ = metrics_.GetGauge("raft_term");
  commit_gauge_ = metrics_.GetGauge("raft_commit_index");
  role_gauge_ = metrics_.GetGauge("raft_role");
  read_waiters_gauge_ = metrics_.GetGauge("txlog_read_waiters");
  commit_latency_ = metrics_.GetHistogram("txlog_commit_latency_us");
  fsync_us_ = metrics_.GetHistogram("txlog_fsync_us");

  server_->set_metrics(&metrics_);
  server_->RegisterHandler(rpcwire::kRaftVote, [this](rpc::Server::Call&& c) {
    HandleRaftVote(std::move(c));
  });
  server_->RegisterHandler(
      rpcwire::kRaftAppendEntries,
      [this](rpc::Server::Call&& c) { HandleRaftAppendEntries(std::move(c)); });
  server_->RegisterHandler(rpcwire::kAppend, [this](rpc::Server::Call&& c) {
    HandleClientAppend(std::move(c));
  });
  server_->RegisterHandler(rpcwire::kRead, [this](rpc::Server::Call&& c) {
    HandleReadStream(std::move(c));
  });
  server_->RegisterHandler(rpcwire::kTail, [this](rpc::Server::Call&& c) {
    HandleTail(std::move(c));
  });
  server_->RegisterHandler(rpcwire::kTrim, [this](rpc::Server::Call&& c) {
    HandleTrim(std::move(c));
  });
  server_->RegisterHandler(
      rpcwire::kAcquireLease,
      [this](rpc::Server::Call&& c) { HandleLease(std::move(c), false); });
  server_->RegisterHandler(
      rpcwire::kRenewLease,
      [this](rpc::Server::Call&& c) { HandleLease(std::move(c), true); });
  server_->RegisterHandler(rpcwire::kMetrics, [this](rpc::Server::Call&& c) {
    HandleMetricsScrape(std::move(c));
  });
  server_->RegisterHandler(rpcwire::kTraceDump, [this](rpc::Server::Call&& c) {
    HandleTraceDump(std::move(c));
  });
  server_->set_trace_log(&trace_);
}

// lint:off-loop -- teardown runs on the embedding thread.
LogService::~LogService() { Stop(); }

// lint:off-loop -- startup runs on the embedding (txlogd main) thread;
// PostSync hands the disk-loaded raft state to the loop before serving.
Status LogService::Start() {
  if (started_) return Status::OK();
  Status s = loop_.Start();
  if (!s.ok()) return s;
  s = server_->Start();
  if (!s.ok()) {
    loop_.Stop();
    return s;
  }
  port_ = server_->port();
  Status load = Status::OK();
  loop_.PostSync([this, &load] { load = LoadDisk(); });
  if (!load.ok()) {
    server_->Stop();
    loop_.Stop();
    return load;
  }
  started_ = true;
  return Status::OK();
}

// lint:off-loop -- setup runs on the embedding thread before traffic.
void LogService::SetPeers(std::vector<std::pair<uint64_t, std::string>> peers) {
  loop_.PostSync([this, peers = std::move(peers)] {
    for (const auto& [id, endpoint] : peers) {
      if (id == options_.node_id) continue;
      std::string host;
      uint16_t port = 0;
      if (!SplitEndpoint(endpoint, &host, &port)) continue;
      peer_channels_[id] =
          std::make_unique<rpc::Channel>(&loop_, host, port, &raft_stats_);
      peer_ids_.push_back(id);
      next_index_[id] = last_index() + 1;
      match_index_[id] = 0;
      append_inflight_[id] = false;
    }
    ResetElectionTimer();
  });
}

// lint:off-loop -- teardown runs on the embedding thread (see Start).
void LogService::Stop() {
  if (!started_) return;
  started_ = false;
  loop_.PostSync([this] {
    if (election_timer_ != 0) loop_.CancelTimer(election_timer_);
    if (heartbeat_timer_ != 0) loop_.CancelTimer(heartbeat_timer_);
    election_timer_ = heartbeat_timer_ = 0;
    ++election_epoch_;  // invalidate in-flight vote/append callbacks
    FailPendingAppends();
    for (auto& [id, w] : read_waiters_) {
      if (w.timer_id != 0) loop_.CancelTimer(w.timer_id);
      ServeRead(w.req, w.call);
    }
    read_waiters_.clear();
    if (log_fd_ >= 0) {
      ::close(log_fd_);
      log_fd_ = -1;
    }
  });
  // Channels PostSync internally; shut them down while the loop is alive.
  for (auto& [id, ch] : peer_channels_) ch->Shutdown();
  server_->Stop();
  loop_.Stop();
  if (!options_.trace_file.empty()) {
    const std::string jsonl = ExportSpansJsonl(trace_, TraceProcLabel());
    if (std::FILE* f = std::fopen(options_.trace_file.c_str(), "w")) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
    }
  }
}

// --- log helpers -----------------------------------------------------------

const LogEntry* LogService::EntryAt(uint64_t index) const {
  if (index <= base_index_ || index > last_index()) return nullptr;
  return &log_[index - base_index_ - 1];
}

uint64_t LogService::TermAt(uint64_t index) const {
  if (index == base_index_) return base_term_;
  const LogEntry* e = EntryAt(index);
  return e != nullptr ? e->term : 0;
}

void LogService::DedupInsert(uint64_t writer, uint64_t request_id,
                             uint64_t index) {
  loop_.AssertOnLoopThread();
  const std::pair<uint64_t, uint64_t> key{writer, request_id};
  dedup_[key] = index;
  dedup_order_.emplace_back(key, index);
  if (options_.dedup_max_entries > 0) {
    while (dedup_.size() > options_.dedup_max_entries &&
           !dedup_order_.empty()) {
      const auto& [old_key, old_index] = dedup_order_.front();
      auto it = dedup_.find(old_key);
      // Only evict if this order slot still describes the live mapping —
      // a re-inserted key's older slot must not cut its fresh lifetime
      // short. Stale slots are simply dropped.
      if (it != dedup_.end() && it->second == old_index) {
        dedup_.erase(it);
        dedup_evictions_->Increment();
      }
      dedup_order_.pop_front();
    }
  }
  dedup_entries_gauge_->Set(static_cast<int64_t>(dedup_.size()));
}

uint64_t LogService::DedupLookup(const LogRecord& record) const {
  if (record.writer == 0 || record.request_id == 0) return 0;
  const auto it = dedup_.find({record.writer, record.request_id});
  return it == dedup_.end() ? 0 : it->second;
}

void LogService::TruncatePrefixTo(uint64_t new_base) {
  loop_.AssertOnLoopThread();
  if (new_base <= base_index_) return;
  base_term_ = TermAt(new_base);
  while (base_index_ < new_base && !log_.empty()) {
    log_.pop_front();
    ++base_index_;
  }
  base_index_gauge_->Set(static_cast<int64_t>(base_index_));
  trims_->Increment();
  // The new base must survive a restart: LoadDisk needs it to anchor the
  // first on-disk entry's index.
  PersistMeta();
  RewriteLogFile();
}

void LogService::TruncateSuffixFrom(uint64_t index) {
  while (last_index() >= index && !log_.empty()) {
    const LogEntry& e = log_.back();
    if (e.record.writer != 0 || e.record.request_id != 0) {
      auto it = dedup_.find({e.record.writer, e.record.request_id});
      if (it != dedup_.end() && it->second == e.index) dedup_.erase(it);
    }
    auto ack = pending_acks_.find(e.index);
    if (ack != pending_acks_.end()) {
      for (AckCallback& cb : ack->second) cb(false, 0);
      pending_acks_.erase(ack);
    }
    append_received_at_us_.erase(e.index);
    log_.pop_back();
  }
  if (durable_index_ > last_index()) durable_index_ = last_index();
  dedup_entries_gauge_->Set(static_cast<int64_t>(dedup_.size()));
  RewriteLogFile();
}

// --- raft core -------------------------------------------------------------

void LogService::SetRole(Role role) {
  role_ = role;
  role_atomic_.store(static_cast<uint8_t>(role), std::memory_order_release);
  role_gauge_->Set(static_cast<int64_t>(role));
}

void LogService::ResetElectionTimer() {
  if (election_timer_ != 0) loop_.CancelTimer(election_timer_);
  const uint64_t delay =
      rng_.UniformRange(options_.election_min_ms, options_.election_max_ms);
  election_timer_ = loop_.After(delay, [this] {
    election_timer_ = 0;
    StartElection();
  });
}

void LogService::BecomeFollower(uint64_t term) {
  loop_.AssertOnLoopThread();
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = 0;
    PersistMeta();
    term_atomic_.store(current_term_, std::memory_order_release);
    term_gauge_->Set(static_cast<int64_t>(current_term_));
  }
  const bool was_leader = role_ == Role::kLeader;
  SetRole(Role::kFollower);
  ++election_epoch_;
  if (heartbeat_timer_ != 0) {
    loop_.CancelTimer(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
  if (was_leader) FailPendingAppends();
  // A deposed leader's uncommitted grants may be overwritten by the new
  // leader's log; the next leader re-arbitrates from committed state.
  pending_leases_.clear();
  barrier_index_ = 0;
  ResetElectionTimer();
}

void LogService::StartElection() {
  loop_.AssertOnLoopThread();
  if (role_ == Role::kLeader) return;
  SetRole(Role::kCandidate);
  ++current_term_;
  voted_for_ = options_.node_id;
  PersistMeta();
  term_atomic_.store(current_term_, std::memory_order_release);
  term_gauge_->Set(static_cast<int64_t>(current_term_));
  elections_started_->Increment();
  votes_received_ = 1;  // self
  const uint64_t epoch = ++election_epoch_;
  const int majority = static_cast<int>(peer_ids_.size() + 1) / 2 + 1;
  if (votes_received_ >= majority) {
    BecomeLeader();
    return;
  }
  ResetElectionTimer();

  wire::VoteRequest req;
  req.term = current_term_;
  req.candidate = static_cast<sim::NodeId>(options_.node_id);
  req.last_log_index = last_index();
  req.last_log_term = TermAt(last_index());
  const std::string body = req.Encode();
  for (uint64_t peer : peer_ids_) {
    peer_channels_[peer]->Call(
        rpcwire::kRaftVote, body, options_.raft_rpc_timeout_ms, 0,
        [this, epoch, majority](Status status, std::string payload) {
          if (!status.ok() || epoch != election_epoch_ ||
              role_ != Role::kCandidate) {
            return;
          }
          wire::VoteResponse resp;
          if (!wire::VoteResponse::Decode(Slice(payload), &resp)) return;
          if (resp.term > current_term_) {
            BecomeFollower(resp.term);
            return;
          }
          if (resp.granted && resp.term == current_term_ &&
              ++votes_received_ >= majority) {
            BecomeLeader();
          }
        });
  }
}

void LogService::BecomeLeader() {
  loop_.AssertOnLoopThread();
  SetRole(Role::kLeader);
  leader_elected_->Increment();
  leader_hint_ = options_.node_id;
  ++election_epoch_;
  if (election_timer_ != 0) {
    loop_.CancelTimer(election_timer_);
    election_timer_ = 0;
  }
  for (uint64_t peer : peer_ids_) {
    next_index_[peer] = last_index() + 1;
    match_index_[peer] = 0;
    append_inflight_[peer] = false;
  }
  // Leader-completeness barrier: a no-op in the new term. Client-visible
  // reads (Tail) and leases stay Unavailable until it commits, which proves
  // every entry from earlier terms that could have committed is committed.
  LogRecord barrier;
  barrier.type = RecordType::kNoop;
  AppendToLocalLog({std::move(barrier)});
  barrier_index_ = last_index();
  AdvanceCommitIndex();
  BroadcastAppendEntries();
  HeartbeatTick();
}

void LogService::HeartbeatTick() {
  if (role_ != Role::kLeader) return;
  BroadcastAppendEntries();
  heartbeat_timer_ =
      loop_.After(options_.heartbeat_ms, [this] { HeartbeatTick(); });
}

void LogService::AppendToLocalLog(std::vector<LogRecord> records) {
  loop_.AssertOnLoopThread();
  const uint64_t first = last_index() + 1;
  for (LogRecord& record : records) {
    LogEntry entry;
    entry.term = current_term_;
    entry.index = last_index() + 1;
    entry.record = std::move(record);
    if (entry.record.writer != 0 || entry.record.request_id != 0) {
      DedupInsert(entry.record.writer, entry.record.request_id, entry.index);
    }
    log_.push_back(std::move(entry));
  }
  PersistLogSuffix(first);
  durable_index_ = last_index();
  const uint64_t now_us = NowUs();
  for (uint64_t i = first; i <= durable_index_; ++i) {
    const uint64_t trace_id = EntryAt(i)->record.trace_id;
    if (trace_id != 0) trace_.Record(trace_id, "log.durable.local", now_us, i);
  }
}

void LogService::AckAppend(
    uint64_t first, uint64_t count,
    std::function<void(const wire::ClientAppendResponse&)> reply) {
  loop_.AssertOnLoopThread();
  auto answer = [this, first, count, reply = std::move(reply)](bool committed) {
    wire::ClientAppendResponse r;
    if (committed) {
      r.result = wire::ClientResult::kOk;
      r.index = first;
      r.count = count;
    } else {
      r.result = wire::ClientResult::kNotLeader;
      r.leader_hint = static_cast<sim::NodeId>(leader_hint_);
    }
    reply(r);
  };
  const uint64_t last = first + count - 1;
  if (last <= commit_index_) {
    answer(true);
    return;
  }
  pending_acks_[last].push_back(
      [answer = std::move(answer)](bool committed, uint64_t) {
        answer(committed);
      });
}

void LogService::BroadcastAppendEntries() {
  for (uint64_t peer : peer_ids_) SendAppendEntries(peer);
}

void LogService::SendAppendEntries(uint64_t peer) {
  if (role_ != Role::kLeader || append_inflight_[peer]) return;
  uint64_t next = std::max(next_index_[peer], base_index_ + 1);
  next_index_[peer] = next;

  wire::AppendEntriesRequest req;
  req.term = current_term_;
  req.leader = static_cast<sim::NodeId>(options_.node_id);
  req.prev_index = next - 1;
  req.prev_term = TermAt(next - 1);
  req.commit_index = commit_index_;
  const uint64_t until =
      std::min(last_index(), next + options_.max_append_entries - 1);
  for (uint64_t i = next; i <= until; ++i) req.entries.push_back(*EntryAt(i));

  append_inflight_[peer] = true;
  const uint64_t term = current_term_;
  const size_t sent = req.entries.size();
  peer_channels_[peer]->Call(
      rpcwire::kRaftAppendEntries, req.Encode(), options_.raft_rpc_timeout_ms,
      0, [this, peer, term, sent](Status status, std::string payload) {
        append_inflight_[peer] = false;
        if (!status.ok() || role_ != Role::kLeader || current_term_ != term) {
          return;
        }
        wire::AppendEntriesResponse resp;
        if (!wire::AppendEntriesResponse::Decode(Slice(payload), &resp)) {
          return;
        }
        if (resp.term > current_term_) {
          BecomeFollower(resp.term);
          return;
        }
        if (resp.success) {
          if (sent > 0) entries_replicated_->Increment(sent);
          match_index_[peer] = std::max(match_index_[peer], resp.match_index);
          next_index_[peer] = match_index_[peer] + 1;
          AdvanceCommitIndex();
          if (next_index_[peer] <= last_index()) SendAppendEntries(peer);
        } else {
          // Follower's log diverges; back up (bounded below by its hint).
          next_index_[peer] =
              std::max(base_index_ + 1,
                       std::min(next_index_[peer] - 1, resp.match_index + 1));
          SendAppendEntries(peer);
        }
      });
}

void LogService::AdvanceCommitIndex() {
  loop_.AssertOnLoopThread();
  if (role_ != Role::kLeader) return;
  std::vector<uint64_t> durable;
  durable.push_back(durable_index_);
  for (uint64_t peer : peer_ids_) durable.push_back(match_index_[peer]);
  std::sort(durable.begin(), durable.end(), std::greater<uint64_t>());
  const size_t majority = (peer_ids_.size() + 1) / 2;  // 0-based quorum slot
  const uint64_t candidate = durable[majority];
  // Only entries of the current term commit by counting (Raft §5.4.2);
  // earlier-term entries commit transitively.
  if (candidate > commit_index_ && TermAt(candidate) == current_term_) {
    const uint64_t prev_commit = commit_index_;
    commit_index_ = candidate;
    commit_atomic_.store(commit_index_, std::memory_order_release);
    OnCommitAdvanced(prev_commit);
  }
}

void LogService::OnCommitAdvanced(uint64_t prev_commit) {
  commit_gauge_->Set(static_cast<int64_t>(commit_index_));
  if (role_ == Role::kLeader) {
    // Each traced record this leader appended commits here, every member
    // of a batch included, though the batch's one ack waits on its last.
    const uint64_t now_us = NowUs();
    for (uint64_t i = std::max(prev_commit, base_index_) + 1;
         i <= commit_index_; ++i) {
      const LogEntry* e = EntryAt(i);
      if (e->record.trace_id != 0 && e->term == current_term_) {
        trace_.Record(e->record.trace_id, "log.quorum.commit", now_us, i);
      }
    }
  }
  // Ack quorum-committed client appends (leader only; no-op elsewhere).
  while (!pending_acks_.empty() &&
         pending_acks_.begin()->first <= commit_index_) {
    const uint64_t index = pending_acks_.begin()->first;
    std::vector<AckCallback> cbs = std::move(pending_acks_.begin()->second);
    pending_acks_.erase(pending_acks_.begin());
    auto t0 = append_received_at_us_.find(index);
    if (t0 != append_received_at_us_.end()) {
      commit_latency_->Record(NowUs() - t0->second);
      append_received_at_us_.erase(t0);
    }
    for (AckCallback& cb : cbs) cb(true, index);
  }
  ApplyCommitted();
  WakeLongPolls();
}

void LogService::FailPendingAppends() {
  std::map<uint64_t, std::vector<AckCallback>> acks;
  acks.swap(pending_acks_);
  append_received_at_us_.clear();
  for (auto& [index, cbs] : acks) {
    for (AckCallback& cb : cbs) cb(false, 0);
  }
}

void LogService::ApplyCommitted() {
  loop_.AssertOnLoopThread();
  while (applied_index_ < commit_index_) {
    const LogEntry* e = EntryAt(applied_index_ + 1);
    if (e == nullptr) break;  // below base (trimmed) — nothing to apply
    if (e->record.type == RecordType::kLease) {
      rpcwire::LeaseGrant grant;
      if (rpcwire::LeaseGrant::Decode(Slice(e->record.payload), &grant)) {
        Lease& l = leases_[grant.shard_id];
        l.owner = grant.owner;
        l.expiry_ms = rpc::LoopThread::NowMs() + grant.duration_ms;
        // The committed table caught up to (at least) this grant; a newer
        // pending renewal re-registers itself when it applies.
        pending_leases_.erase(grant.shard_id);
      }
    }
    ++applied_index_;
  }
  if (applied_index_ < commit_index_) applied_index_ = commit_index_;
}

// --- raft message handlers -------------------------------------------------

void LogService::HandleRaftVote(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  wire::VoteRequest req;
  if (!wire::VoteRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  if (req.term > current_term_) BecomeFollower(req.term);
  wire::VoteResponse resp;
  resp.term = current_term_;
  const uint64_t cand = static_cast<uint64_t>(req.candidate);
  const uint64_t my_last_term = TermAt(last_index());
  const bool up_to_date =
      req.last_log_term > my_last_term ||
      (req.last_log_term == my_last_term && req.last_log_index >= last_index());
  if (req.term == current_term_ && (voted_for_ == 0 || voted_for_ == cand) &&
      up_to_date) {
    resp.granted = true;
    if (voted_for_ != cand) {
      voted_for_ = cand;
      PersistMeta();
    }
    ResetElectionTimer();
  }
  call.respond(rpc::Code::kOk, resp.Encode());
}

void LogService::HandleRaftAppendEntries(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  wire::AppendEntriesRequest req;
  if (!wire::AppendEntriesRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  wire::AppendEntriesResponse resp;
  if (req.term < current_term_) {
    resp.term = current_term_;
    resp.success = false;
    call.respond(rpc::Code::kOk, resp.Encode());
    return;
  }
  if (req.term > current_term_ || role_ != Role::kFollower) {
    BecomeFollower(req.term);
  } else {
    ResetElectionTimer();
  }
  leader_hint_ = static_cast<uint64_t>(req.leader);
  resp.term = current_term_;

  // Consistency check at prev_index.
  if (req.prev_index > last_index() ||
      (req.prev_index > base_index_ &&
       TermAt(req.prev_index) != req.prev_term)) {
    resp.success = false;
    resp.match_index = std::min(req.prev_index > 0 ? req.prev_index - 1 : 0,
                                durable_index_);
    call.respond(rpc::Code::kOk, resp.Encode());
    return;
  }

  uint64_t first_new = 0;
  for (LogEntry& entry : req.entries) {
    if (entry.index <= base_index_) continue;
    if (entry.index <= last_index()) {
      if (TermAt(entry.index) == entry.term) continue;  // already have it
      TruncateSuffixFrom(entry.index);                  // conflict: drop suffix
    }
    const uint64_t trace_id = entry.record.trace_id;
    if (entry.record.writer != 0 || entry.record.request_id != 0) {
      DedupInsert(entry.record.writer, entry.record.request_id, entry.index);
    }
    if (first_new == 0) first_new = entry.index;
    log_.push_back(std::move(entry));
    if (trace_id != 0) {
      trace_.Record(trace_id, "log.follower.durable", NowUs(), last_index());
    }
  }
  if (first_new != 0) {
    PersistLogSuffix(first_new);
    entries_replicated_->Increment(last_index() - first_new + 1);
  }
  durable_index_ = last_index();

  const uint64_t new_commit = std::min(req.commit_index, durable_index_);
  if (new_commit > commit_index_) {
    const uint64_t prev_commit = commit_index_;
    commit_index_ = new_commit;
    commit_atomic_.store(commit_index_, std::memory_order_release);
    OnCommitAdvanced(prev_commit);
  }
  resp.success = true;
  resp.match_index = durable_index_;
  call.respond(rpc::Code::kOk, resp.Encode());
}

// --- client-facing handlers ------------------------------------------------

void LogService::HandleClientAppend(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  client_appends_->Increment();
  wire::ClientAppendRequest req;
  if (!wire::ClientAppendRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  auto reply = [respond = call.respond](const wire::ClientAppendResponse& r) {
    respond(rpc::Code::kOk, r.Encode());
  };
  wire::ClientAppendResponse resp;
  if (role_ != Role::kLeader) {
    resp.result = wire::ClientResult::kNotLeader;
    resp.leader_hint = static_cast<sim::NodeId>(leader_hint_);
    reply(resp);
    return;
  }

  // Idempotent retry: records of this request that already entered the log
  // are re-acked at their original indexes instead of appended twice. This
  // is what makes a retried append after a dropped ack safe (§3.1). A batch
  // enters the log whole, so a retry finds all of it — or, after a leader
  // change, the prefix the new leader holds (AppendEntries may have carried
  // only part of it, or a torn tail cut it). That prefix is acked alone
  // (count < N) and the caller re-sends the rest.
  const size_t n = req.records.size();
  const uint64_t dup = DedupLookup(req.records[0]);
  if (dup != 0) {
    dedup_hits_->Increment();
    size_t found = 1;
    while (found < n && DedupLookup(req.records[found]) == dup + found) {
      ++found;
    }
    if (found < n && commit_index_ < barrier_index_) {
      // "The rest did not append" is only final once this leader's barrier
      // commits: before that, an older leader's copy could still commit.
      resp.result = wire::ClientResult::kUnavailable;
      reply(resp);
      return;
    }
    AckAppend(dup, found, std::move(reply));
    return;
  }

  if (commit_index_ < barrier_index_) {
    resp.result = wire::ClientResult::kUnavailable;
    reply(resp);
    return;
  }
  if (req.prev_index != wire::kUnconditional &&
      req.prev_index != last_index()) {
    resp.result = wire::ClientResult::kConditionFailed;
    resp.index = last_index();
    reply(resp);
    return;
  }

  // The whole batch in one loop turn: one persist (write + fsync), one
  // AppendEntries broadcast and one pending ack at its last index.
  const uint64_t first = last_index() + 1;
  const uint64_t now_us = NowUs();
  for (size_t i = 0; i < n; ++i) {
    if (req.records[i].trace_id != 0) {
      trace_.Record(req.records[i].trace_id, "log.append.receive", now_us,
                    first + i);
    }
  }
  AppendToLocalLog(std::move(req.records));
  append_received_at_us_[last_index()] = now_us;
  AckAppend(first, n, std::move(reply));
  AdvanceCommitIndex();  // single-replica groups commit immediately
  BroadcastAppendEntries();
}

void LogService::ServeRead(const rpcwire::ReadStreamRequest& req,
                           rpc::Server::Call& call) {
  wire::ClientReadResponse resp;
  resp.commit_index = commit_index_;
  resp.first_index = base_index_ + 1;
  const uint64_t max_count =
      std::min<uint64_t>(req.max_count, options_.max_read_batch);
  uint64_t index = std::max(req.from_index, base_index_ + 1);
  while (index <= commit_index_ && resp.entries.size() < max_count) {
    resp.entries.push_back(*EntryAt(index));
    ++index;
  }
  call.respond(rpc::Code::kOk, resp.Encode());
}

void LogService::HandleReadStream(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  rpcwire::ReadStreamRequest req;
  if (!rpcwire::ReadStreamRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  if (commit_index_ >= req.from_index || req.wait_ms == 0) {
    ServeRead(req, call);
    return;
  }
  // Long poll: park until commit reaches from_index or wait_ms elapses.
  const uint64_t id = next_waiter_id_++;
  Waiter w;
  w.id = id;
  w.req = req;
  w.call = std::move(call);
  w.timer_id = loop_.After(req.wait_ms, [this, id] {
    auto it = read_waiters_.find(id);
    if (it == read_waiters_.end()) return;
    it->second.timer_id = 0;
    ServeRead(it->second.req, it->second.call);  // answers empty
    read_waiters_.erase(it);
    read_waiters_gauge_->Set(static_cast<int64_t>(read_waiters_.size()));
  });
  read_waiters_.emplace(id, std::move(w));
  read_waiters_gauge_->Set(static_cast<int64_t>(read_waiters_.size()));
}

void LogService::WakeLongPolls() {
  for (auto it = read_waiters_.begin(); it != read_waiters_.end();) {
    if (commit_index_ >= it->second.req.from_index) {
      if (it->second.timer_id != 0) loop_.CancelTimer(it->second.timer_id);
      ServeRead(it->second.req, it->second.call);
      it = read_waiters_.erase(it);
    } else {
      ++it;
    }
  }
  read_waiters_gauge_->Set(static_cast<int64_t>(read_waiters_.size()));
}

void LogService::HandleTail(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  wire::ClientTailResponse resp;
  if (role_ != Role::kLeader) {
    resp.result = wire::ClientResult::kNotLeader;
    resp.leader_hint = static_cast<sim::NodeId>(leader_hint_);
  } else if (commit_index_ < barrier_index_) {
    resp.result = wire::ClientResult::kUnavailable;
  } else {
    resp.result = wire::ClientResult::kOk;
    resp.commit_index = commit_index_;
    resp.last_index = last_index();
    resp.consumers = read_waiters_.size();
  }
  call.respond(rpc::Code::kOk, resp.Encode());
}

void LogService::HandleTrim(rpc::Server::Call&& call) {
  loop_.AssertOnLoopThread();
  rpcwire::TrimRequest req;
  if (!rpcwire::TrimRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  // Never trim past what this replica has committed; the leader also keeps
  // everything a lagging follower still needs (there is no snapshot-install
  // path to catch a follower up once its history is gone).
  uint64_t upto = std::min(req.upto_index, commit_index_);
  if (role_ == Role::kLeader) {
    for (uint64_t peer : peer_ids_) {
      upto = std::min(upto, match_index_[peer]);
    }
  }
  if (upto > base_index_) TruncatePrefixTo(upto);
  rpcwire::TrimResponse resp;
  resp.first_index = base_index_ + 1;
  call.respond(rpc::Code::kOk, resp.Encode());
}

void LogService::HandleLease(rpc::Server::Call&& call, bool renew) {
  loop_.AssertOnLoopThread();
  rpcwire::LeaseRequest req;
  if (!rpcwire::LeaseRequest::Decode(Slice(call.payload), &req)) {
    call.respond(rpc::Code::kBadRequest, std::string());
    return;
  }
  auto reply = [respond = call.respond](rpcwire::LeaseResponse r) {
    respond(rpc::Code::kOk, r.Encode());
  };
  rpcwire::LeaseResponse resp;
  if (role_ != Role::kLeader) {
    resp.result = wire::ClientResult::kNotLeader;
    resp.leader_hint = leader_hint_;
    reply(resp);
    return;
  }
  if (commit_index_ < barrier_index_) {
    resp.result = wire::ClientResult::kUnavailable;
    reply(resp);
    return;
  }
  // Expiry is evaluated against the leader's clock only (§4.1.3): replicas
  // apply grants with their own clocks, but only the leader arbitrates.
  // A grant still in the commit window counts: otherwise two contenders
  // racing AcquireLease would both see the stale committed table and both
  // win. The newer (pending) grant shadows the committed one.
  const uint64_t now_ms = rpc::LoopThread::NowMs();
  const Lease* cur = nullptr;
  auto committed = leases_.find(req.shard_id);
  if (committed != leases_.end()) cur = &committed->second;
  auto pending = pending_leases_.find(req.shard_id);
  if (pending != pending_leases_.end() &&
      (cur == nullptr || pending->second.expiry_ms > cur->expiry_ms)) {
    cur = &pending->second;
  }
  const bool active = cur != nullptr && cur->expiry_ms > now_ms;
  const bool owned = active && cur->owner == req.owner;
  if ((renew && !owned) || (!renew && active && !owned)) {
    resp.result = wire::ClientResult::kConditionFailed;
    if (active) {
      resp.holder = cur->owner;
      resp.remaining_ms = cur->expiry_ms - now_ms;
    }
    reply(resp);
    return;
  }

  rpcwire::LeaseGrant grant;
  grant.owner = req.owner;
  grant.duration_ms = req.duration_ms;
  grant.shard_id = req.shard_id;
  LogRecord rec;
  rec.type = RecordType::kLease;
  rec.writer = req.owner;
  rec.trace_id = call.trace_id;
  rec.payload = grant.Encode();
  pending_leases_[req.shard_id] = {req.owner, now_ms + req.duration_ms};
  AppendToLocalLog({std::move(rec)});
  const uint64_t index = last_index();
  append_received_at_us_[index] = NowUs();
  const uint64_t owner = req.owner;
  const uint64_t duration = req.duration_ms;
  pending_acks_[index].push_back(
      [this, reply, owner, duration](bool committed, uint64_t idx) {
        rpcwire::LeaseResponse r;
        if (committed) {
          r.result = wire::ClientResult::kOk;
          r.holder = owner;
          r.remaining_ms = duration;
          r.index = idx;
        } else {
          r.result = wire::ClientResult::kUnavailable;
        }
        reply(r);
      });
  AdvanceCommitIndex();
  BroadcastAppendEntries();
}

void LogService::HandleMetricsScrape(rpc::Server::Call&& call) {
  call.respond(rpc::Code::kOk, metrics_.ExpositionText());
}

void LogService::HandleTraceDump(rpc::Server::Call&& call) {
  call.respond(rpc::Code::kOk,
               ExportSpansJsonl(trace_, TraceProcLabel()));
}

// --- persistence -----------------------------------------------------------
//
// Two files per replica:
//   meta: fixed-size term/voted_for block, written atomically (tmp+rename).
//   log:  framed entries (u32 len | entry | u32 crc), appended and fsynced
//         before the entry counts toward the quorum; suffix truncation
//         rewrites the file.

std::string LogService::MetaPath() const { return options_.data_dir + "/meta"; }
std::string LogService::LogPath() const { return options_.data_dir + "/log"; }

void LogService::PersistMeta() {
  loop_.AssertOnLoopThread();
  if (options_.data_dir.empty()) return;
  std::string body;
  PutFixed64(&body, current_term_);
  PutFixed64(&body, voted_for_);
  PutFixed64(&body, base_index_);
  PutFixed64(&body, base_term_);
  PutFixed32(&body, static_cast<uint32_t>(Crc64(0, body.data(), body.size())));
  const std::string tmp = MetaPath() + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return;
  ssize_t unused = ::write(fd, body.data(), body.size());
  (void)unused;
  // lint:allow-blocking -- fsync gates quorum acks by design (paper 3.1).
  if (options_.fsync) ::fsync(fd);
  ::close(fd);
  ::rename(tmp.c_str(), MetaPath().c_str());
}

void LogService::PersistLogSuffix(uint64_t from_index) {
  loop_.AssertOnLoopThread();
  if (options_.data_dir.empty()) return;
  if (log_fd_ < 0) {
    log_fd_ = ::open(LogPath().c_str(),
                     O_CREAT | O_APPEND | O_WRONLY | O_CLOEXEC, 0644);
    if (log_fd_ < 0) return;
  }
  std::string buf;
  for (uint64_t i = from_index; i <= last_index(); ++i) {
    std::string body;
    EntryAt(i)->EncodeTo(&body);
    PutFixed32(&buf, static_cast<uint32_t>(body.size()));
    buf.append(body);
    PutFixed32(&buf,
               static_cast<uint32_t>(Crc64(0, body.data(), body.size())));
  }
  size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(log_fd_, buf.data() + off, buf.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
  if (options_.fsync) {
    const uint64_t t0 = NowUs();
    ::fsync(log_fd_);  // lint:allow-blocking -- durability gate (paper 3.1)
    fsync_us_->Record(NowUs() - t0);
  }
  fsyncs_->Increment();
}

void LogService::RewriteLogFile() {
  if (options_.data_dir.empty()) return;
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    log_fd_ = -1;
  }
  const std::string tmp = LogPath() + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return;
  std::string buf;
  for (const LogEntry& e : log_) {
    std::string body;
    e.EncodeTo(&body);
    PutFixed32(&buf, static_cast<uint32_t>(body.size()));
    buf.append(body);
    PutFixed32(&buf,
               static_cast<uint32_t>(Crc64(0, body.data(), body.size())));
  }
  size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    off += static_cast<size_t>(n);
  }
  // lint:allow-blocking -- fsync gates quorum acks by design (paper 3.1).
  if (options_.fsync) ::fsync(fd);
  ::close(fd);
  ::rename(tmp.c_str(), LogPath().c_str());
  log_fd_ =
      ::open(LogPath().c_str(), O_CREAT | O_APPEND | O_WRONLY | O_CLOEXEC,
             0644);
}

Status LogService::LoadDisk() {
  if (options_.data_dir.empty()) return Status::OK();
  ::mkdir(options_.data_dir.c_str(), 0755);

  // Meta: term/vote plus the trimmed-prefix base (4 fixed64 + crc). The
  // legacy 2-field layout (pre-trim) is still accepted.
  {
    int fd = ::open(MetaPath().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      char raw[8 * 4 + 4];
      const ssize_t n = ::read(fd, raw, sizeof(raw));
      ::close(fd);
      uint64_t term = 0, voted = 0, base = 0, bterm = 0;
      bool valid = false;
      if (n == static_cast<ssize_t>(sizeof(raw))) {
        Decoder dec(Slice(raw, sizeof(raw)));
        uint32_t crc;
        valid = dec.GetFixed64(&term) && dec.GetFixed64(&voted) &&
                dec.GetFixed64(&base) && dec.GetFixed64(&bterm) &&
                dec.GetFixed32(&crc) &&
                crc == static_cast<uint32_t>(Crc64(0, raw, 32));
      } else if (n == 8 * 2 + 4) {
        Decoder dec(Slice(raw, 8 * 2 + 4));
        uint32_t crc;
        valid = dec.GetFixed64(&term) && dec.GetFixed64(&voted) &&
                dec.GetFixed32(&crc) &&
                crc == static_cast<uint32_t>(Crc64(0, raw, 16));
      }
      if (valid) {
        current_term_ = term;
        voted_for_ = voted;
        base_index_ = base;
        base_term_ = bterm;
        // History below the base was only discarded after it committed, so
        // the base is a committed floor across restarts.
        commit_index_ = applied_index_ = base_index_;
        commit_atomic_.store(commit_index_, std::memory_order_release);
        term_atomic_.store(current_term_, std::memory_order_release);
        term_gauge_->Set(static_cast<int64_t>(current_term_));
        base_index_gauge_->Set(static_cast<int64_t>(base_index_));
      }
    }
  }

  // Log: read frames until EOF or corruption (a torn tail is expected after
  // a crash mid-append — recover the clean prefix and drop the rest).
  std::string raw;
  {
    int fd = ::open(LogPath().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      char chunk[64 * 1024];
      for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) break;
        raw.append(chunk, static_cast<size_t>(n));
      }
      ::close(fd);
    }
  }
  size_t off = 0;
  bool torn = false;
  while (off + 8 <= raw.size()) {
    Decoder head(Slice(raw.data() + off, 4));
    uint32_t len = 0;
    head.GetFixed32(&len);
    if (off + 4 + len + 4 > raw.size()) break;
    const char* body = raw.data() + off + 4;
    Decoder tail(Slice(body + len, 4));
    uint32_t crc = 0;
    tail.GetFixed32(&crc);
    if (crc != static_cast<uint32_t>(Crc64(0, body, len))) {
      torn = true;
      break;
    }
    Decoder dec(Slice(body, len));
    LogEntry entry;
    if (!LogEntry::DecodeFrom(&dec, &entry)) {
      torn = true;
      break;
    }
    if (entry.index != last_index() + 1) {
      torn = true;
      break;
    }
    if (entry.record.writer != 0 || entry.record.request_id != 0) {
      DedupInsert(entry.record.writer, entry.record.request_id, entry.index);
    }
    log_.push_back(std::move(entry));
    off += 4 + len + 4;
  }
  durable_index_ = last_index();
  if (torn || off < raw.size()) RewriteLogFile();
  return Status::OK();
}

}  // namespace memdb::txlog
