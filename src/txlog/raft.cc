#include "txlog/raft.h"

#include <algorithm>

#include "txlog/wire.h"

namespace memdb::txlog {

using sim::Duration;
using sim::Message;
using sim::NodeId;

RaftReplica::RaftReplica(sim::Simulation* sim, NodeId id,
                         std::vector<NodeId> peers,
                         std::shared_ptr<RaftPersistentState> persistent,
                         RaftOptions options)
    : Actor(sim, id),
      peers_(std::move(peers)),
      persistent_(std::move(persistent)),
      options_(options),
      rng_(sim->rng().Next() ^ id),
      disk_(&sim->scheduler(), 1) {
  On(wire::kVoteReq, [this](const Message& m) { HandleVoteRequest(m); });
  On(wire::kAppendEntriesReq,
     [this](const Message& m) { HandleAppendEntriesRequest(m); });
  On(wire::kClientAppend, [this](const Message& m) { HandleClientAppend(m); });
  On(wire::kClientRead, [this](const Message& m) { HandleClientRead(m); });
  On(wire::kClientTail, [this](const Message& m) { HandleClientTail(m); });
  On(wire::kClientTrim, [this](const Message& m) { HandleClientTrim(m); });
  // On process start, everything already fsynced counts as durable.
  durable_index_ = last_index();
  elections_started_ = metrics_.GetCounter("raft_elections_started_total");
  leader_elected_ = metrics_.GetCounter("raft_leader_elected_total");
  client_appends_ = metrics_.GetCounter("raft_client_appends_total");
  entries_replicated_ = metrics_.GetCounter("raft_entries_replicated_total");
  term_gauge_ = metrics_.GetGauge("raft_term");
  commit_gauge_ = metrics_.GetGauge("raft_commit_index");
  commit_latency_ = metrics_.GetHistogram("raft_append_commit_latency_us");
  term_gauge_->Set(static_cast<int64_t>(persistent_->current_term));
  ResetElectionTimer();
}

void RaftReplica::OnRestart() {
  Actor::OnRestart();
  // Volatile state resets; persistent_ (the disk) survives.
  role_ = RaftRole::kFollower;
  leader_hint_ = sim::kInvalidNode;
  commit_index_ = 0;
  durable_index_ = last_index();
  votes_received_ = 0;
  ++election_epoch_;
  next_index_.clear();
  match_index_.clear();
  append_inflight_.clear();
  pending_appends_.clear();
  append_received_at_.clear();
  barrier_index_ = 0;
  heartbeat_loop_running_ = false;  // the periodic timer died with the crash
  ResetElectionTimer();
}

uint64_t RaftReplica::last_index() const {
  return persistent_->base_index + persistent_->log.size();
}

const LogEntry* RaftReplica::EntryAt(uint64_t index) const {
  if (index <= persistent_->base_index || index > last_index()) return nullptr;
  return &persistent_->log[index - persistent_->base_index - 1];
}

uint64_t RaftReplica::TermAt(uint64_t index) const {
  if (index == 0) return 0;
  if (index == persistent_->base_index) return persistent_->base_term;
  const LogEntry* e = EntryAt(index);
  return e == nullptr ? 0 : e->term;
}

void RaftReplica::TruncateSuffixFrom(uint64_t index) {
  while (last_index() >= index && !persistent_->log.empty()) {
    persistent_->log.pop_back();
  }
  durable_index_ = std::min(durable_index_, last_index());
}

std::vector<LogEntry> RaftReplica::CommittedEntries(uint64_t from,
                                                    size_t count) const {
  std::vector<LogEntry> out;
  for (uint64_t i = std::max(from, persistent_->base_index + 1);
       i <= commit_index_ && out.size() < count; ++i) {
    const LogEntry* e = EntryAt(i);
    if (e == nullptr) break;
    out.push_back(*e);
  }
  return out;
}

// --------------------------------------------------------------- elections

void RaftReplica::ResetElectionTimer() {
  election_timer_.Cancel();
  const Duration timeout =
      rng_.UniformRange(options_.election_timeout_min,
                        options_.election_timeout_max);
  election_timer_ = After(timeout, [this] { StartElection(); });
}

void RaftReplica::BecomeFollower(uint64_t term) {
  if (term > persistent_->current_term) {
    persistent_->current_term = term;
    persistent_->voted_for = sim::kInvalidNode;
    term_gauge_->Set(static_cast<int64_t>(term));
  }
  const bool was_leader = (role_ == RaftRole::kLeader);
  role_ = RaftRole::kFollower;
  ++election_epoch_;
  if (was_leader) {
    FailPendingAppends(Status::Unavailable("log leadership lost"));
  }
  ResetElectionTimer();
}

void RaftReplica::StartElection() {
  role_ = RaftRole::kCandidate;
  ++persistent_->current_term;
  elections_started_->Increment();
  term_gauge_->Set(static_cast<int64_t>(persistent_->current_term));
  persistent_->voted_for = id();
  votes_received_ = 1;  // self
  const uint64_t epoch = ++election_epoch_;
  ResetElectionTimer();

  wire::VoteRequest req;
  req.term = persistent_->current_term;
  req.candidate = id();
  req.last_log_index = last_index();
  req.last_log_term = TermAt(last_index());
  const std::string payload = req.Encode();
  for (NodeId peer : peers_) {
    Rpc(peer, wire::kVoteReq, payload, options_.rpc_timeout,
        [this, epoch](const Status& s, const std::string& body) {
          if (!s.ok() || epoch != election_epoch_ ||
              role_ != RaftRole::kCandidate) {
            return;
          }
          wire::VoteResponse resp;
          if (!wire::VoteResponse::Decode(body, &resp)) return;
          if (resp.term > persistent_->current_term) {
            BecomeFollower(resp.term);
            return;
          }
          if (resp.granted && resp.term == persistent_->current_term) {
            if (++votes_received_ >
                static_cast<int>(peers_.size() + 1) / 2) {
              BecomeLeader();
            }
          }
        });
  }
}

void RaftReplica::HandleVoteRequest(const Message& m) {
  wire::VoteRequest req;
  if (!wire::VoteRequest::Decode(m.payload, &req)) return;
  if (req.term > persistent_->current_term) BecomeFollower(req.term);

  wire::VoteResponse resp;
  resp.term = persistent_->current_term;
  const bool up_to_date =
      req.last_log_term > TermAt(last_index()) ||
      (req.last_log_term == TermAt(last_index()) &&
       req.last_log_index >= last_index());
  if (req.term == persistent_->current_term &&
      (persistent_->voted_for == sim::kInvalidNode ||
       persistent_->voted_for == req.candidate) &&
      up_to_date) {
    persistent_->voted_for = req.candidate;
    resp.granted = true;
    ResetElectionTimer();
  }
  Reply(m, resp.Encode());
}

void RaftReplica::BecomeLeader() {
  role_ = RaftRole::kLeader;
  leader_hint_ = id();
  leader_elected_->Increment();
  ++election_epoch_;
  election_timer_.Cancel();
  next_index_.clear();
  match_index_.clear();
  append_inflight_.clear();
  for (NodeId peer : peers_) {
    next_index_[peer] = last_index() + 1;
    match_index_[peer] = 0;
    append_inflight_[peer] = false;
  }
  // Barrier no-op: conditional appends wait until an entry of this term
  // commits, which establishes the true tail (Raft leader completeness).
  LogRecord noop;
  noop.type = RecordType::kNoop;
  AppendToLocalLog(std::move(noop));
  barrier_index_ = last_index();
  BroadcastAppendEntries();
  if (!heartbeat_loop_running_) {
    heartbeat_loop_running_ = true;
    Periodic(options_.heartbeat_interval, [this] {
      if (role_ == RaftRole::kLeader) BroadcastAppendEntries();
    });
  }
}

// --------------------------------------------------------------- leader ops

void RaftReplica::AppendToLocalLog(LogRecord record) {
  LogEntry entry;
  entry.term = persistent_->current_term;
  entry.index = last_index() + 1;
  entry.record = std::move(record);
  const uint64_t trace_id = entry.record.trace_id;
  persistent_->log.push_back(std::move(entry));
  const uint64_t upto = last_index();
  disk_.SubmitAnd(options_.disk_write_us, [this, upto, trace_id] {
    if (!alive()) return;
    durable_index_ = std::max(durable_index_, std::min(upto, last_index()));
    trace_.Record(trace_id, "log.durable.local", Now(), upto);
    if (role_ == RaftRole::kLeader) AdvanceCommitIndex();
  });
}

void RaftReplica::BroadcastAppendEntries() {
  for (NodeId peer : peers_) SendAppendEntries(peer);
}

void RaftReplica::SendAppendEntries(NodeId peer) {
  if (role_ != RaftRole::kLeader || append_inflight_[peer]) return;
  const uint64_t next = next_index_[peer];
  // If the follower is behind our truncated prefix it must restore from a
  // snapshot; we keep probing at the base (migration/recovery layers handle
  // snapshot installs at the DB level).
  wire::AppendEntriesRequest req;
  req.term = persistent_->current_term;
  req.leader = id();
  req.prev_index = next - 1;
  req.prev_term = TermAt(next - 1);
  req.commit_index = commit_index_;
  for (uint64_t i = next; i <= last_index() && req.entries.size() < 64; ++i) {
    const LogEntry* e = EntryAt(i);
    if (e == nullptr) break;
    req.entries.push_back(*e);
  }
  append_inflight_[peer] = true;
  const uint64_t epoch = election_epoch_;
  Rpc(peer, wire::kAppendEntriesReq, req.Encode(), options_.rpc_timeout,
      [this, peer, epoch](const Status& s, const std::string& body) {
        if (epoch != election_epoch_ || role_ != RaftRole::kLeader) return;
        append_inflight_[peer] = false;
        if (!s.ok()) return;  // retry on next heartbeat
        wire::AppendEntriesResponse resp;
        if (!wire::AppendEntriesResponse::Decode(body, &resp)) return;
        if (resp.term > persistent_->current_term) {
          BecomeFollower(resp.term);
          return;
        }
        if (resp.success) {
          match_index_[peer] = std::max(match_index_[peer], resp.match_index);
          next_index_[peer] = match_index_[peer] + 1;
          Gauge*& lag = peer_lag_gauges_[peer];
          if (lag == nullptr) {
            lag = metrics_.GetGauge("raft_replication_lag",
                                    {{"peer", std::to_string(peer)}});
          }
          lag->Set(static_cast<int64_t>(last_index() - match_index_[peer]));
          AdvanceCommitIndex();
        } else {
          next_index_[peer] =
              std::max<uint64_t>(1, std::min(resp.match_index + 1,
                                             next_index_[peer] - 1));
        }
        if (next_index_[peer] <= last_index()) SendAppendEntries(peer);
      });
}

void RaftReplica::AdvanceCommitIndex() {
  if (role_ != RaftRole::kLeader) return;
  std::vector<uint64_t> matches;
  matches.push_back(durable_index_);
  for (const auto& [peer, match] : match_index_) matches.push_back(match);
  std::sort(matches.begin(), matches.end(), std::greater<uint64_t>());
  const uint64_t majority_match = matches[matches.size() / 2];
  if (majority_match > commit_index_ &&
      TermAt(majority_match) == persistent_->current_term) {
    commit_index_ = majority_match;
    commit_gauge_->Set(static_cast<int64_t>(commit_index_));
    MaybeAckClients();
  }
}

void RaftReplica::MaybeAckClients() {
  while (!pending_appends_.empty() &&
         pending_appends_.begin()->first <= commit_index_) {
    auto it = pending_appends_.begin();
    const LogEntry* e = EntryAt(it->first);
    if (e != nullptr) {
      trace_.Record(e->record.trace_id, "log.quorum.commit", Now(), it->first);
    }
    auto recv = append_received_at_.find(it->first);
    if (recv != append_received_at_.end()) {
      commit_latency_->Record(Now() - recv->second);
      append_received_at_.erase(recv);
    }
    wire::ClientAppendResponse resp;
    resp.result = wire::ClientResult::kOk;
    resp.index = it->second.first_index;
    resp.count = it->first - it->second.first_index + 1;
    resp.leader_hint = id();
    Reply(it->second.request, resp.Encode());
    pending_appends_.erase(it);
  }
}

void RaftReplica::FailPendingAppends(const Status& status) {
  for (auto& [index, pending] : pending_appends_) {
    wire::ClientAppendResponse resp;
    resp.result = wire::ClientResult::kUnavailable;
    resp.leader_hint = leader_hint_;
    Reply(pending.request, resp.Encode());
  }
  pending_appends_.clear();
  append_received_at_.clear();
}

// --------------------------------------------------------------- followers

void RaftReplica::HandleAppendEntriesRequest(const Message& m) {
  wire::AppendEntriesRequest req;
  if (!wire::AppendEntriesRequest::Decode(m.payload, &req)) return;

  wire::AppendEntriesResponse resp;
  if (req.term < persistent_->current_term) {
    resp.term = persistent_->current_term;
    resp.success = false;
    Reply(m, resp.Encode());
    return;
  }
  if (req.term > persistent_->current_term ||
      role_ != RaftRole::kFollower) {
    BecomeFollower(req.term);
  }
  leader_hint_ = req.leader;
  ResetElectionTimer();
  resp.term = persistent_->current_term;

  // Consistency check on the previous entry.
  if (req.prev_index > last_index() ||
      (req.prev_index > persistent_->base_index &&
       TermAt(req.prev_index) != req.prev_term)) {
    resp.success = false;
    resp.match_index = std::min(req.prev_index == 0 ? 0 : req.prev_index - 1,
                                last_index());
    Reply(m, resp.Encode());
    return;
  }

  // Append new entries, resolving conflicts by truncation.
  uint64_t appended_upto = req.prev_index;
  // (trace_id, index) of entries newly persisted by this call, stamped as
  // follower-durable once the modeled fsync completes.
  std::vector<std::pair<uint64_t, uint64_t>> traced;
  for (const LogEntry& e : req.entries) {
    const LogEntry* existing = EntryAt(e.index);
    if (existing != nullptr) {
      if (existing->term == e.term) {
        appended_upto = e.index;
        continue;  // already have it
      }
      TruncateSuffixFrom(e.index);
    }
    if (e.index == last_index() + 1) {
      persistent_->log.push_back(e);
      entries_replicated_->Increment();
      if (e.record.trace_id != 0) {
        traced.emplace_back(e.record.trace_id, e.index);
      }
      appended_upto = e.index;
    }
  }

  const uint64_t match = appended_upto;
  const uint64_t leader_commit = req.commit_index;
  // Ack only after the batch is durable locally (this is the multi-AZ
  // durability guarantee: commit requires 2 of 3 AZ fsyncs).
  const Duration cost =
      options_.disk_write_us * std::max<uint64_t>(1, req.entries.size());
  disk_.SubmitAnd(cost, [this, m, match, leader_commit,
                         traced = std::move(traced)] {
    if (!alive()) return;
    durable_index_ = std::max(durable_index_, std::min(match, last_index()));
    commit_index_ =
        std::max(commit_index_, std::min(leader_commit, durable_index_));
    commit_gauge_->Set(static_cast<int64_t>(commit_index_));
    for (const auto& [trace_id, index] : traced) {
      trace_.Record(trace_id, "log.follower.durable", Now(), index);
    }
    wire::AppendEntriesResponse out;
    out.term = persistent_->current_term;
    out.success = true;
    out.match_index = match;
    Reply(m, out.Encode());
  });
}

// --------------------------------------------------------------- client API

void RaftReplica::HandleClientAppend(const Message& m) {
  wire::ClientAppendRequest req;
  if (!wire::ClientAppendRequest::Decode(m.payload, &req)) {
    ReplyError(m, Status::InvalidArgument("bad append request"));
    return;
  }
  wire::ClientAppendResponse resp;
  resp.leader_hint = leader_hint_;
  if (role_ != RaftRole::kLeader) {
    resp.result = wire::ClientResult::kNotLeader;
    Reply(m, resp.Encode());
    return;
  }
  if (commit_index_ < barrier_index_) {
    resp.result = wire::ClientResult::kUnavailable;
    resp.leader_hint = id();
    Reply(m, resp.Encode());
    return;
  }
  if (req.prev_index != wire::kUnconditional &&
      req.prev_index != last_index()) {
    resp.result = wire::ClientResult::kConditionFailed;
    resp.index = last_index();
    resp.leader_hint = id();
    Reply(m, resp.Encode());
    return;
  }
  client_appends_->Increment();
  // A batch appends every record, at contiguous indexes, and is acked once
  // its last record commits.
  const uint64_t first = last_index() + 1;
  for (LogRecord& record : req.records) {
    const uint64_t trace_id = record.trace_id;
    AppendToLocalLog(std::move(record));
    trace_.Record(trace_id, "log.append.receive", Now(), last_index());
  }
  append_received_at_[last_index()] = Now();
  pending_appends_.emplace(last_index(), PendingAppend{m, first});
  BroadcastAppendEntries();
}

void RaftReplica::HandleClientRead(const Message& m) {
  wire::ClientReadRequest req;
  if (!wire::ClientReadRequest::Decode(m.payload, &req)) {
    ReplyError(m, Status::InvalidArgument("bad read request"));
    return;
  }
  wire::ClientReadResponse resp;
  resp.commit_index = commit_index_;
  resp.first_index = persistent_->base_index + 1;
  const size_t cap = std::min<uint64_t>(req.max_count, options_.max_read_batch);
  resp.entries = CommittedEntries(req.from_index, cap);
  Reply(m, resp.Encode());
}

void RaftReplica::HandleClientTail(const Message& m) {
  wire::ClientTailResponse resp;
  resp.commit_index = commit_index_;
  resp.last_index = last_index();
  resp.leader_hint = leader_hint_;
  if (role_ != RaftRole::kLeader) {
    resp.result = wire::ClientResult::kNotLeader;
  } else if (commit_index_ < barrier_index_) {
    resp.result = wire::ClientResult::kUnavailable;
  } else {
    resp.result = wire::ClientResult::kOk;
  }
  Reply(m, resp.Encode());
}

void RaftReplica::HandleClientTrim(const Message& m) {
  wire::ClientReadRequest req;  // reuse: from_index = trim-up-to
  if (!wire::ClientReadRequest::Decode(m.payload, &req)) return;
  uint64_t upto = std::min(req.from_index, commit_index_);
  if (role_ == RaftRole::kLeader) {
    // Never trim entries a follower may still need for catch-up.
    for (const auto& [peer, match] : match_index_) {
      upto = std::min(upto, match);
    }
  }
  while (persistent_->base_index < upto && !persistent_->log.empty()) {
    persistent_->base_term = persistent_->log.front().term;
    persistent_->log.pop_front();
    ++persistent_->base_index;
  }
  Reply(m, "");
}

}  // namespace memdb::txlog
