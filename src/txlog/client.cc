#include "txlog/client.h"

#include <algorithm>

namespace memdb::txlog {

using sim::NodeId;

TxLogClient::TxLogClient(sim::Actor* owner, std::vector<NodeId> replicas)
    : TxLogClient(owner, std::move(replicas), Options{}) {}

TxLogClient::TxLogClient(sim::Actor* owner, std::vector<NodeId> replicas,
                         Options options)
    : owner_(owner), replicas_(std::move(replicas)), options_(options) {}

NodeId TxLogClient::PickTarget() {
  if (leader_hint_ != sim::kInvalidNode) {
    for (NodeId r : replicas_) {
      if (r == leader_hint_) return r;
    }
  }
  round_robin_ = (round_robin_ + 1) % replicas_.size();
  return replicas_[round_robin_];
}

void TxLogClient::Append(uint64_t prev_index, LogRecord record,
                         AppendCallback cb) {
  AppendAttempt(prev_index, record, std::move(cb), options_.max_attempts,
                /*sent_once=*/false);
}

void TxLogClient::AppendAttempt(uint64_t prev_index, const LogRecord& record,
                                AppendCallback cb, int attempts_left,
                                bool sent_once) {
  if (attempts_left <= 0) {
    // If any attempt actually reached a replica, the append may have landed.
    cb(sent_once ? Status::TimedOut("append unresolved")
                 : Status::Unavailable("log unreachable"),
       0);
    return;
  }
  wire::ClientAppendRequest req;
  req.prev_index = prev_index;
  req.records.push_back(record);
  const NodeId target = PickTarget();
  owner_->Rpc(
      target, wire::kClientAppend, req.Encode(), options_.rpc_timeout,
      [this, prev_index, record, cb = std::move(cb), attempts_left,
       sent_once](const Status& s, const std::string& body) mutable {
        if (s.IsTimedOut() || s.IsUnavailable()) {
          // The request may have been executed (leader crashed after
          // committing, network partition...). Retry against another
          // replica; a duplicate conditional append cannot double-commit
          // (the precondition fails) and is resolved below.
          leader_hint_ = sim::kInvalidNode;
          owner_->After(options_.retry_backoff,
                        [this, prev_index, record, cb = std::move(cb),
                         attempts_left]() mutable {
                          AppendAttempt(prev_index, record, std::move(cb),
                                        attempts_left - 1, /*sent_once=*/true);
                        });
          return;
        }
        if (!s.ok()) {
          cb(s, 0);
          return;
        }
        wire::ClientAppendResponse resp;
        if (!wire::ClientAppendResponse::Decode(body, &resp)) {
          cb(Status::Corruption("bad append response"), 0);
          return;
        }
        switch (resp.result) {
          case wire::ClientResult::kOk:
            leader_hint_ = resp.leader_hint;
            cb(Status::OK(), resp.index);
            return;
          case wire::ClientResult::kConditionFailed:
            leader_hint_ = resp.leader_hint;
            if (sent_once && prev_index != wire::kUnconditional &&
                record.request_id != 0) {
              // An earlier attempt may have landed; search for it.
              ResolveAppend(prev_index, record, resp.index, std::move(cb));
              return;
            }
            cb(Status::ConditionFailed("log tail moved"), resp.index);
            return;
          case wire::ClientResult::kNotLeader:
          case wire::ClientResult::kUnavailable:
            leader_hint_ = resp.leader_hint;
            owner_->After(options_.retry_backoff,
                          [this, prev_index, record, cb = std::move(cb),
                           attempts_left, sent_once]() mutable {
                            AppendAttempt(prev_index, record, std::move(cb),
                                          attempts_left - 1, sent_once);
                          });
            return;
        }
      });
}

void TxLogClient::ResolveAppend(uint64_t prev_index, const LogRecord& record,
                                uint64_t tail, AppendCallback cb) {
  // Scan (prev_index, tail] for an entry matching (writer, request_id). If
  // present, an earlier attempt committed: report success at that index.
  Read(prev_index + 1, tail > prev_index ? tail - prev_index : 64,
       [this, prev_index, record, tail, cb = std::move(cb)](
           const Status& s, const wire::ClientReadResponse& resp) mutable {
         if (!s.ok()) {
           cb(Status::TimedOut("append unresolved (read failed)"), 0);
           return;
         }
         for (const LogEntry& e : resp.entries) {
           if (e.record.writer == record.writer &&
               e.record.request_id == record.request_id) {
             cb(Status::OK(), e.index);
             return;
           }
         }
         if (!resp.entries.empty() && resp.entries.back().index < tail &&
             resp.commit_index > resp.entries.back().index) {
           ResolveAppend(resp.entries.back().index, record, tail,
                         std::move(cb));
           return;
         }
         cb(Status::ConditionFailed("log tail moved"), tail);
       });
}

void TxLogClient::Read(uint64_t from_index, uint64_t max_count,
                       ReadCallback cb) {
  wire::ClientReadRequest req;
  req.from_index = from_index;
  req.max_count = max_count;
  // Reads are served from any replica's committed prefix; prefer a replica
  // in our own AZ-free round-robin for load spreading.
  const NodeId target = replicas_[round_robin_++ % replicas_.size()];
  owner_->Rpc(target, wire::kClientRead, req.Encode(), options_.rpc_timeout,
              [cb = std::move(cb)](const Status& s, const std::string& body) {
                wire::ClientReadResponse resp;
                if (!s.ok()) {
                  cb(s, resp);
                  return;
                }
                if (!wire::ClientReadResponse::Decode(body, &resp)) {
                  cb(Status::Corruption("bad read response"), resp);
                  return;
                }
                cb(Status::OK(), resp);
              });
}

void TxLogClient::Tail(TailCallback cb) {
  TailAttempt(std::move(cb), options_.max_attempts);
}

void TxLogClient::TailAttempt(TailCallback cb, int attempts_left) {
  if (attempts_left <= 0) {
    cb(Status::Unavailable("no log leader reachable"),
       wire::ClientTailResponse{});
    return;
  }
  const NodeId target = PickTarget();
  owner_->Rpc(
      target, wire::kClientTail, "", options_.rpc_timeout,
      [this, cb = std::move(cb), attempts_left](const Status& s,
                                                const std::string& body) mutable {
        wire::ClientTailResponse resp;
        if (!s.ok() || !wire::ClientTailResponse::Decode(body, &resp) ||
            resp.result == wire::ClientResult::kNotLeader ||
            resp.result == wire::ClientResult::kUnavailable) {
          if (s.ok()) leader_hint_ = resp.leader_hint;
          if (!s.ok()) leader_hint_ = sim::kInvalidNode;
          owner_->After(options_.retry_backoff,
                        [this, cb = std::move(cb), attempts_left]() mutable {
                          TailAttempt(std::move(cb), attempts_left - 1);
                        });
          return;
        }
        leader_hint_ = resp.leader_hint;
        cb(Status::OK(), resp);
      });
}

void TxLogClient::Trim(uint64_t upto_index) {
  wire::ClientReadRequest req;
  req.from_index = upto_index;
  for (NodeId r : replicas_) {
    owner_->Rpc(r, wire::kClientTrim, req.Encode(), options_.rpc_timeout,
                [](const Status&, const std::string&) {});
  }
}

}  // namespace memdb::txlog
