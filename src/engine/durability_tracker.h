// DurabilityTracker: the client blocking tracker of §3.2, shared by both
// primaries (the simulated memorydb::Node and the socket RespServer).
//
// A primary executes a write at once and appends its effects to the
// transaction log behind it, as an append identified by a growing seq.
// Until the log commits that seq, nobody may observe the write:
//  * each key the write dirtied carries a hazard (the seq of its latest
//    unacknowledged write); a read depends on the largest over its keys;
//  * a reply is parked until the log is durable through the seq it depends
//    on (a write's own seq, a read's hazard), and never overtakes an older
//    parked reply of its client. A write's reply stays parked until its
//    seq is durable, so a reply parked behind it (WAIT's) waits as long;
//  * Release() hands back every reply the done floor covers, in seq order
//    and FIFO among equal seqs, and forgets the hazards the floor resolved;
//  * a reply that depends on a failed append is released as a failure (its
//    value may never reach the log), and ends its client's reply stream.
//
// Pure bookkeeping: no sockets, clocks or threads. `Client` is any hashable
// handle (a connection pointer, a request id); `Reply` is what the caller
// sends once released.

#ifndef MEMDB_ENGINE_DURABILITY_TRACKER_H_
#define MEMDB_ENGINE_DURABILITY_TRACKER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace memdb::engine {

template <typename Client, typename Reply>
class DurabilityTracker {
 public:
  void AddHazards(uint64_t seq, const std::vector<std::string>& keys) {
    for (const std::string& k : keys) hazards_[k] = seq;
  }
  // Largest unacknowledged seq hazarding any of `keys` (0 = none).
  uint64_t HazardFor(const std::vector<std::string>& keys) const {
    uint64_t hazard = 0;
    for (const std::string& k : keys) {
      const auto it = hazards_.find(k);
      if (it != hazards_.end()) hazard = std::max(hazard, it->second);
    }
    return hazard;
  }

  // True when a reply of `client` that depends on `seq` cannot be sent yet.
  bool MustPark(const Client& client, uint64_t seq) const {
    return seq > floor_ || blocked(client);
  }
  void Park(const Client& client, uint64_t seq, Reply reply) {
    Queue& q = queues_[client];
    q.back = std::max(q.back, seq);
    ++q.parked;
    parked_.emplace(q.back, Parked{client, seq, false, std::move(reply)});
  }

  // The log resolved every seq up to `seq`; ok = false means the append of
  // `seq` itself failed for good.
  void Complete(uint64_t seq, bool ok) {
    floor_ = std::max(floor_, seq);
    if (ok) return;
    for (auto it = parked_.lower_bound(seq); it != parked_.end(); ++it) {
      if (it->second.seq == seq) it->second.failed = true;
    }
  }
  // Calls fn(client, reply, ok) for every parked reply the floor covers;
  // ok = false when the reply depends on a failed append.
  template <typename Fn>
  void Release(Fn&& fn) {
    while (!parked_.empty() && parked_.begin()->first <= floor_) {
      Parked p = std::move(parked_.begin()->second);
      parked_.erase(parked_.begin());
      const auto q = queues_.find(p.client);
      if (p.failed) {
        Drop(p.client);
      } else if (--q->second.parked == 0) {
        queues_.erase(q);
      }
      fn(p.client, std::move(p.reply), !p.failed);
    }
    for (auto it = hazards_.begin(); it != hazards_.end();) {
      it = it->second <= floor_ ? hazards_.erase(it) : std::next(it);
    }
  }

  // Forgets `client`; its parked replies are dropped unsent.
  void Drop(const Client& client) {
    if (queues_.erase(client) == 0) return;
    for (auto it = parked_.begin(); it != parked_.end();) {
      it = it->second.client == client ? parked_.erase(it) : std::next(it);
    }
  }
  // Demotion: hands every parked reply to fn(client, reply) in seq order,
  // then resets all state.
  template <typename Fn>
  void Clear(Fn&& fn) {
    for (auto& [at, p] : parked_) fn(p.client, std::move(p.reply));
    *this = DurabilityTracker();
  }

  uint64_t floor() const { return floor_; }
  size_t hazards() const { return hazards_.size(); }
  size_t parked() const { return parked_.size(); }
  size_t blocked_clients() const { return queues_.size(); }
  bool blocked(const Client& c) const { return queues_.count(c) > 0; }

 private:
  struct Parked {
    Client client;
    uint64_t seq;  // the seq the reply depends on
    bool failed;
    Reply reply;
  };
  struct Queue {
    uint64_t back = 0;  // release seq of the client's newest parked reply
    size_t parked = 0;
  };

  std::unordered_map<std::string, uint64_t> hazards_;
  std::unordered_map<Client, Queue> queues_;  // clients with parked replies
  // Keyed by release seq: the larger of the seq the reply depends on and
  // its client's previous parked reply's. Equal seqs keep arrival order.
  std::multimap<uint64_t, Parked> parked_;
  uint64_t floor_ = 0;  // every seq at or below it is resolved
};

}  // namespace memdb::engine

#endif  // MEMDB_ENGINE_DURABILITY_TRACKER_H_
