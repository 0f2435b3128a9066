#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "rpc/loop.h"
#include "sim/simulation.h"
#include "txlog/client.h"
#include "txlog/group.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/service.h"

namespace memdb::txlog {
namespace {

using sim::kMs;
using sim::kSec;
using sim::NodeId;

// A simulated database-node-like client of the log service.
class TestClient : public sim::Actor {
 public:
  TestClient(sim::Simulation* sim, NodeId id, std::vector<NodeId> replicas)
      : Actor(sim, id), log(this, std::move(replicas)) {}

  TxLogClient log;
};

LogRecord DataRecord(const std::string& payload, uint64_t writer = 1,
                     uint64_t request_id = 0) {
  LogRecord r;
  r.type = RecordType::kData;
  r.writer = writer;
  r.request_id = request_id;
  r.payload = payload;
  return r;
}

class TxLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(1234);
    group_ = std::make_unique<LogGroup>(sim_.get());
    client_node_ = sim_->AddHost(0);
    client_ = std::make_unique<TestClient>(sim_.get(), client_node_,
                                           group_->replica_ids());
    // Let the first election settle.
    sim_->RunFor(2 * kSec);
  }

  // Appends synchronously (runs the sim until the callback fires).
  Status AppendSync(uint64_t prev, const std::string& payload,
                    uint64_t* index_out = nullptr, uint64_t writer = 1,
                    uint64_t request_id = 0) {
    Status result = Status::Internal("callback never ran");
    bool done = false;
    client_->log.Append(prev, DataRecord(payload, writer, request_id),
                        [&](const Status& s, uint64_t index) {
                          result = s;
                          if (index_out != nullptr) *index_out = index;
                          done = true;
                        });
    for (int i = 0; i < 10000 && !done; ++i) {
      sim_->RunFor(10 * kMs);
    }
    EXPECT_TRUE(done);
    return result;
  }

  std::vector<LogEntry> ReadAllSync() {
    std::vector<LogEntry> all;
    uint64_t from = 1;
    while (true) {
      bool done = false;
      wire::ClientReadResponse got;
      Status status = Status::OK();
      client_->log.Read(from, 128, [&](const Status& s,
                                       const wire::ClientReadResponse& r) {
        status = s;
        got = r;
        done = true;
      });
      for (int i = 0; i < 10000 && !done; ++i) sim_->RunFor(10 * kMs);
      EXPECT_TRUE(done);
      if (!status.ok() || got.entries.empty()) break;
      from = got.entries.back().index + 1;
      for (auto& e : got.entries) all.push_back(std::move(e));
    }
    return all;
  }

  // Data payloads in committed order.
  std::vector<std::string> DataPayloads() {
    std::vector<std::string> out;
    for (const LogEntry& e : ReadAllSync()) {
      if (e.record.type == RecordType::kData) out.push_back(e.record.payload);
    }
    return out;
  }

  uint64_t TailSync() {
    bool done = false;
    wire::ClientTailResponse resp;
    client_->log.Tail([&](const Status& s, const wire::ClientTailResponse& r) {
      resp = r;
      done = true;
    });
    for (int i = 0; i < 10000 && !done; ++i) sim_->RunFor(10 * kMs);
    EXPECT_TRUE(done);
    return resp.last_index;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<LogGroup> group_;
  NodeId client_node_;
  std::unique_ptr<TestClient> client_;
};

TEST_F(TxLogTest, ElectsExactlyOneLeader) {
  int leaders = 0;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST_F(TxLogTest, AppendCommitsAndReadsBack) {
  uint64_t index = 0;
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "hello", &index).ok());
  EXPECT_GT(index, 0u);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "world").ok());
  EXPECT_EQ(DataPayloads(), (std::vector<std::string>{"hello", "world"}));
}

TEST_F(TxLogTest, AppendIsDurableOnAllReplicasEventually) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "e" + std::to_string(i)).ok());
  }
  sim_->RunFor(1 * kSec);  // heartbeats propagate the commit index
  for (size_t i = 0; i < group_->size(); ++i) {
    auto entries = group_->replica(i)->CommittedEntries(1, 1000);
    int data = 0;
    for (const auto& e : entries) {
      if (e.record.type == RecordType::kData) ++data;
    }
    EXPECT_EQ(data, 10) << "replica " << i;
  }
}

// The simulator's log takes a multi-record request whole: every record is
// appended at contiguous indexes, and the one ack carries the first index
// and the count. No record is dropped.
TEST_F(TxLogTest, MultiRecordAppendCommitsEveryRecordContiguously) {
  NodeId leader = sim::kInvalidNode;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) leader = group_->replica_ids()[i];
  }
  ASSERT_NE(leader, sim::kInvalidNode);
  wire::ClientAppendRequest req;
  for (const char* p : {"m-0", "m-1", "m-2"}) {
    req.records.push_back(DataRecord(p));
  }
  bool done = false;
  wire::ClientAppendResponse resp;
  client_->Rpc(leader, wire::kClientAppend, req.Encode(), 1 * kSec,
               [&](const Status& s, const std::string& body) {
                 EXPECT_TRUE(s.ok()) << s.ToString();
                 EXPECT_TRUE(
                     wire::ClientAppendResponse::Decode(Slice(body), &resp));
                 done = true;
               });
  for (int i = 0; i < 1000 && !done; ++i) sim_->RunFor(10 * kMs);
  ASSERT_TRUE(done);
  ASSERT_EQ(resp.result, wire::ClientResult::kOk);
  EXPECT_EQ(resp.count, 3u);
  std::map<uint64_t, std::string> data;
  for (const LogEntry& e : ReadAllSync()) {
    if (e.record.type == RecordType::kData) data[e.index] = e.record.payload;
  }
  EXPECT_EQ(data, (std::map<uint64_t, std::string>{{resp.index, "m-0"},
                                                   {resp.index + 1, "m-1"},
                                                   {resp.index + 2, "m-2"}}));
}

TEST_F(TxLogTest, ConditionalAppendCasSemantics) {
  uint64_t tail = TailSync();
  uint64_t i1 = 0;
  ASSERT_TRUE(AppendSync(tail, "a", &i1).ok());
  EXPECT_EQ(i1, tail + 1);
  // Stale precondition fails and reports the actual tail.
  uint64_t actual = 0;
  Status s = AppendSync(tail, "b", &actual);
  EXPECT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(actual, i1);
  // Correct precondition succeeds.
  ASSERT_TRUE(AppendSync(i1, "c").ok());
  EXPECT_EQ(DataPayloads(), (std::vector<std::string>{"a", "c"}));
}

TEST_F(TxLogTest, FencingTwoWriters) {
  // Both writers observe the same tail; only one conditional append wins —
  // the paper's leader-election primitive (§4.1.2).
  const uint64_t tail = TailSync();
  Status s1 = Status::Internal("pending"), s2 = Status::Internal("pending");
  int done = 0;
  client_->log.Append(tail, DataRecord("writer1-claim", 1),
                      [&](const Status& s, uint64_t) { s1 = s; ++done; });
  client_->log.Append(tail, DataRecord("writer2-claim", 2),
                      [&](const Status& s, uint64_t) { s2 = s; ++done; });
  for (int i = 0; i < 10000 && done < 2; ++i) sim_->RunFor(10 * kMs);
  ASSERT_EQ(done, 2);
  EXPECT_NE(s1.ok(), s2.ok());  // exactly one winner
  EXPECT_TRUE((s1.ok() && s2.IsConditionFailed()) ||
              (s2.ok() && s1.IsConditionFailed()));
}

TEST_F(TxLogTest, CommittedEntriesSurviveLeaderCrash) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "pre" + std::to_string(i)).ok());
  }
  // Crash the leader.
  size_t leader_idx = 99;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) leader_idx = i;
  }
  ASSERT_NE(leader_idx, 99u);
  group_->Crash(leader_idx);
  sim_->RunFor(2 * kSec);  // re-election
  EXPECT_NE(group_->Leader(), nullptr);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "post").ok());
  auto payloads = DataPayloads();
  ASSERT_EQ(payloads.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(payloads[static_cast<size_t>(i)], "pre" + std::to_string(i));
  }
  EXPECT_EQ(payloads[5], "post");
}

TEST_F(TxLogTest, ToleratesSingleAzLoss) {
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "before").ok());
  sim_->PartitionAz(2);  // isolate one AZ entirely
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "during").ok());
  sim_->HealAz(2);
  sim_->RunFor(2 * kSec);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "after").ok());
  EXPECT_EQ(DataPayloads(),
            (std::vector<std::string>{"before", "during", "after"}));
  // The healed replica catches up fully.
  sim_->RunFor(2 * kSec);
  uint64_t commit = group_->CommitIndex();
  for (size_t i = 0; i < group_->size(); ++i) {
    EXPECT_GE(group_->replica(i)->commit_index() + 2, commit) << i;
  }
}

TEST_F(TxLogTest, MinorityPartitionCannotCommit) {
  // Find the leader and partition it away with no companion.
  size_t leader_idx = 99;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (group_->replica(i)->IsLeader()) leader_idx = i;
  }
  ASSERT_NE(leader_idx, 99u);
  const NodeId old_leader = group_->replica_ids()[leader_idx];
  sim_->network().Isolate(old_leader);
  sim_->RunFor(2 * kSec);

  // Majority side elects a new leader and accepts writes.
  RaftReplica* new_leader = nullptr;
  for (size_t i = 0; i < group_->size(); ++i) {
    if (i != leader_idx && group_->replica(i)->IsLeader()) {
      new_leader = group_->replica(i);
    }
  }
  ASSERT_NE(new_leader, nullptr);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "majority-write").ok());

  // The isolated old leader cannot have committed anything new.
  EXPECT_LT(group_->replica(leader_idx)->commit_index(),
            new_leader->commit_index());

  // After healing, the old leader steps down and converges.
  sim_->network().Heal(old_leader);
  sim_->RunFor(2 * kSec);
  EXPECT_FALSE(group_->replica(leader_idx)->IsLeader() &&
               new_leader->IsLeader());
  EXPECT_EQ(DataPayloads(), (std::vector<std::string>{"majority-write"}));
}

TEST_F(TxLogTest, RestartedReplicaKeepsDurableState) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "x" + std::to_string(i)).ok());
  }
  group_->Crash(0);
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(AppendSync(wire::kUnconditional, "while-down").ok());
  group_->Restart(0);
  sim_->RunFor(3 * kSec);
  auto entries = group_->replica(0)->CommittedEntries(1, 1000);
  int data = 0;
  for (const auto& e : entries) {
    if (e.record.type == RecordType::kData) ++data;
  }
  EXPECT_EQ(data, 9);
}

TEST_F(TxLogTest, TrimRaisesFirstIndex) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(AppendSync(wire::kUnconditional, "t" + std::to_string(i)).ok());
  }
  sim_->RunFor(1 * kSec);
  client_->log.Trim(10);
  sim_->RunFor(1 * kSec);
  bool done = false;
  wire::ClientReadResponse resp;
  client_->log.Read(1, 10, [&](const Status& s,
                               const wire::ClientReadResponse& r) {
    resp = r;
    done = true;
  });
  sim_->RunFor(1 * kSec);
  ASSERT_TRUE(done);
  EXPECT_GT(resp.first_index, 1u);
  // Entries after the trim horizon are still served.
  EXPECT_FALSE(ReadAllSync().empty());
}

TEST_F(TxLogTest, IndeterminateAppendResolvableByRead) {
  // Commit an entry with a unique (writer, request_id), then verify a
  // reader can find it — the resolution path for timed-out appends.
  ASSERT_TRUE(
      AppendSync(wire::kUnconditional, "maybe", nullptr, 7, 12345).ok());
  bool found = false;
  for (const LogEntry& e : ReadAllSync()) {
    if (e.record.writer == 7 && e.record.request_id == 12345) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TxLogTest, ChaosConvergence) {
  // Random crashes, restarts, and partitions under continuous load. At the
  // end: all replicas agree on the committed prefix and every acknowledged
  // append is present exactly once.
  Rng chaos(777);
  std::vector<std::string> acked;
  int inflight = 0;
  int submitted = 0;

  for (int round = 0; round < 120; ++round) {
    // Fire off an unconditional append.
    const std::string payload = "c" + std::to_string(round);
    ++inflight;
    ++submitted;
    client_->log.Append(wire::kUnconditional, DataRecord(payload),
                        [&acked, &inflight, payload](const Status& s,
                                                     uint64_t) {
                          if (s.ok()) acked.push_back(payload);
                          --inflight;
                        });
    // Chaos.
    switch (chaos.Uniform(10)) {
      case 0: {
        const size_t victim = chaos.Uniform(3);
        if (sim_->IsAlive(group_->replica_ids()[victim])) {
          group_->Crash(victim);
        }
        break;
      }
      case 1: {
        const size_t victim = chaos.Uniform(3);
        if (!sim_->IsAlive(group_->replica_ids()[victim])) {
          group_->Restart(victim);
        }
        break;
      }
      case 2:
        sim_->PartitionAz(static_cast<sim::AzId>(chaos.Uniform(3)));
        break;
      case 3:
        sim_->network().HealAll();
        break;
      default:
        break;
    }
    // Keep a majority alive most of the time.
    int alive = 0;
    for (NodeId id : group_->replica_ids()) {
      if (sim_->IsAlive(id)) ++alive;
    }
    if (alive < 2) {
      for (size_t i = 0; i < 3; ++i) {
        if (!sim_->IsAlive(group_->replica_ids()[i])) group_->Restart(i);
      }
    }
    sim_->RunFor(chaos.UniformRange(20, 200) * kMs);
  }
  // Heal everything and drain.
  sim_->network().HealAll();
  for (size_t i = 0; i < 3; ++i) {
    if (!sim_->IsAlive(group_->replica_ids()[i])) group_->Restart(i);
  }
  sim_->RunFor(20 * kSec);
  EXPECT_EQ(inflight, 0);
  EXPECT_GT(acked.size(), 10u) << "chaos too aggressive to be meaningful";

  // Invariant 1: acked entries all present exactly once, in ack order
  // subsequence... order of acks matches commit order for a single client,
  // so the committed data payloads must contain acked as a subsequence.
  auto payloads = DataPayloads();
  std::multiset<std::string> committed(payloads.begin(), payloads.end());
  for (const std::string& a : acked) {
    EXPECT_EQ(committed.count(a), 1u) << "acked entry lost or duplicated: "
                                      << a;
  }

  // Invariant 2: replicas agree on the committed prefix.
  sim_->RunFor(5 * kSec);
  const uint64_t min_commit =
      std::min({group_->replica(0)->commit_index(),
                group_->replica(1)->commit_index(),
                group_->replica(2)->commit_index()});
  auto e0 = group_->replica(0)->CommittedEntries(1, min_commit);
  auto e1 = group_->replica(1)->CommittedEntries(1, min_commit);
  auto e2 = group_->replica(2)->CommittedEntries(1, min_commit);
  ASSERT_EQ(e0.size(), e1.size());
  ASSERT_EQ(e0.size(), e2.size());
  for (size_t i = 0; i < e0.size(); ++i) {
    EXPECT_EQ(e0[i].term, e1[i].term);
    EXPECT_EQ(e0[i].record.payload, e1[i].record.payload);
    EXPECT_EQ(e0[i].term, e2[i].term);
    EXPECT_EQ(e0[i].record.payload, e2[i].record.payload);
  }
}

TEST_F(TxLogTest, SequentialCasClientsGetDistinctIndices) {
  // CAS-based appends from one client, each chaining on the prior index,
  // must produce strictly increasing indices with no gaps from the client's
  // perspective.
  uint64_t tail = TailSync();
  std::vector<uint64_t> indices;
  for (int i = 0; i < 20; ++i) {
    uint64_t idx = 0;
    Status s = AppendSync(tail, "seq" + std::to_string(i), &idx);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(idx, tail + 1);
    tail = idx;
    indices.push_back(idx);
  }
  for (size_t i = 1; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], indices[i - 1] + 1);
  }
}

// ---------------------------------------------------------------------------
// Lease edge cases, against the real RPC LogService (§4.1). The sim suite
// above proves log safety under virtual time; leases are arbitrated by the
// leader's real clock, so these run the real daemon machinery in-process.

void RealSleepMs(uint64_t ms) {
  // lint:allow-blocking — test thread, wall-clock lease expiry.
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

struct RealLogGroup {
  explicit RealLogGroup(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      services.push_back(std::make_unique<LogService>(opt));
      EXPECT_TRUE(services.back()->Start().ok());
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" + std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
  }
  ~RealLogGroup() {
    for (auto& s : services) s->Stop();
  }

  bool WaitForLeader(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (auto& s : services) {
        if (s->IsLeader()) return true;
      }
      RealSleepMs(5);
    }
    return false;
  }

  std::vector<std::unique_ptr<LogService>> services;
  std::vector<std::string> endpoints;
};

struct LeaseClient {
  LeaseClient(const std::vector<std::string>& endpoints, uint64_t writer) {
    EXPECT_TRUE(loop.Start().ok());
    RemoteClient::Options opt;
    opt.writer_id = writer;
    opt.rpc_timeout_ms = 250;
    opt.backoff_base_ms = 10;
    opt.backoff_cap_ms = 100;
    client = std::make_unique<RemoteClient>(&loop, endpoints, opt, &registry);
  }
  ~LeaseClient() {
    client->Shutdown();
    loop.Stop();
  }

  rpc::LoopThread loop;
  MetricsRegistry registry;
  std::unique_ptr<RemoteClient> client;
};

// A holder partitioned away from the group cannot renew; once its lease
// expires on the leader's clock, a contender takes over. The stale holder's
// eventual renewal (partition healed) is rejected with the new holder's id.
TEST(LeaseEdgeTest, ExpiryDuringPartitionAllowsTakeover) {
  RealLogGroup group(3);
  ASSERT_TRUE(group.WaitForLeader());
  LeaseClient holder(group.endpoints, 1);
  LeaseClient contender(group.endpoints, 2);

  rpcwire::LeaseResponse rsp;
  ASSERT_TRUE(
      holder.client->AcquireLeaseSync(1, 300, "shard-part", &rsp).ok());

  // Partition the holder's renewals: every RenewLease request frame is
  // dropped on every node, so renewals die indeterminately.
  for (auto& svc : group.services) {
    svc->fault().DropRequests(rpcwire::kRenewLease, 100000);
  }
  rpcwire::LeaseResponse renew;
  const Status rs = holder.client->RenewLeaseSync(1, 300, "shard-part",
                                                  &renew);
  EXPECT_FALSE(rs.ok());
  EXPECT_FALSE(rs.IsConditionFailed()) << rs.ToString();  // indeterminate

  // After expiry the contender wins — acquire, not a manual override.
  rpcwire::LeaseResponse takeover;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const Status s =
        contender.client->AcquireLeaseSync(2, 60000, "shard-part", &takeover);
    if (s.ok()) break;
    ASSERT_TRUE(s.IsConditionFailed() || s.IsUnavailable() || s.IsTimedOut())
        << s.ToString();
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    RealSleepMs(30);
  }
  EXPECT_GT(takeover.index, 0u);

  // Partition heals; the stale holder's renewal must NOT revive its lease.
  for (auto& svc : group.services) svc->fault().Clear();
  rpcwire::LeaseResponse stale;
  const Status ss = holder.client->RenewLeaseSync(1, 300, "shard-part",
                                                  &stale);
  ASSERT_TRUE(ss.IsConditionFailed()) << ss.ToString();
  EXPECT_EQ(stale.holder, 2u);
  EXPECT_GT(stale.remaining_ms, 0u);
}

// Two contenders racing AcquireLease for the same expired shard: exactly
// one wins, and the loser is told who. Covers the commit-window race — the
// leader must arbitrate against pending (not-yet-applied) grants, or both
// racers see the stale committed table and both win.
TEST(LeaseEdgeTest, TwoContendersRaceSingleWinner) {
  RealLogGroup group(3);
  ASSERT_TRUE(group.WaitForLeader());
  LeaseClient a(group.endpoints, 101);
  LeaseClient b(group.endpoints, 102);

  for (int round = 0; round < 5; ++round) {
    const std::string shard = "shard-race-" + std::to_string(round);
    Status sa, sb;
    rpcwire::LeaseResponse ra, rb;
    std::thread ta([&] {
      sa = a.client->AcquireLeaseSync(101, 60000, shard, &ra);
    });
    std::thread tb([&] {
      sb = b.client->AcquireLeaseSync(102, 60000, shard, &rb);
    });
    ta.join();
    tb.join();

    const int winners = (sa.ok() ? 1 : 0) + (sb.ok() ? 1 : 0);
    ASSERT_EQ(winners, 1) << "round " << round << ": a=" << sa.ToString()
                          << " b=" << sb.ToString();
    if (sa.ok()) {
      ASSERT_TRUE(sb.IsConditionFailed()) << sb.ToString();
      EXPECT_EQ(rb.holder, 101u);
    } else {
      ASSERT_TRUE(sa.IsConditionFailed()) << sa.ToString();
      EXPECT_EQ(ra.holder, 102u);
    }
  }
}

// Renewing a lease that was lost — expired, then granted to another owner —
// must be rejected even though the old holder was never partitioned: the
// fence is ownership, not connectivity.
TEST(LeaseEdgeTest, RenewAfterFenceRejected) {
  RealLogGroup group(3);
  ASSERT_TRUE(group.WaitForLeader());
  LeaseClient old_holder(group.endpoints, 1);
  LeaseClient usurper(group.endpoints, 2);

  rpcwire::LeaseResponse rsp;
  ASSERT_TRUE(
      old_holder.client->AcquireLeaseSync(1, 150, "shard-f", &rsp).ok());
  RealSleepMs(250);  // let it expire quietly — no renewals

  rpcwire::LeaseResponse grab;
  ASSERT_TRUE(usurper.client->AcquireLeaseSync(2, 60000, "shard-f", &grab)
                  .ok());

  rpcwire::LeaseResponse renew;
  const Status s =
      old_holder.client->RenewLeaseSync(1, 60000, "shard-f", &renew);
  ASSERT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(renew.holder, 2u);
  EXPECT_GT(renew.remaining_ms, 0u);

  // The fence persists: a second renewal attempt is rejected identically
  // (no renew-after-fence resurrection on retry).
  rpcwire::LeaseResponse again;
  const Status s2 =
      old_holder.client->RenewLeaseSync(1, 60000, "shard-f", &again);
  ASSERT_TRUE(s2.IsConditionFailed()) << s2.ToString();
  EXPECT_EQ(again.holder, 2u);
}

}  // namespace
}  // namespace memdb::txlog
