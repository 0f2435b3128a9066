// RPC subsystem tests: frame codec, server/channel transport, fault
// injection, the 3-replica memorydb-txlogd LogService (election, quorum
// append, idempotent retry dedup, minority partition, redirects, leases,
// long-poll ReadStream), and the RespServer durability gate over the remote
// log (parked replies, read hazards, WAIT, shutdown drain). Everything runs
// real processes' worth of machinery in-process: real sockets on 127.0.0.1,
// one LoopThread per daemon.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <algorithm>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc.h"
#include "engine/engine.h"
#include "net/remote_log_gate.h"
#include "net/server.h"
#include "resp/resp.h"
#include "rpc/channel.h"
#include "rpc/frame.h"
#include "rpc/loop.h"
#include "rpc/server.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/service.h"

namespace memdb {
namespace {

using resp::Value;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, RequestRoundTrip) {
  rpc::Frame f;
  f.type = rpc::FrameType::kRequest;
  f.request_id = 42;
  f.trace_id = 7;
  f.deadline_ms = 250;
  f.method = "txlog.ConditionalAppend";
  f.payload = std::string("\x00\x01payload\xff", 10);

  std::string wire;
  rpc::EncodeFrame(f, &wire);

  rpc::Frame out;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(rpc::DecodeFrame(wire.data(), wire.size(), &consumed, &out,
                             &error),
            rpc::FrameDecode::kOk)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.type, rpc::FrameType::kRequest);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.trace_id, 7u);
  EXPECT_EQ(out.deadline_ms, 250u);
  EXPECT_EQ(out.method, f.method);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(FrameTest, PartialNeedsMore) {
  rpc::Frame f;
  f.method = "m";
  f.payload = "hello";
  std::string wire;
  rpc::EncodeFrame(f, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    rpc::Frame out;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(rpc::DecodeFrame(wire.data(), cut, &consumed, &out, &error),
              rpc::FrameDecode::kNeedMore)
        << "cut=" << cut;
  }
}

TEST(FrameTest, CorruptionDetected) {
  rpc::Frame f;
  f.method = "method";
  f.payload = "payload-bytes";
  std::string wire;
  rpc::EncodeFrame(f, &wire);
  // Flip one byte anywhere after the length field: checksum must catch it.
  for (size_t i = 4; i < wire.size(); i += 3) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    rpc::Frame out;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(rpc::DecodeFrame(bad.data(), bad.size(), &consumed, &out,
                               &error),
              rpc::FrameDecode::kError)
        << "flipped byte " << i;
  }
}

TEST(FrameTest, OversizeRejected) {
  std::string wire;
  const uint32_t huge = (64u << 20) + 1;
  wire.append(reinterpret_cast<const char*>(&huge), 4);
  wire.append(64, '\0');
  rpc::Frame out;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(rpc::DecodeFrame(wire.data(), wire.size(), &consumed, &out,
                             &error),
            rpc::FrameDecode::kError);
}

// ---------------------------------------------------------------------------
// Server + Channel transport

struct EchoFixture {
  EchoFixture() {
    EXPECT_TRUE(loop.Start().ok());
    server = std::make_unique<rpc::Server>(&loop, "127.0.0.1", 0);
    server->RegisterHandler("echo", [](rpc::Server::Call&& call) {
      call.respond(rpc::Code::kOk,
                   call.payload + "|trace=" + std::to_string(call.trace_id));
    });
    server->RegisterHandler("blackhole", [](rpc::Server::Call&& call) {
      // Never responds; the caller's deadline must fire.
      (void)call;
    });
    EXPECT_TRUE(server->Start().ok());
    channel = std::make_unique<rpc::Channel>(&loop, "127.0.0.1",
                                             server->port());
  }
  ~EchoFixture() {
    channel->Shutdown();
    server->Stop();
    loop.Stop();
  }

  // Blocking call helper (from the test thread).
  Status Call(const std::string& method, const std::string& payload,
              uint64_t timeout_ms, uint64_t trace_id, std::string* reply) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    channel->Call(method, payload, timeout_ms, trace_id,
                  [&](Status s, std::string body) {
                    std::lock_guard<std::mutex> lock(mu);
                    status = std::move(s);
                    *reply = std::move(body);
                    done = true;
                    cv.notify_one();
                  });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; });
    EXPECT_TRUE(done) << "rpc call never completed";
    return status;
  }

  rpc::LoopThread loop;
  std::unique_ptr<rpc::Server> server;
  std::unique_ptr<rpc::Channel> channel;
};

TEST(RpcTransportTest, EchoAndTracePropagation) {
  EchoFixture fx;
  std::string reply;
  const Status s = fx.Call("echo", "ping", 1000, 99, &reply);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The trace id crossed the wire inside the frame header, not the payload.
  EXPECT_EQ(reply, "ping|trace=99");
}

TEST(RpcTransportTest, ManyPipelinedCallsMultiplex) {
  EchoFixture fx;
  constexpr int kCalls = 64;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int correct = 0;
  for (int i = 0; i < kCalls; ++i) {
    const std::string body = "m" + std::to_string(i);
    fx.channel->Call("echo", body, 2000, 0,
                     [&, body](Status s, std::string reply) {
                       std::lock_guard<std::mutex> lock(mu);
                       if (s.ok() && reply == body + "|trace=0") ++correct;
                       ++done;
                       cv.notify_one();
                     });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return done == kCalls; });
  EXPECT_EQ(done, kCalls);
  EXPECT_EQ(correct, kCalls);
}

TEST(RpcTransportTest, DeadlineFiresOnSilentServer) {
  EchoFixture fx;
  std::string reply;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fx.Call("blackhole", "x", 100, 0, &reply);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_GE(ms, 90);
  EXPECT_LT(ms, 2000);
}

TEST(RpcTransportTest, NoMethodSurfaces) {
  EchoFixture fx;
  std::string reply;
  const Status s = fx.Call("no.such.method", "x", 1000, 0, &reply);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsTimedOut());
}

TEST(RpcTransportTest, FaultDropResponseThenRecover) {
  EchoFixture fx;
  fx.server->fault().DropResponses("echo", 1);
  std::string reply;
  const Status s1 = fx.Call("echo", "a", 120, 0, &reply);
  EXPECT_TRUE(s1.IsTimedOut()) << s1.ToString();
  const Status s2 = fx.Call("echo", "b", 1000, 0, &reply);
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(reply, "b|trace=0");
}

TEST(RpcTransportTest, FaultDuplicateResponseHarmless) {
  EchoFixture fx;
  fx.server->fault().DuplicateResponses("echo", 1);
  std::string reply;
  ASSERT_TRUE(fx.Call("echo", "a", 1000, 0, &reply).ok());
  EXPECT_EQ(reply, "a|trace=0");
  // The duplicate frame carries a request id that is no longer pending; the
  // channel must drop it and stay healthy for the next call.
  ASSERT_TRUE(fx.Call("echo", "b", 1000, 0, &reply).ok());
  EXPECT_EQ(reply, "b|trace=0");
}

TEST(RpcTransportTest, FaultDelayResponse) {
  EchoFixture fx;
  fx.server->fault().DelayResponses("echo", 150, 1);
  std::string reply;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fx.Call("echo", "slow", 2000, 0, &reply);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(ms, 140);
}

// ---------------------------------------------------------------------------
// LogService group helpers

struct LogGroup {
  explicit LogGroup(size_t n, bool fsync = false) {
    for (size_t i = 0; i < n; ++i) {
      txlog::LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = fsync;
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      services.push_back(std::make_unique<txlog::LogService>(opt));
      EXPECT_TRUE(services.back()->Start().ok());
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
  }
  ~LogGroup() {
    for (auto& s : services) {
      if (s != nullptr) s->Stop();
    }
  }

  // Index of the current leader, or -1 after the deadline.
  int WaitForLeader(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (size_t i = 0; i < services.size(); ++i) {
        if (services[i] != nullptr && services[i]->IsLeader()) {
          return static_cast<int>(i);
        }
      }
      SleepMs(5);
    }
    return -1;
  }

  bool WaitForCommit(uint64_t index, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      size_t caught_up = 0;
      for (auto& s : services) {
        if (s != nullptr && s->commit_index() >= index) ++caught_up;
      }
      if (caught_up == Alive()) return true;
      SleepMs(5);
    }
    return false;
  }

  size_t Alive() const {
    size_t n = 0;
    for (const auto& s : services) {
      if (s != nullptr) ++n;
    }
    return n;
  }

  std::vector<std::unique_ptr<txlog::LogService>> services;
  std::vector<std::string> endpoints;
};

struct ClientFixture {
  explicit ClientFixture(const std::vector<std::string>& endpoints,
                         txlog::RemoteClient::Options opt = {}) {
    EXPECT_TRUE(loop.Start().ok());
    if (opt.writer_id == 0) opt.writer_id = 77;
    if (opt.rpc_timeout_ms == 300) opt.rpc_timeout_ms = 250;
    client = std::make_unique<txlog::RemoteClient>(&loop, endpoints, opt,
                                                   &registry);
  }
  ~ClientFixture() {
    client->Shutdown();
    loop.Stop();
  }

  txlog::LogRecord DataRecord(const std::string& payload) {
    txlog::LogRecord r;
    r.type = txlog::RecordType::kData;
    r.payload = payload;
    return r;
  }

  // Committed kData entries whose payload matches, by scanning the log.
  int CountPayload(const std::string& payload) {
    txlog::wire::ClientReadResponse rsp;
    const Status s = client->ReadSync(1, 10000, 0, &rsp);
    EXPECT_TRUE(s.ok()) << s.ToString();
    int count = 0;
    for (const auto& e : rsp.entries) {
      if (e.record.type == txlog::RecordType::kData &&
          e.record.payload == payload) {
        ++count;
      }
    }
    return count;
  }

  MetricsRegistry registry;
  rpc::LoopThread loop;
  std::unique_ptr<txlog::RemoteClient> client;
};

// ---------------------------------------------------------------------------
// LogService: election, append, dedup, partition, redirect, lease, longpoll

TEST(LogServiceTest, ElectsLeaderAndCommitsQuorumAppend) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  ClientFixture fx(group.endpoints);
  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("hello-log"), &index);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(index, 0u);
  // Commit propagates to every replica (followers catch up via heartbeat).
  EXPECT_TRUE(group.WaitForCommit(index));
  EXPECT_EQ(fx.CountPayload("hello-log"), 1);
}

TEST(LogServiceTest, ConditionalAppendDetectsStaleTail) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  uint64_t index = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("first"), &index)
                  .ok());
  // CAS against a stale tail must fail without appending.
  uint64_t stale_index = 0;
  const Status s = fx.client->AppendSync(index - 1, fx.DataRecord("stale"),
                                         &stale_index);
  EXPECT_TRUE(s.IsConditionFailed()) << s.ToString();
  EXPECT_EQ(fx.CountPayload("stale"), 0);
  // CAS against the true tail succeeds.
  uint64_t next = 0;
  EXPECT_TRUE(
      fx.client->AppendSync(index, fx.DataRecord("second"), &next).ok());
  EXPECT_EQ(next, index + 1);
}

// Satellite: a retried ConditionalAppend whose first ack was dropped must
// not double-commit — the daemon's (writer, request_id) dedup maps the
// retry back to the original log index.
TEST(LogServiceTest, RetriedAppendAfterDroppedAckDoesNotDoubleCommit) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 150;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 50;
  ClientFixture fx(group.endpoints, opt);

  // Drop the leader's next append ack: the entry commits, the client never
  // hears about it and retries with the same (writer, request_id).
  group.services[static_cast<size_t>(leader)]->fault().DropResponses(
      txlog::rpcwire::kAppend, 1);

  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("exactly-once"),
                                         &index);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(index, 0u);
  EXPECT_EQ(fx.CountPayload("exactly-once"), 1);

  const Counter* retries = fx.registry.FindCounter("txlog_retries_total");
  ASSERT_NE(retries, nullptr);
  EXPECT_GE(retries->value(), 1u);
}

struct BatchResult {
  Status status = Status::OK();
  uint64_t first = 0;
  size_t count = 0;
};

BatchResult AppendBatchSync(txlog::RemoteClient* client, uint64_t prev,
                            std::vector<txlog::LogRecord> records) {
  auto done = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> result = done->get_future();
  client->AppendBatch(prev, std::move(records),
                      [done](const Status& s, uint64_t first, size_t count) {
                        done->set_value({s, first, count});
                      });
  return result.get();
}

txlog::LogRecord IdRecord(uint64_t writer, uint64_t request_id,
                          const std::string& payload) {
  txlog::LogRecord r;
  r.writer = writer;
  r.request_id = request_id;
  r.payload = payload;
  return r;
}

// Committed entries in index order (one read; the test's logs are small).
std::vector<txlog::LogEntry> ReadLog(txlog::RemoteClient* client) {
  txlog::wire::ClientReadResponse rsp;
  const Status s = client->ReadSync(1, 10000, 0, &rsp);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return rsp.entries;
}

// A batch's dropped ack makes the client retry the same request; the
// daemon's per-record dedup finds the whole batch and acks it once, at the
// contiguous indexes of the first attempt.
TEST(LogServiceTest, RetriedBatchAfterDroppedAckCommitsOnceContiguously) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 150;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 50;
  ClientFixture fx(group.endpoints, opt);
  group.services[static_cast<size_t>(leader)]->fault().DropResponses(
      txlog::rpcwire::kAppend, 1);

  std::vector<txlog::LogRecord> batch;
  for (const char* p : {"b-0", "b-1", "b-2"}) batch.push_back(fx.DataRecord(p));
  const BatchResult r = AppendBatchSync(fx.client.get(),
                                        txlog::wire::kUnconditional, batch);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.count, 3u);
  ASSERT_TRUE(group.WaitForCommit(r.first + 2));
  std::map<std::string, uint64_t> at;
  for (const txlog::LogEntry& e : ReadLog(fx.client.get())) {
    if (e.record.type != txlog::RecordType::kData) continue;
    EXPECT_EQ(at.count(e.record.payload), 0u) << "duplicate " << e.index;
    at[e.record.payload] = e.index;
  }
  EXPECT_EQ(at["b-0"], r.first);
  EXPECT_EQ(at["b-1"], r.first + 1);
  EXPECT_EQ(at["b-2"], r.first + 2);
  EXPECT_GE(fx.registry.FindCounter("txlog_retries_total")->value(), 1u);
}

// A retried batch that the leader holds only in part — here a crash tore
// the tail off its log file — is acked for the prefix it holds, at the
// original indexes. The rest is reported as not appended, and appends once
// when re-sent.
TEST(LogServiceTest, RetriedBatchHeldAsPrefixAcksOnlyThePrefix) {
  char tmpl[] = "/tmp/memdb_rpc_batch_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string data_dir = dir;
  txlog::LogService::Options sopt;
  sopt.node_id = 1;
  sopt.fsync = false;
  sopt.data_dir = data_dir;
  sopt.heartbeat_ms = 20;
  sopt.election_min_ms = 50;
  sopt.election_max_ms = 120;

  const std::vector<txlog::LogRecord> batch = {
      IdRecord(77, 101, "p-0"), IdRecord(77, 102, "p-1"),
      IdRecord(77, 103, "p-2")};
  uint64_t first = 0;
  {
    txlog::LogService svc(sopt);
    ASSERT_TRUE(svc.Start().ok());
    svc.SetPeers({{1, "127.0.0.1:" + std::to_string(svc.port())}});
    while (!svc.IsLeader()) SleepMs(5);
    ClientFixture fx({"127.0.0.1:" + std::to_string(svc.port())});
    const BatchResult r =
        AppendBatchSync(fx.client.get(), txlog::wire::kUnconditional, batch);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.count, 3u);
    first = r.first;
    svc.Stop();
  }
  // Tear the last frame: LoadDisk keeps the clean prefix (p-0, p-1).
  const std::string log_path = data_dir + "/log";
  std::string bytes;
  {
    std::ifstream in(log_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 3u);
  std::ofstream(log_path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));

  txlog::LogService svc(sopt);
  ASSERT_TRUE(svc.Start().ok());
  svc.SetPeers({{1, "127.0.0.1:" + std::to_string(svc.port())}});
  while (!svc.IsLeader()) SleepMs(5);
  ClientFixture fx({"127.0.0.1:" + std::to_string(svc.port())});
  // The retry (same ids) finds p-0 and p-1 at their original indexes.
  BatchResult r =
      AppendBatchSync(fx.client.get(), txlog::wire::kUnconditional, batch);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.first, first);
  EXPECT_EQ(r.count, 2u);
  // The rest goes again, with a fresh request id.
  r = AppendBatchSync(fx.client.get(), txlog::wire::kUnconditional,
                      {IdRecord(77, 0, "p-2")});
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.count, 1u);
  std::map<std::string, int> seen;
  for (const txlog::LogEntry& e : ReadLog(fx.client.get())) {
    if (e.record.type == txlog::RecordType::kData) ++seen[e.record.payload];
  }
  EXPECT_EQ(seen, (std::map<std::string, int>{{"p-0", 1}, {"p-1", 1},
                                              {"p-2", 1}}));
  svc.Stop();
  const std::string cmd = "rm -rf '" + data_dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
}

// A one-record request keeps the single-record wire format byte for byte.
TEST(AppendWireTest, OneRecordRequestEncodesAsBefore) {
  txlog::wire::ClientAppendRequest req;
  req.prev_index = 5;
  txlog::LogRecord rec = IdRecord(7, 9, "ab");
  rec.trace_id = 300;
  req.records.push_back(rec);
  // prev_index | type | writer | request_id | trace_id (varint 300) | "ab"
  EXPECT_EQ(req.Encode(), std::string("\x05\x01\x07\x09\xac\x02\x02" "ab", 9));

  req.records.push_back(IdRecord(7, 10, "cd"));
  txlog::wire::ClientAppendRequest back;
  ASSERT_TRUE(txlog::wire::ClientAppendRequest::Decode(Slice(req.Encode()),
                                                       &back));
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[1].request_id, 10u);
  EXPECT_EQ(back.records[1].payload, "cd");
  // Trailing bytes that are not a whole record are rejected, not dropped.
  EXPECT_FALSE(txlog::wire::ClientAppendRequest::Decode(
      Slice(req.Encode() + "\x01"), &back));
}

// Satellite: exponential backoff delays are jittered and capped.
TEST(RemoteClientTest, BackoffJitterStaysWithinCaps) {
  // No live endpoint: every attempt fails fast with Unavailable.
  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 100;
  opt.backoff_base_ms = 16;
  opt.backoff_cap_ms = 120;
  opt.max_attempts = 5;
  ClientFixture fx({"127.0.0.1:1"});  // port 1: connection refused

  std::mutex mu;
  std::vector<std::pair<int, uint64_t>> backoffs;
  fx.client->backoff_hook = [&](int attempt, uint64_t delay_ms) {
    std::lock_guard<std::mutex> lock(mu);
    backoffs.emplace_back(attempt, delay_ms);
  };
  // Rebuild client with the tuned options (fixture used defaults).
  fx.client->Shutdown();
  fx.client = std::make_unique<txlog::RemoteClient>(
      &fx.loop, std::vector<std::string>{"127.0.0.1:1"}, opt, nullptr);
  fx.client->backoff_hook = [&](int attempt, uint64_t delay_ms) {
    std::lock_guard<std::mutex> lock(mu);
    backoffs.emplace_back(attempt, delay_ms);
  };

  uint64_t index = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("x"), &index);
  EXPECT_FALSE(s.ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(backoffs.size(), static_cast<size_t>(opt.max_attempts - 1));
  for (const auto& [attempt, delay] : backoffs) {
    const uint64_t nominal =
        std::min(opt.backoff_cap_ms,
                 opt.backoff_base_ms << (attempt > 20 ? 20 : attempt));
    // Jitter scales into [nominal/2, nominal); the cap bounds everything.
    EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
    EXPECT_LT(delay, nominal + 1) << "attempt " << attempt;
    EXPECT_LE(delay, opt.backoff_cap_ms);
  }
}

// Satellite: a log group reduced to a minority cannot commit; the client
// backs off and reports the failure instead of hanging forever.
TEST(LogServiceTest, MinorityPartitionFailsAppends) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  // Stop two of three replicas: no quorum remains.
  group.services[1]->Stop();
  group.services[1].reset();
  group.services[2]->Stop();
  group.services[2].reset();

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 120;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 40;
  opt.max_attempts = 3;
  ClientFixture fx(group.endpoints, opt);

  uint64_t index = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("lost"), &index);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTimedOut() || s.IsUnavailable()) << s.ToString();
  // Bounded: attempts * timeout + backoffs, not forever.
  EXPECT_LT(ms, 5000);
}

// Satellite: kNotLeader redirects reach the leader in bounded hops.
TEST(LogServiceTest, FollowerRedirectsToLeaderWithinHopBudget) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  // Client whose round-robin starts wherever; redirects must converge.
  txlog::RemoteClient::Options opt;
  opt.max_redirects = 2;  // one honest hint suffices; budget is not consumed
  ClientFixture fx(group.endpoints, opt);

  for (int i = 0; i < 6; ++i) {
    uint64_t index = 0;
    const Status s = fx.client->AppendSync(
        txlog::wire::kUnconditional,
        fx.DataRecord("redirect-" + std::to_string(i)), &index);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  const Counter* redirects = fx.registry.FindCounter("txlog_redirects_total");
  ASSERT_NE(redirects, nullptr);
  // Six appends needed at most one redirect each (hint is remembered after
  // the first); well under the per-op budget.
  EXPECT_LE(redirects->value(), 6u);
}

TEST(LogServiceTest, LeaderKillMidStreamSurvivesViaRetry) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  txlog::RemoteClient::Options opt;
  opt.rpc_timeout_ms = 200;
  opt.backoff_base_ms = 20;
  opt.backoff_cap_ms = 200;
  opt.max_attempts = 20;  // must ride out a full re-election
  ClientFixture fx(group.endpoints, opt);

  uint64_t index = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("pre-kill"), &index)
                  .ok());

  // Kill the leader outright; the survivors elect a new one.
  group.services[static_cast<size_t>(leader)]->Stop();
  group.services[static_cast<size_t>(leader)].reset();

  uint64_t index2 = 0;
  const Status s = fx.client->AppendSync(txlog::wire::kUnconditional,
                                         fx.DataRecord("post-kill"), &index2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(index2, index);
  // The acked pre-kill write must still be readable — no lost acked write.
  EXPECT_EQ(fx.CountPayload("pre-kill"), 1);
  EXPECT_EQ(fx.CountPayload("post-kill"), 1);
}

TEST(LogServiceTest, LeaseAcquireRenewAndFencing) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  txlog::rpcwire::LeaseResponse rsp;
  ASSERT_TRUE(fx.client->AcquireLeaseSync(11, 60000, "shard-a", &rsp).ok());
  EXPECT_EQ(rsp.result, txlog::wire::ClientResult::kOk);
  EXPECT_GT(rsp.index, 0u);

  // A different owner is fenced out while the lease is live.
  txlog::rpcwire::LeaseResponse rsp2;
  const Status s2 = fx.client->AcquireLeaseSync(22, 60000, "shard-a", &rsp2);
  ASSERT_TRUE(s2.IsConditionFailed()) << s2.ToString();
  EXPECT_EQ(rsp2.holder, 11u);
  EXPECT_GT(rsp2.remaining_ms, 0u);

  // The holder renews; an unrelated shard is independent.
  txlog::rpcwire::LeaseResponse rsp3;
  ASSERT_TRUE(fx.client->RenewLeaseSync(11, 60000, "shard-a", &rsp3).ok());
  EXPECT_EQ(rsp3.result, txlog::wire::ClientResult::kOk);
  txlog::rpcwire::LeaseResponse rsp4;
  ASSERT_TRUE(fx.client->AcquireLeaseSync(22, 60000, "shard-b", &rsp4).ok());

  // Short lease expires; the second owner takes over.
  txlog::rpcwire::LeaseResponse rsp5;
  ASSERT_TRUE(fx.client->AcquireLeaseSync(33, 80, "shard-c", &rsp5).ok());
  SleepMs(200);
  txlog::rpcwire::LeaseResponse rsp6;
  ASSERT_TRUE(fx.client->AcquireLeaseSync(44, 60000, "shard-c", &rsp6).ok());
  EXPECT_EQ(rsp6.result, txlog::wire::ClientResult::kOk);
}

TEST(LogServiceTest, LongPollReadWakesOnCommit) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  uint64_t index = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("existing"), &index)
                  .ok());

  // Park a long poll past the tail, then append: the poll must wake with
  // the new entry well before its wait_ms budget.
  std::atomic<int64_t> poll_ms{-1};
  std::atomic<bool> got_entry{false};
  std::thread poller([&] {
    txlog::wire::ClientReadResponse rsp;
    const auto t0 = std::chrono::steady_clock::now();
    const Status s = fx.client->ReadSync(index + 1, 16, 3000, &rsp);
    poll_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    if (s.ok()) {
      for (const auto& e : rsp.entries) {
        if (e.record.payload == "wakeup") got_entry = true;
      }
    }
  });
  SleepMs(150);  // let the poll park
  uint64_t index2 = 0;
  ASSERT_TRUE(fx.client
                  ->AppendSync(txlog::wire::kUnconditional,
                               fx.DataRecord("wakeup"), &index2)
                  .ok());
  poller.join();
  EXPECT_TRUE(got_entry.load());
  EXPECT_LT(poll_ms.load(), 2500);
}

// ---------------------------------------------------------------------------
// RespServer durability gate over the remote log

class GateClient {
 public:
  explicit GateClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&sa),
                  sizeof(sa)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    struct timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~GateClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool SendCommand(const std::vector<std::string>& argv) {
    const std::string bytes = resp::EncodeCommand(argv);
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  std::vector<Value> ReadReplies(size_t n) {
    std::vector<Value> out;
    char buf[16 * 1024];
    while (out.size() < n) {
      Value v;
      const resp::DecodeStatus st = dec_.Decode(&v);
      if (st == resp::DecodeStatus::kOk) {
        out.push_back(std::move(v));
        continue;
      }
      if (st == resp::DecodeStatus::kError) break;
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) break;
      dec_.Feed(Slice(buf, static_cast<size_t>(r)));
    }
    return out;
  }

  Value RoundTrip(const std::vector<std::string>& argv) {
    if (!SendCommand(argv)) return Value::Error("send failed");
    std::vector<Value> replies = ReadReplies(1);
    return replies.empty() ? Value::Error("no reply") : replies[0];
  }

 private:
  int fd_ = -1;
  resp::Decoder dec_;
};

// Committed kData entries in the log, polling until at least `expected`
// appear (a round-robin read may hit a follower one heartbeat behind).
int CountDataEntries(txlog::RemoteClient* client, int expected,
                     int timeout_ms = 3000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int count = 0;
  for (;;) {
    txlog::wire::ClientReadResponse rsp;
    if (client->ReadSync(1, 10000, 0, &rsp).ok()) {
      count = 0;
      for (const auto& e : rsp.entries) {
        if (e.record.type == txlog::RecordType::kData) ++count;
      }
      if (count >= expected) return count;
    }
    if (std::chrono::steady_clock::now() >= deadline) return count;
    SleepMs(20);
  }
}

struct DurableServerFixture {
  explicit DurableServerFixture(LogGroup* group_in) : group(group_in) {
    net::ServerConfig config;
    config.port = 0;
    config.loop_timeout_ms = 10;
    config.txlog_endpoints = group->endpoints;
    config.txlog_rpc_timeout_ms = 250;
    config.txlog_backoff_base_ms = 10;
    config.txlog_backoff_cap_ms = 100;
    config.shutdown_drain_ms = 4000;
    engine = std::make_unique<engine::Engine>();
    server = std::make_unique<net::RespServer>(engine.get(), config);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~DurableServerFixture() {
    if (server != nullptr) server->Stop();
  }

  double Metric(const std::string& series) {
    GateClient c(server->port());
    const Value v = c.RoundTrip({"METRICS"});
    double out = 0;
    MetricsRegistry::ParseSeries(v.str, series, &out);
    return out;
  }

  LogGroup* group;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<net::RespServer> server;
};

TEST(DurabilityGateTest, WriteCommitsToRemoteLogBeforeAck) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  DurableServerFixture fx(&group);

  GateClient c(fx.server->port());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.RoundTrip({"SET", "k", "v"}).type, resp::Type::kSimpleString);
  EXPECT_EQ(c.RoundTrip({"GET", "k"}).str, "v");

  // The effect batch is now a committed log entry on the group.
  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), 1), 1);
  EXPECT_GE(fx.Metric("txlog_gate_appends_total"), 1.0);
  EXPECT_GE(fx.Metric("txlog_durable_ack_us_count"), 1.0);
}

// Satellite: a dropped append ack makes the gate's client retry; dedup on
// the daemon keeps the log at exactly one entry, and the parked reply (the
// "tracker release") fires exactly once.
TEST(DurabilityGateTest, DroppedAckRetryReleasesExactlyOnce) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  group.services[static_cast<size_t>(leader)]->fault().DropResponses(
      txlog::rpcwire::kAppend, 1);

  GateClient c(fx.server->port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.SendCommand({"SET", "retry-key", "v"}));
  ASSERT_TRUE(c.SendCommand({"GET", "retry-key"}));
  // Exactly two replies: one +OK (after the retried append resolved via
  // dedup), one value. A double release would surface as a third reply.
  std::vector<Value> replies = c.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);
  EXPECT_EQ(replies[1].str, "v");

  // And the log holds exactly one data entry for the single SET.
  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), 1), 1);
  EXPECT_GE(fx.Metric("txlog_retries_total"), 1.0);
}

// §3.2: a read of a not-yet-durable key from ANOTHER connection is parked
// until the write's append commits.
TEST(DurabilityGateTest, CrossConnectionReadWaitsForDurability) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  // Delay the next append ack 250ms: the SET's reply (and any read of the
  // key) cannot be released before that.
  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 250, 1);

  GateClient writer(fx.server->port());
  GateClient reader(fx.server->port());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());

  ASSERT_TRUE(writer.SendCommand({"SET", "hazard", "v"}));
  SleepMs(50);  // the write is applied locally but not yet durable
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(reader.SendCommand({"GET", "hazard"}));
  std::vector<Value> got = reader.ReadReplies(1);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].str, "v");
  // Parked behind the delayed ack (50ms already elapsed before the GET).
  EXPECT_GE(ms, 120);
  // An unrelated key is NOT parked.
  EXPECT_EQ(reader.RoundTrip({"GET", "unrelated"}).type,
            resp::Type::kNull);

  std::vector<Value> w = writer.ReadReplies(1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].type, resp::Type::kSimpleString);
}

// Satellite: WAIT over the remote log — released only once every prior
// write of the connection is durable, reporting the ack quorum.
TEST(DurabilityGateTest, WaitBlocksUntilPriorWritesDurable) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  DurableServerFixture fx(&group);

  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 200, 1);

  GateClient c(fx.server->port());
  ASSERT_TRUE(c.ok());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.SendCommand({"SET", "w", "1"}));
  ASSERT_TRUE(c.SendCommand({"WAIT", "2", "1000"}));
  std::vector<Value> replies = c.ReadReplies(2);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);
  // Majority of a 3-replica group.
  EXPECT_EQ(replies[1].integer, 2);
  EXPECT_GE(ms, 150);

  // With nothing outstanding, WAIT answers immediately.
  EXPECT_EQ(c.RoundTrip({"WAIT", "2", "1000"}).integer, 2);
}

// Satellite: shutdown drains in-flight appends — a write whose ack is still
// in flight when Stop() begins is acked, not dropped.
TEST(DurabilityGateTest, ShutdownDrainsInFlightAppends) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);
  auto fx = std::make_unique<DurableServerFixture>(&group);

  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 300, 1);

  GateClient c(fx->server->port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.SendCommand({"SET", "draining", "v"}));
  SleepMs(50);  // the append is in flight, its ack delayed
  std::thread stopper([&] { fx->server->Stop(); });
  // The parked +OK must still arrive before the connection dies.
  std::vector<Value> replies = c.ReadReplies(1);
  stopper.join();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, resp::Type::kSimpleString);

  // And the write really is in the log.
  ClientFixture log(group.endpoints);
  EXPECT_EQ(CountDataEntries(log.client.get(), 1), 1);
  fx.reset();
}

// INFO surfaces the rpc client instruments (satellite: observability).
TEST(DurabilityGateTest, InfoReportsRpcSection) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  DurableServerFixture fx(&group);

  GateClient c(fx.server->port());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.RoundTrip({"SET", "k", "v"}).type, resp::Type::kSimpleString);
  const Value info = c.RoundTrip({"INFO", "RPC"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  EXPECT_NE(info.str.find("# Rpc"), std::string::npos);
  EXPECT_NE(info.str.find("rpc_txlog.conditionalappend:calls="),
            std::string::npos);
  EXPECT_NE(info.str.find("txlog_gate_appends_total:1"), std::string::npos);
}

// Commands are timed below a microsecond, so the GETs and SETs INFO reports
// carry nonzero time, not whole-microsecond zeros.
TEST(ServerInfoTest, CommandstatsAndLatencystatsResolveSubMicrosecond) {
  net::ServerConfig config;
  config.port = 0;
  config.loop_timeout_ms = 10;
  engine::Engine engine;
  net::RespServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  {
    GateClient c(server.port());
    ASSERT_TRUE(c.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(c.SendCommand({"SET", "k" + std::to_string(i), "v"}));
      ASSERT_TRUE(c.SendCommand({"GET", "k" + std::to_string(i)}));
    }
    ASSERT_EQ(c.ReadReplies(100).size(), 100u);
    const std::string info = c.RoundTrip({"INFO", "COMMANDSTATS"}).str;
    const size_t at = info.find("cmdstat_get:calls=50,usec=");
    ASSERT_NE(at, std::string::npos) << info;
    const size_t per = info.find("usec_per_call=", at);
    ASSERT_NE(per, std::string::npos);
    EXPECT_GT(std::atof(info.c_str() + per + 14), 0.0) << info;
    const std::string lat = c.RoundTrip({"INFO", "LATENCYSTATS"}).str;
    const size_t p50 = lat.find("latency_percentiles_usec_set:p50=");
    ASSERT_NE(p50, std::string::npos) << lat;
    EXPECT_GT(std::atof(lat.c_str() + p50 + 33), 0.0) << lat;
  }
  server.Stop();
}

// Completions the gate has reported, polling until n arrive.
std::vector<net::RemoteLogGate::Completion> WaitCompletions(
    net::RemoteLogGate* gate, size_t n, int timeout_ms = 8000) {
  std::vector<net::RemoteLogGate::Completion> out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
    for (auto& c : gate->DrainCompletions()) out.push_back(std::move(c));
    if (out.size() < n) SleepMs(10);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Group commit in the gate: one append in flight, carrying everything that
// queued behind it.

// A scripted stand-in for the log leader: answers txlog.ConditionalAppend
// with `script`, and keeps every request it decoded.
struct FakeLog {
  using Script = std::function<txlog::wire::ClientAppendResponse(
      const txlog::wire::ClientAppendRequest&)>;
  explicit FakeLog(Script script_in) : script(std::move(script_in)) {
    EXPECT_TRUE(loop.Start().ok());
    server = std::make_unique<rpc::Server>(&loop, "127.0.0.1", 0);
    server->RegisterHandler(
        txlog::rpcwire::kAppend, [this](rpc::Server::Call&& call) {
          txlog::wire::ClientAppendRequest req;
          EXPECT_TRUE(txlog::wire::ClientAppendRequest::Decode(
              Slice(call.payload), &req));
          {
            std::lock_guard<std::mutex> lock(mu);
            requests.push_back(req);
          }
          call.respond(rpc::Code::kOk, script(req).Encode());
        });
    EXPECT_TRUE(server->Start().ok());
  }
  ~FakeLog() {
    server->Stop();
    loop.Stop();
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
  std::vector<txlog::wire::ClientAppendRequest> Requests() {
    std::lock_guard<std::mutex> lock(mu);
    return requests;
  }

  Script script;
  rpc::LoopThread loop;
  std::unique_ptr<rpc::Server> server;
  std::mutex mu;
  std::vector<txlog::wire::ClientAppendRequest> requests;
};

net::RemoteLogGate::Options GateOptions(std::vector<std::string> endpoints) {
  net::RemoteLogGate::Options opt;
  opt.endpoints = std::move(endpoints);
  opt.writer_id = 5;
  opt.rpc_timeout_ms = 250;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 100;
  return opt;
}

// Writes that queue behind an append leave as one batch, each its own
// record. When the log acks only a prefix of it, the gate completes that
// prefix and sends the rest again with fresh request ids — the checksum
// record in the rest keeps the value folded when it first left the queue.
TEST(GroupCommitGateTest, QueuedWritesBatchAndPrefixAckResendsTheRest) {
  uint64_t tail = 0;
  int calls = 0;
  FakeLog log([&](const txlog::wire::ClientAppendRequest& req) {
    txlog::wire::ClientAppendResponse r;
    r.result = txlog::wire::ClientResult::kOk;
    r.index = tail + 1;
    // The second append meets a leader that holds only two of its records.
    r.count = ++calls == 2 ? 2 : req.records.size();
    tail += r.count;
    return r;
  });
  log.server->fault().DelayResponses(txlog::rpcwire::kAppend, 200, 1);

  MetricsRegistry registry;
  net::RemoteLogGate::Options opt = GateOptions({log.endpoint()});
  opt.checksum_every = 3;
  opt.rpc_timeout_ms = 5000;  // the held ack must not turn into a retry
  net::RemoteLogGate gate(opt, &registry);
  ASSERT_TRUE(gate.Start([] {}).ok());
  gate.SubmitAppend("w1", 0);
  // Once w1 is on the wire (its ack held back), the rest queue behind it.
  for (int i = 0; i < 5000 && log.Requests().empty(); ++i) SleepMs(1);
  ASSERT_EQ(log.Requests().size(), 1u);
  for (const char* p : {"w2", "w3", "w4", "w5"}) gate.SubmitAppend(p, 0);

  const auto done = WaitCompletions(&gate, 5);
  ASSERT_EQ(done.size(), 5u);
  const uint64_t want_index[] = {1, 2, 3, 5, 6};  // a checksum record at 4
  for (size_t i = 0; i < done.size(); ++i) {
    ASSERT_TRUE(done[i].status.ok()) << done[i].status.ToString();
    EXPECT_EQ(done[i].seq, i + 1);
    EXPECT_EQ(done[i].index, want_index[i]);
  }
  const auto reqs = log.Requests();
  ASSERT_EQ(reqs.size(), 3u);
  ASSERT_EQ(reqs[1].records.size(), 5u);  // w2 w3 chk w4 w5
  ASSERT_EQ(reqs[2].records.size(), 3u);  //        chk w4 w5
  uint64_t crc = 0;
  for (const char* p : {"w1", "w2", "w3"}) crc = Crc64(crc, Slice(p, 2));
  std::string want_chk;
  PutFixed64(&want_chk, crc);
  EXPECT_EQ(reqs[1].records[2].type, txlog::RecordType::kChecksum);
  EXPECT_EQ(reqs[2].records[0].type, txlog::RecordType::kChecksum);
  EXPECT_EQ(reqs[2].records[0].payload, want_chk);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reqs[2].records[i].payload, reqs[1].records[i + 2].payload);
    EXPECT_NE(reqs[2].records[i].request_id, reqs[1].records[i + 2].request_id);
  }
  // Appends count batches, not re-sends; the group-size histogram sees both.
  EXPECT_EQ(registry.FindCounter("txlog_gate_appends_total")->value(), 2u);
  const Histogram* groups = registry.FindHistogram("txlog_group_size");
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(groups->count(), 2u);
  EXPECT_EQ(groups->max(), 5u);
  gate.Stop();
}

// ---------------------------------------------------------------------------
// Fence-mode gate (§4.1): appends chain on the previous index; a foreign
// record in a precondition gap means the shard lease is lost — terminally.

TEST(FencedGateTest, BenignTailMovementRechainsForeignGrantFences) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  MetricsRegistry registry;
  net::RemoteLogGate::Options opt;
  opt.endpoints = group.endpoints;
  opt.writer_id = 5;
  opt.rpc_timeout_ms = 250;
  opt.backoff_base_ms = 10;
  opt.backoff_cap_ms = 100;
  opt.fence = true;
  opt.shard_id = "shard-0";
  net::RemoteLogGate gate(opt, &registry);
  ASSERT_TRUE(gate.Start([] {}).ok());

  gate.SubmitAppend("batch-1", 0);
  auto done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(done[0].status.ok()) << done[0].status.ToString();
  EXPECT_FALSE(gate.fenced());

  // Benign out-of-band tail movement: another shard's lease traffic sharing
  // the log. The next chained append hits a stale precondition, scans the
  // gap, classifies the grant benign, re-chains, and still commits.
  ClientFixture fx(group.endpoints);
  txlog::rpcwire::LeaseResponse lease;
  ASSERT_TRUE(
      fx.client->AcquireLeaseSync(22, 60000, "shard-other", &lease).ok());

  gate.SubmitAppend("batch-2", 0);
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(done[0].status.ok()) << done[0].status.ToString();
  EXPECT_FALSE(gate.fenced());

  // A grant for OUR shard to a different owner is the fence.
  txlog::rpcwire::LeaseResponse steal;
  ASSERT_TRUE(fx.client->AcquireLeaseSync(9, 60000, "shard-0", &steal).ok());

  gate.SubmitAppend("batch-3", 0);
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.IsConditionFailed())
      << done[0].status.ToString();
  EXPECT_TRUE(gate.fenced());
  EXPECT_EQ(gate.fenced_by(), 9u);

  // Terminal: later submissions fail without touching the log.
  gate.SubmitAppend("batch-4", 0);
  done = WaitCompletions(&gate, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].status.IsConditionFailed());

  gate.Stop();
}

// A fenced batch whose precondition went stale while it queued re-chains
// as a whole, checksum record included: the lease record that moved the
// tail sits before it, and the log holds every record once, in order.
TEST(FencedGateTest, StaleBatchWithChecksumRecordRechainsWhole) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  MetricsRegistry registry;
  net::RemoteLogGate::Options opt = GateOptions(group.endpoints);
  opt.fence = true;
  opt.shard_id = "shard-0";
  opt.checksum_every = 2;
  opt.rpc_timeout_ms = 5000;  // the held ack must not turn into a retry
  net::RemoteLogGate gate(opt, &registry);
  ASSERT_TRUE(gate.Start([] {}).ok());
  gate.SubmitAppend("c-1", 0);
  ASSERT_EQ(WaitCompletions(&gate, 1).size(), 1u);

  // [c-2, chk] commits, its ack held back; meanwhile another shard's lease
  // moves the tail and c-3, c-4 queue. Their batch [c-3, c-4, chk] is then
  // sent on the stale chain position.
  txlog::LogService* leader_svc =
      group.services[static_cast<size_t>(leader)].get();
  const uint64_t c1_commit = leader_svc->commit_index();
  leader_svc->fault().DelayResponses(txlog::rpcwire::kAppend, 200, 1);
  gate.SubmitAppend("c-2", 0);
  for (int i = 0; i < 5000 && leader_svc->commit_index() < c1_commit + 2;
       ++i) {
    SleepMs(1);
  }
  ASSERT_GE(leader_svc->commit_index(), c1_commit + 2);
  ClientFixture fx(group.endpoints);
  txlog::rpcwire::LeaseResponse lease;
  ASSERT_TRUE(
      fx.client->AcquireLeaseSync(22, 60000, "shard-other", &lease).ok());
  gate.SubmitAppend("c-3", 0);
  gate.SubmitAppend("c-4", 0);

  const auto done = WaitCompletions(&gate, 3);
  ASSERT_EQ(done.size(), 3u);
  for (const auto& c : done) {
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  }
  EXPECT_FALSE(gate.fenced());
  EXPECT_EQ(done[2].index, done[1].index + 1);
  EXPECT_EQ(registry.FindHistogram("txlog_group_size")->max(), 3u);
  ASSERT_TRUE(group.WaitForCommit(done[2].index + 1));

  std::vector<std::string> order;
  uint64_t crc = 0;
  for (const txlog::LogEntry& e : ReadLog(fx.client.get())) {
    switch (e.record.type) {
      case txlog::RecordType::kData:
        order.push_back(e.record.payload);
        crc = Crc64(crc, Slice(e.record.payload));
        break;
      case txlog::RecordType::kChecksum: {
        order.push_back("chk");
        std::string want;
        PutFixed64(&want, crc);
        EXPECT_EQ(e.record.payload, want) << "at index " << e.index;
        break;
      }
      case txlog::RecordType::kLease:
        order.push_back("lease");
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(order, (std::vector<std::string>{"c-1", "c-2", "chk", "lease",
                                             "c-3", "c-4", "chk"}));
  gate.Stop();
}

}  // namespace
}  // namespace memdb
