// Replication & recovery subsystem tests (src/replication): the
// FsObjectStore blob store (crash-atomic Put, CRC trailer, tmp exclusion),
// SnapshotStore naming/manifest conventions, effect-batch replay,
// ReplayLogTail checksum-chain verification against a real 3-node txlogd
// group, the log-fed replica RespServer (convergence, -READONLY, WAIT 0,
// link staleness), the off-box snapshot cycle feeding --restore, and the
// bounded dedup table. Everything runs real daemons' machinery in-process
// over 127.0.0.1 sockets.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc.h"
#include "common/metrics.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "net/server.h"
#include "replication/offbox_runner.h"
#include "replication/recovery.h"
#include "replication/snapshot_store.h"
#include "resp/resp.h"
#include "rpc/loop.h"
#include "storage/fs_object_store.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/service.h"

namespace memdb {
namespace {

using resp::Value;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Unique scratch directory, removed on destruction.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/memdb_repl_test_XXXXXX";
    char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = (p != nullptr) ? p : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      const std::string cmd = "rm -rf '" + path + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  std::string path;
};

// In-process 3-replica txlogd group (same shape as rpc_test's LogGroup).
struct LogGroup {
  explicit LogGroup(size_t n, size_t dedup_max = 65536) {
    for (size_t i = 0; i < n; ++i) {
      txlog::LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      opt.dedup_max_entries = dedup_max;
      services.push_back(std::make_unique<txlog::LogService>(opt));
      EXPECT_TRUE(services.back()->Start().ok());
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" + std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
  }
  ~LogGroup() {
    for (auto& s : services) {
      if (s != nullptr) s->Stop();
    }
  }

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

  void StopAll() {
    for (auto& s : services) {
      if (s != nullptr) s->Stop();
      s.reset();
    }
  }

  std::vector<std::unique_ptr<txlog::LogService>> services;
  std::vector<std::string> endpoints;
};

struct ClientFixture {
  explicit ClientFixture(const std::vector<std::string>& endpoints,
                         uint64_t writer_id = 77) {
    EXPECT_TRUE(loop.Start().ok());
    txlog::RemoteClient::Options opt;
    opt.writer_id = writer_id;
    opt.rpc_timeout_ms = 250;
    client =
        std::make_unique<txlog::RemoteClient>(&loop, endpoints, opt, &registry);
  }
  ~ClientFixture() {
    client->Shutdown();
    loop.Stop();
  }

  uint64_t AppendData(const std::string& payload) {
    txlog::LogRecord r;
    r.type = txlog::RecordType::kData;
    r.payload = payload;
    uint64_t index = 0;
    const Status s = client->AppendSync(txlog::wire::kUnconditional,
                                        std::move(r), &index);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return index;
  }

  uint64_t AppendChecksum(uint64_t running) {
    txlog::LogRecord r;
    r.type = txlog::RecordType::kChecksum;
    PutFixed64(&r.payload, running);
    uint64_t index = 0;
    const Status s = client->AppendSync(txlog::wire::kUnconditional,
                                        std::move(r), &index);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return index;
  }

  MetricsRegistry registry;
  rpc::LoopThread loop;
  std::unique_ptr<txlog::RemoteClient> client;
};

// A small blocking RESP client over a real socket (net_test's idiom).
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    struct timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() {
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

double ServerMetric(uint16_t port, const std::string& series) {
  TestClient c(port);
  const Value v = c.RoundTrip({"METRICS"});
  double out = 0;
  MetricsRegistry::ParseSeries(v.str, series, &out);
  return out;
}

// Same wire format as Node/RespServer effect batches.
std::string EncodeBatch(const std::vector<std::vector<std::string>>& effects) {
  std::string out;
  PutLengthPrefixed(&out, "7.0.7");
  for (const auto& argv : effects) {
    PutVarint64(&out, argv.size());
    for (const auto& a : argv) PutLengthPrefixed(&out, a);
  }
  return out;
}

std::string GetKey(engine::Engine* engine, const std::string& key) {
  engine::ExecContext ctx;
  const Value v = engine->Execute({"GET", key}, &ctx);
  return v.type == resp::Type::kBulkString ? v.str : "";
}

// ---------------------------------------------------------------------------
// FsObjectStore

TEST(FsObjectStoreTest, PutGetRoundTripAndOverwrite) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());

  ASSERT_TRUE(store.Put("snap/shard-0/a", Slice("hello")).ok());
  std::string data;
  ASSERT_TRUE(store.Get("snap/shard-0/a", &data).ok());
  EXPECT_EQ(data, "hello");

  // Put replaces atomically; readers see old or new, never a mix.
  ASSERT_TRUE(store.Put("snap/shard-0/a", Slice("world!")).ok());
  ASSERT_TRUE(store.Get("snap/shard-0/a", &data).ok());
  EXPECT_EQ(data, "world!");

  EXPECT_TRUE(store.Get("snap/shard-0/missing", &data).IsNotFound());
  EXPECT_TRUE(store.Delete("snap/shard-0/a").ok());
  EXPECT_TRUE(store.Get("snap/shard-0/a", &data).IsNotFound());
}

TEST(FsObjectStoreTest, DetectsCorruptedBlob) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put("blob", Slice("payload-bytes")).ok());

  // Flip one payload byte behind the store's back.
  const std::string path = dir.path + "/blob";
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(2);
  f.put('X');
  f.close();

  std::string data;
  EXPECT_TRUE(store.Get("blob", &data).IsCorruption());
}

TEST(FsObjectStoreTest, ListSortsAndSkipsInProgressUploads) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Put("p/ccc", Slice("3")).ok());
  ASSERT_TRUE(store.Put("p/aaa", Slice("1")).ok());
  ASSERT_TRUE(store.Put("p/bbb", Slice("2")).ok());
  ASSERT_TRUE(store.Put("q/zzz", Slice("other prefix")).ok());

  // A crash mid-Put leaves only a tmp sibling; List must not surface it.
  std::ofstream tmp(dir.path + "/p/.tmp-crashed-upload", std::ios::binary);
  tmp << "torn";
  tmp.close();

  std::vector<std::string> keys;
  ASSERT_TRUE(store.List("p/", &keys).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"p/aaa", "p/bbb", "p/ccc"}));

  keys.clear();
  ASSERT_TRUE(store.List("nope/", &keys).ok());
  EXPECT_TRUE(keys.empty());
}

TEST(FsObjectStoreTest, RejectsKeysThatEscapeTheRoot) {
  TempDir dir;
  storage::FsObjectStore store(dir.path, {.fsync = false});
  ASSERT_TRUE(store.Open().ok());
  EXPECT_FALSE(store.Put("../evil", Slice("x")).ok());
  EXPECT_FALSE(store.Put("a/../../evil", Slice("x")).ok());
  EXPECT_FALSE(store.Put("a//b", Slice("x")).ok());
  EXPECT_FALSE(store.Put("", Slice("x")).ok());
  std::string data;
  EXPECT_FALSE(store.Get("../evil", &data).ok());
}

// ---------------------------------------------------------------------------
// SnapshotStore

TEST(SnapshotStoreTest, ManifestRoundTrip) {
  replication::SnapshotManifest m;
  m.object_key = "snap/shard-0/00000000000000000042";
  m.log_position = 42;
  m.log_running_checksum = 0xdeadbeefcafef00dull;
  m.engine_version = "7.0.7";
  m.created_at_ms = 1234567;

  replication::SnapshotManifest out;
  ASSERT_TRUE(replication::SnapshotManifest::Decode(Slice(m.Encode()), &out));
  EXPECT_EQ(out.object_key, m.object_key);
  EXPECT_EQ(out.log_position, m.log_position);
  EXPECT_EQ(out.log_running_checksum, m.log_running_checksum);
  EXPECT_EQ(out.engine_version, m.engine_version);
  EXPECT_EQ(out.created_at_ms, m.created_at_ms);
}

TEST(SnapshotStoreTest, GetLatestPrefersNewestAndSurvivesLostManifest) {
  TempDir dir;
  storage::FsObjectStore fs(dir.path, {.fsync = false});
  ASSERT_TRUE(fs.Open().ok());
  replication::SnapshotStore store(&fs, "shard-0");

  std::string blob;
  replication::SnapshotManifest manifest;
  EXPECT_TRUE(store.GetLatest(&blob, &manifest).IsNotFound());

  engine::Engine eng;
  engine::ExecContext ctx;
  eng.Execute({"SET", "k", "old"}, &ctx);
  engine::SnapshotMeta meta;
  meta.log_position = 10;
  meta.log_running_checksum = 111;
  ASSERT_TRUE(
      store.PutSnapshot(SerializeSnapshot(eng.keyspace(), meta), meta).ok());

  eng.Execute({"SET", "k", "new"}, &ctx);
  meta.log_position = 25;
  meta.log_running_checksum = 222;
  const std::string newer = SerializeSnapshot(eng.keyspace(), meta);
  ASSERT_TRUE(store.PutSnapshot(newer, meta).ok());

  ASSERT_TRUE(store.GetLatest(&blob, &manifest).ok());
  EXPECT_EQ(blob, newer);
  EXPECT_EQ(manifest.log_position, 25u);
  EXPECT_EQ(manifest.log_running_checksum, 222u);

  // A store whose manifest write was lost still recovers: GetLatest falls
  // back to listing the zero-padded snap/ prefix.
  ASSERT_TRUE(fs.Delete("manifest/shard-0").ok());
  blob.clear();
  ASSERT_TRUE(store.GetLatest(&blob, &manifest).ok());
  EXPECT_EQ(blob, newer);
  EXPECT_EQ(manifest.log_position, 25u);
}

// ---------------------------------------------------------------------------
// Effect-batch replay

TEST(RecoveryTest, ApplyEffectBatchAppliesEveryEffect) {
  engine::Engine eng;
  const std::string batch =
      EncodeBatch({{"SET", "a", "1"}, {"SET", "b", "2"}, {"DEL", "a"}});
  EXPECT_TRUE(replication::ApplyEffectBatch(&eng, Slice(batch), 1000));
  EXPECT_EQ(GetKey(&eng, "a"), "");
  EXPECT_EQ(GetKey(&eng, "b"), "2");

  // Truncated payload is rejected.
  EXPECT_FALSE(replication::ApplyEffectBatch(
      &eng, Slice(batch.data(), batch.size() - 3), 1000));
  // Zero-argc effect is rejected.
  std::string zero;
  PutLengthPrefixed(&zero, "7.0.7");
  PutVarint64(&zero, 0);
  EXPECT_FALSE(replication::ApplyEffectBatch(&eng, Slice(zero), 1000));
}

TEST(RecoveryTest, ReplayLogTailConvergesAndVerifiesChecksumChain) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  // Producer side of the §7.2.1 chain: CRC64 over kData payloads in log
  // order, one kChecksum record every 3 data records.
  uint64_t running = 0;
  int data_records = 0, checksum_records = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string payload = EncodeBatch(
        {{"SET", "key" + std::to_string(i), "val" + std::to_string(i)}});
    fx.AppendData(payload);
    running = Crc64(running, Slice(payload));
    ++data_records;
    if (data_records % 3 == 0) {
      fx.AppendChecksum(running);
      ++checksum_records;
    }
  }

  engine::Engine eng;
  replication::RestoreResult res;
  const Status s = ReplayLogTail(fx.client.get(), &eng, &res, 0);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // >= : the leader's election-barrier kNoop record also counts as replayed.
  EXPECT_GE(res.entries_replayed, uint64_t(data_records + checksum_records));
  EXPECT_EQ(res.checksum_records_verified, uint64_t(checksum_records));
  EXPECT_EQ(res.running_checksum, running);
  EXPECT_GE(res.applied_index, uint64_t(data_records + checksum_records));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(GetKey(&eng, "key" + std::to_string(i)),
              "val" + std::to_string(i));
  }
}

TEST(RecoveryTest, ReplayLogTailRejectsCorruptChecksumChain) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  fx.AppendData(EncodeBatch({{"SET", "x", "1"}}));
  fx.AppendChecksum(0x1badc0de);  // disagrees with the recomputed chain

  engine::Engine eng;
  replication::RestoreResult res;
  EXPECT_TRUE(ReplayLogTail(fx.client.get(), &eng, &res, 0).IsCorruption());
}

TEST(RecoveryTest, ReplayLogTailRejectsTrimmedHistory) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);
  ClientFixture fx(group.endpoints);

  uint64_t last = 0;
  for (int i = 0; i < 8; ++i) {
    last = fx.AppendData(EncodeBatch({{"SET", "t" + std::to_string(i), "v"}}));
  }
  uint64_t first = 0;
  ASSERT_TRUE(fx.client->TrimSync(last - 2, &first).ok());
  EXPECT_GT(first, 1u);

  // A cold replay (no snapshot) can no longer reach index 1: the snapshot
  // store, not the log, is now the only path to the trimmed prefix.
  engine::Engine eng;
  replication::RestoreResult res;
  EXPECT_TRUE(ReplayLogTail(fx.client.get(), &eng, &res, 0).IsCorruption());
}

// ---------------------------------------------------------------------------
// Log-fed replica server

// Polls the replica until `key` reads back `want` or the deadline passes.
bool WaitForKey(uint16_t port, const std::string& key, const std::string& want,
                int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    TestClient c(port);
    const Value v = c.RoundTrip({"GET", key});
    if (v.type == resp::Type::kBulkString && v.str == want) return true;
    SleepMs(20);
  }
  return false;
}

TEST(ReplicaServerTest, FollowsLogServesReadsRejectsWrites) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_checksum_every = 4;  // exercise chain injection
  primary_cfg.txlog_tail_poll_ms = 50;
  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  net::ServerConfig replica_cfg;
  replica_cfg.port = 0;
  replica_cfg.loop_timeout_ms = 10;
  replica_cfg.replica_of_log = group.endpoints;
  replica_cfg.replica_poll_wait_ms = 50;
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine, replica_cfg);
  ASSERT_TRUE(replica.Start().ok());

  {
    TestClient c(primary.port());
    ASSERT_TRUE(c.ok());
    for (int i = 1; i <= 20; ++i) {
      EXPECT_EQ(c.RoundTrip({"SET", "k" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
  }

  // Replica converges on the acked writes by following the log.
  ASSERT_TRUE(WaitForKey(replica.port(), "k20", "v20"));
  EXPECT_TRUE(WaitForKey(replica.port(), "k1", "v1"));

  {
    TestClient c(replica.port());
    // Local writes are refused (§4.2.1: replicas consume, never produce).
    const Value err = c.RoundTrip({"SET", "nope", "x"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_EQ(err.str.rfind("READONLY", 0), 0u) << err.str;
    // The replica still serves reads after refusing the write.
    EXPECT_EQ(c.RoundTrip({"GET", "k1"}), Value::Bulk("v1"));
    // WAIT answers 0: a replica replicates to no one.
    EXPECT_EQ(c.RoundTrip({"WAIT", "0", "100"}), Value::Integer(0));

    const Value info = c.RoundTrip({"INFO"});
    ASSERT_EQ(info.type, resp::Type::kBulkString);
    EXPECT_NE(info.str.find("role:replica"), std::string::npos);
    EXPECT_NE(info.str.find("replica_link_status:up"), std::string::npos);
    EXPECT_NE(info.str.find("replica_lag_records:"), std::string::npos);
  }

  // Follow-along checksum verification saw the injected records and agreed
  // with every one of them.
  EXPECT_EQ(ServerMetric(replica.port(), "repl_checksum_failures_total"), 0);
  EXPECT_GT(ServerMetric(replica.port(), "repl_entries_applied_total"), 20);
  EXPECT_GE(ServerMetric(primary.port(), "txlog_checksum_records_total"), 5);

  // Log group lost => the replica reports a down link instead of serving
  // silently-stale data as fresh.
  group.StopAll();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool link_down = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (ServerMetric(replica.port(), "repl_link_up") == 0) {
      link_down = true;
      break;
    }
    SleepMs(50);
  }
  EXPECT_TRUE(link_down);
  // Reads still work (stale-but-available), and INFO says the link is down.
  TestClient c(replica.port());
  EXPECT_EQ(c.RoundTrip({"GET", "k1"}), Value::Bulk("v1"));
  const Value info = c.RoundTrip({"INFO"});
  EXPECT_NE(info.str.find("replica_link_status:down"), std::string::npos);

  replica.Stop();
  primary.Stop();
}

// ---------------------------------------------------------------------------
// Off-box snapshot cycle + --restore

TEST(OffboxTest, CycleProducesRestorableSnapshotAndTrimsLog) {
  TempDir store_dir;
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_checksum_every = 4;
  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  {
    TestClient c(primary.port());
    for (int i = 1; i <= 30; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "s" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
  }

  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  opt.trim_slack = 4;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());

  replication::OffboxRunner::CycleResult cycle;
  ASSERT_TRUE(runner.RunCycle(&cycle).ok());
  EXPECT_TRUE(cycle.uploaded);
  EXPECT_FALSE(cycle.restored_from_snapshot);  // first cycle is cold
  EXPECT_GE(cycle.position, 30u);
  EXPECT_GT(cycle.snapshot_bytes, 0u);

  // More writes, then an incremental cycle: it restores its own previous
  // snapshot and replays only the tail past it.
  {
    TestClient c(primary.port());
    for (int i = 31; i <= 40; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "s" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
  }
  replication::OffboxRunner::CycleResult cycle2;
  ASSERT_TRUE(runner.RunCycle(&cycle2).ok());
  EXPECT_TRUE(cycle2.uploaded);
  EXPECT_TRUE(cycle2.restored_from_snapshot);
  EXPECT_GT(cycle2.position, cycle.position);

  // An idle log yields a no-op cycle, not a redundant upload.
  replication::OffboxRunner::CycleResult idle;
  ASSERT_TRUE(runner.RunCycle(&idle).ok());
  EXPECT_FALSE(idle.uploaded);
  runner.Stop();

  // The trim hint took effect: a cold replay from index 1 is impossible...
  {
    ClientFixture fx(group.endpoints);
    txlog::wire::ClientReadResponse rsp;
    ASSERT_TRUE(fx.client->ReadSync(1, 16, 0, &rsp).ok());
    EXPECT_GT(rsp.first_index, 1u);
  }

  // ...so recovery MUST come from the snapshot store: a fresh server with
  // --restore + --replica-of-log rebuilds peer-lessly and converges.
  net::ServerConfig restored_cfg;
  restored_cfg.port = 0;
  restored_cfg.loop_timeout_ms = 10;
  restored_cfg.replica_of_log = group.endpoints;
  restored_cfg.replica_poll_wait_ms = 50;
  restored_cfg.restore = true;
  restored_cfg.store_dir = store_dir.path;
  engine::Engine restored_engine;
  net::RespServer restored(&restored_engine, restored_cfg);
  ASSERT_TRUE(restored.Start().ok());

  EXPECT_TRUE(WaitForKey(restored.port(), "s1", "v1"));     // from snapshot
  EXPECT_TRUE(WaitForKey(restored.port(), "s40", "v40"));   // from log tail
  EXPECT_EQ(ServerMetric(restored.port(), "repl_checksum_failures_total"), 0);

  restored.Stop();
  primary.Stop();
}

TEST(OffboxTest, RefusesToUploadWhenRestoreRehearsalFails) {
  // Direct RestoreFromStore on a corrupted blob: flip a byte inside the
  // stored snapshot and watch recovery fail closed instead of serving it.
  TempDir dir;
  storage::FsObjectStore fs(dir.path, {.fsync = false});
  ASSERT_TRUE(fs.Open().ok());
  replication::SnapshotStore snaps(&fs, "shard-0");

  engine::Engine eng;
  engine::ExecContext ctx;
  eng.Execute({"SET", "k", "v"}, &ctx);
  engine::SnapshotMeta meta;
  meta.log_position = 5;
  ASSERT_TRUE(
      snaps.PutSnapshot(SerializeSnapshot(eng.keyspace(), meta), meta).ok());

  const std::string key = replication::SnapshotStore::SnapshotKey("shard-0", 5);
  std::string blob;
  ASSERT_TRUE(fs.Get(key, &blob).ok());
  blob[blob.size() / 2] ^= 0x40;
  ASSERT_TRUE(fs.Put(key, Slice(blob)).ok());

  engine::Engine fresh;
  replication::RestoreResult res;
  EXPECT_FALSE(RestoreFromStore(&snaps, &fresh, &res).ok());
}

// ---------------------------------------------------------------------------
// Automatic failover (src/failover wired through the RespServer)

// Polls INFO until it contains `needle` or the deadline passes.
bool WaitForInfo(uint16_t port, const std::string& needle,
                 int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    TestClient c(port);
    const Value v = c.RoundTrip({"INFO"});
    if (v.type == resp::Type::kBulkString &&
        v.str.find(needle) != std::string::npos) {
      return true;
    }
    SleepMs(25);
  }
  return false;
}

net::ServerConfig FailoverConfig(const std::vector<std::string>& endpoints,
                                 bool replica, uint64_t writer_id) {
  net::ServerConfig cfg;
  cfg.port = 0;
  cfg.loop_timeout_ms = 10;
  if (replica) {
    cfg.replica_of_log = endpoints;
    cfg.replica_poll_wait_ms = 50;
  } else {
    cfg.txlog_endpoints = endpoints;
    cfg.txlog_tail_poll_ms = 50;
  }
  cfg.txlog_writer_id = writer_id;
  cfg.failover = true;
  cfg.lease_duration_ms = 400;
  cfg.lease_renew_ms = 100;
  cfg.failover_probe_ms = 60;
  cfg.failover_grace_ms = 150;
  return cfg;
}

TEST(FailoverTest, ReplicaPromotesOnPrimaryDeathAndServesWrites) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary->Start().ok());

  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          FailoverConfig(group.endpoints, true, 2));
  ASSERT_TRUE(replica.Start().ok());

  {
    TestClient c(primary->port());
    ASSERT_TRUE(c.ok());
    for (int i = 1; i <= 10; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "fk" + std::to_string(i),
                             "v" + std::to_string(i)}),
                Value::Simple("OK"));
    }
    // The primary holds the lease and reports so.
    const Value info = c.RoundTrip({"INFO"});
    EXPECT_NE(info.str.find("master_failover_state:holding"),
              std::string::npos);
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "fk10", "v10"));

  // Kill the primary (clean Stop: renewals cease, the lease just expires —
  // same observable as a crash, minus the SIGKILL that chaos_e2e adds).
  const uint16_t dead_port = primary->port();
  primary->Stop();
  primary.reset();

  // The replica detects the silence, wins the race, replays, promotes —
  // with no operator involvement.
  ASSERT_TRUE(WaitForInfo(replica.port(), "role:master"));

  TestClient c(replica.port());
  ASSERT_TRUE(c.ok());
  // Every acked write survived the failover.
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(c.RoundTrip({"GET", "fk" + std::to_string(i)}),
              Value::Bulk("v" + std::to_string(i)));
  }
  // The new primary acks durable writes...
  EXPECT_EQ(c.RoundTrip({"SET", "post", "failover"}), Value::Simple("OK"));
  // ...and WAIT reports its real quorum, not a stale replica's 0.
  EXPECT_EQ(c.RoundTrip({"WAIT", "0", "100"}), Value::Integer(2));

  const Value info = c.RoundTrip({"INFO"});
  ASSERT_EQ(info.type, resp::Type::kBulkString);
  EXPECT_NE(info.str.find("role:master"), std::string::npos);
  EXPECT_NE(info.str.find("master_failover_state:holding"),
            std::string::npos);
  EXPECT_NE(info.str.find("failovers_total:1"), std::string::npos);
  EXPECT_EQ(ServerMetric(replica.port(), "failovers_total"), 1);
  EXPECT_GT(ServerMetric(replica.port(), "failover_last_duration_ms"), 0);
  (void)dead_port;

  replica.Stop();
}

TEST(FailoverTest, PromotingReplicaStaysReadonlyUntilReplayCatchesUp) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  auto primary = std::make_unique<net::RespServer>(
      &primary_engine, FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary->Start().ok());

  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine,
                          FailoverConfig(group.endpoints, true, 2));
  ASSERT_TRUE(replica.Start().ok());

  {
    TestClient c(primary->port());
    ASSERT_TRUE(c.ok());
    ASSERT_EQ(c.RoundTrip({"SET", "seen", "yes"}), Value::Simple("OK"));
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "seen", "yes"));

  // Stall the follower feed: every ReadStream response is swallowed, so the
  // replica's applied_index freezes while the log keeps growing.
  for (auto& svc : group.services) {
    svc->fault().DropResponses(txlog::rpcwire::kRead, 500);
  }
  {
    TestClient c(primary->port());
    for (int i = 1; i <= 15; ++i) {
      ASSERT_EQ(c.RoundTrip({"SET", "unseen" + std::to_string(i), "v"}),
                Value::Simple("OK"));
    }
  }
  primary->Stop();
  primary.reset();

  // The replica wins the lease (lease RPCs are not stalled) but cannot
  // reach the replay target: it must sit in kPromoting, refusing writes —
  // acking now could order a new write ahead of an old acked one.
  ASSERT_TRUE(WaitForInfo(replica.port(), "master_failover_state:replaying"));
  {
    TestClient c(replica.port());
    const Value err = c.RoundTrip({"SET", "too-early", "x"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_NE(err.str.find("Promotion in progress"), std::string::npos)
        << err.str;
    // INFO still says replica: the flip happens only at the fenced tail.
    const Value info = c.RoundTrip({"INFO"});
    EXPECT_NE(info.str.find("role:replica"), std::string::npos);
  }

  // Un-stall the feed: replay completes and the node starts serving.
  for (auto& svc : group.services) svc->fault().Clear();
  ASSERT_TRUE(WaitForInfo(replica.port(), "role:master"));
  TestClient c(replica.port());
  for (int i = 1; i <= 15; ++i) {
    EXPECT_EQ(c.RoundTrip({"GET", "unseen" + std::to_string(i)}),
              Value::Bulk("v"));
  }
  EXPECT_EQ(c.RoundTrip({"SET", "now-ok", "x"}), Value::Simple("OK"));

  replica.Stop();
}

TEST(FailoverTest, ZombiePrimaryIsFencedByItsOwnAppendChain) {
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine,
                          FailoverConfig(group.endpoints, false, 1));
  ASSERT_TRUE(primary.Start().ok());
  {
    TestClient c(primary.port());
    ASSERT_EQ(c.RoundTrip({"SET", "pre", "1"}), Value::Simple("OK"));
  }

  // Cut the primary's renewals (the zombie half of a SIGSTOP round: the
  // process lives, its lease maintenance does not).
  for (auto& svc : group.services) {
    svc->fault().DropRequests(txlog::rpcwire::kRenewLease, 100000);
  }

  // Once the lease expires, a contender takes it — its grant record is the
  // fence in the log.
  ClientFixture contender(group.endpoints, /*writer_id=*/9);
  txlog::rpcwire::LeaseResponse lease;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    const Status s =
        contender.client->AcquireLeaseSync(9, 60000, "shard-0", &lease);
    if (s.ok()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    SleepMs(50);
  }

  // The zombie still believes it holds the lease (renewals only time out),
  // but its next chained append lands on the foreign grant: the gate goes
  // terminally fenced, the server demotes, the client is told.
  {
    TestClient c(primary.port());
    const Value err = c.RoundTrip({"SET", "zombie-write", "lost?"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_NE(err.str.find("READONLY"), std::string::npos) << err.str;
  }
  ASSERT_TRUE(WaitForInfo(primary.port(), "role:fenced"));
  // The manager hears about the fence via a task posted to the loop, so its
  // state line can trail the demotion by a beat — poll rather than snapshot.
  ASSERT_TRUE(WaitForInfo(primary.port(), "master_failover_state:fenced"));
  {
    TestClient c(primary.port());
    // Reads stay available; writes stay refused.
    EXPECT_EQ(c.RoundTrip({"GET", "pre"}), Value::Bulk("1"));
    const Value err = c.RoundTrip({"SET", "still-no", "x"});
    ASSERT_EQ(err.type, resp::Type::kError);
    EXPECT_NE(err.str.find("READONLY"), std::string::npos);
    // METRICS agrees with INFO: the gauge pins the terminal state.
    EXPECT_EQ(ServerMetric(primary.port(), "failover_state"), 6);
  }

  for (auto& svc : group.services) svc->fault().Clear();
  primary.Stop();
}

// ---------------------------------------------------------------------------
// Bounded dedup table

TEST(DedupBoundTest, TableStaysBoundedUnderManyWriters) {
  LogGroup group(3, /*dedup_max=*/8);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  ClientFixture fx(group.endpoints);
  for (int i = 0; i < 40; ++i) {
    fx.AppendData("payload-" + std::to_string(i));
  }

  // The bound is a per-node invariant; evictions are only *eventually*
  // visible on every node (a deposed leader can lag the stream until the
  // next heartbeat catches it up), so assert the gauge everywhere and poll
  // for evictions on any node.
  for (auto& svc : group.services) {
    const Gauge* entries = svc->metrics().FindGauge("txlog_dedup_entries");
    ASSERT_NE(entries, nullptr);
    EXPECT_LE(entries->value(), 8);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t evicted = 0;
  while (evicted == 0 && std::chrono::steady_clock::now() < deadline) {
    for (auto& svc : group.services) {
      const Counter* evictions =
          svc->metrics().FindCounter("txlog_dedup_evictions_total");
      if (evictions != nullptr) evicted += evictions->value();
    }
    if (evicted == 0) SleepMs(20);
  }
  EXPECT_GT(evicted, 0u);
}

// ---------------------------------------------------------------------------
// Memory pressure across the log (§2.1)

// A primary under a tight maxmemory evicts and actively expires; both kinds
// of removal leave it only as logged DEL effects. A log-fed replica with no
// memory budget of its own — it never evicts or expires locally — must
// still converge to the primary's post-eviction/post-expiry keyspace, and
// so must a fresh node recovering via --restore from an off-box snapshot
// plus the log tail.
// Group commit keeps the §7.2.1 chain whole: writes pipelined behind a
// held append leave in batches with their checksum records inline, and a
// log-fed replica, like cold recovery, verifies every checksum record.
TEST(ReplicaServerTest, VerifiesChecksumChainOverBatchedAppends) {
  LogGroup group(3);
  const int leader = group.WaitForLeader();
  ASSERT_GE(leader, 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_checksum_every = 3;
  engine::Engine primary_engine;
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  net::ServerConfig replica_cfg;
  replica_cfg.port = 0;
  replica_cfg.loop_timeout_ms = 10;
  replica_cfg.replica_of_log = group.endpoints;
  replica_cfg.replica_poll_wait_ms = 50;
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine, replica_cfg);
  ASSERT_TRUE(replica.Start().ok());

  // Hold the first append's ack so the rest of the pipeline queues.
  group.services[static_cast<size_t>(leader)]->fault().DelayResponses(
      txlog::rpcwire::kAppend, 150, 1);
  constexpr int kWrites = 30;
  {
    TestClient c(primary.port());
    ASSERT_TRUE(c.ok());
    for (int i = 1; i <= kWrites; ++i) {
      ASSERT_TRUE(c.SendCommand(
          {"SET", "b" + std::to_string(i), "v" + std::to_string(i)}));
    }
    const std::vector<Value> replies = c.ReadReplies(kWrites);
    ASSERT_EQ(replies.size(), size_t{kWrites});
    for (const Value& v : replies) EXPECT_EQ(v, Value::Simple("OK"));
  }
  const double appends = ServerMetric(primary.port(), "txlog_gate_appends_total");
  EXPECT_LT(appends, kWrites / 2) << "the pipelined writes were not batched";
  EXPECT_EQ(ServerMetric(primary.port(), "txlog_checksum_records_total"),
            kWrites / 3);

  ASSERT_TRUE(WaitForKey(replica.port(), "b30", "v30"));
  EXPECT_EQ(ServerMetric(replica.port(), "repl_checksum_failures_total"), 0);
  EXPECT_GE(ServerMetric(replica.port(), "repl_entries_applied_total"),
            kWrites + kWrites / 3);

  ClientFixture fx(group.endpoints);
  engine::Engine eng;
  replication::RestoreResult res;
  const Status s = ReplayLogTail(fx.client.get(), &eng, &res, 0);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(res.checksum_records_verified, uint64_t{kWrites / 3});
  EXPECT_EQ(GetKey(&eng, "b17"), "v17");
}

TEST(ReplicaServerTest, EvictionAndExpiryConvergeThroughLogAndRestore) {
  TempDir store_dir;
  LogGroup group(3);
  ASSERT_GE(group.WaitForLeader(), 0);

  net::ServerConfig primary_cfg;
  primary_cfg.port = 0;
  primary_cfg.loop_timeout_ms = 10;
  primary_cfg.txlog_endpoints = group.endpoints;
  primary_cfg.txlog_tail_poll_ms = 50;
  engine::Engine primary_engine;
  primary_engine.set_maxmemory(32 * 1024);
  primary_engine.set_eviction_policy(engine::EvictionPolicy::kAllKeysLru);
  net::RespServer primary(&primary_engine, primary_cfg);
  ASSERT_TRUE(primary.Start().ok());

  net::ServerConfig replica_cfg;  // deliberately unbounded
  replica_cfg.port = 0;
  replica_cfg.loop_timeout_ms = 10;
  replica_cfg.replica_of_log = group.endpoints;
  replica_cfg.replica_poll_wait_ms = 50;
  engine::Engine replica_engine;
  net::RespServer replica(&replica_engine, replica_cfg);
  ASSERT_TRUE(replica.Start().ok());

  // ~45 KiB of payload into a 32 KiB budget forces evictions; every fifth
  // key carries a short TTL so the primary's active sweep also runs.
  constexpr int kKeys = 300;
  {
    TestClient c(primary.port());
    ASSERT_TRUE(c.ok());
    for (int i = 0; i < kKeys; ++i) {
      std::vector<std::string> cmd = {
          "SET", "k" + std::to_string(i),
          std::string(128, static_cast<char>('a' + i % 26))};
      if (i % 5 == 0) {
        cmd.push_back("PX");
        cmd.push_back("400");
      }
      ASSERT_EQ(c.RoundTrip(cmd), Value::Simple("OK")) << "key " << i;
    }
  }
  EXPECT_GT(ServerMetric(primary.port(), "evicted_keys_total"), 0);
  EXPECT_LE(ServerMetric(primary.port(), "used_memory_bytes"), 32 * 1024);

  // Let the TTLs lapse and the active sweep log its DELs, then fence the
  // history with a marker write the replica can wait for.
  SleepMs(900);
  {
    TestClient c(primary.port());
    ASSERT_EQ(c.RoundTrip({"SET", "marker", "done"}), Value::Simple("OK"));
  }
  ASSERT_TRUE(WaitForKey(replica.port(), "marker", "done"));
  EXPECT_GT(ServerMetric(primary.port(), "expired_keys_total"), 0);

  // The replica never removed anything on its own authority.
  EXPECT_EQ(ServerMetric(replica.port(), "evicted_keys_total"), 0);
  EXPECT_EQ(ServerMetric(replica.port(), "expired_keys_total"), 0);

  auto dbsize = [](uint16_t port) -> int64_t {
    TestClient c(port);
    return c.RoundTrip({"DBSIZE"}).integer;
  };
  auto wait_converged = [&](uint16_t port) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (dbsize(port) == dbsize(primary.port())) return true;
      SleepMs(50);
    }
    return false;
  };
  EXPECT_TRUE(wait_converged(replica.port()))
      << "replica dbsize " << dbsize(replica.port()) << " vs primary "
      << dbsize(primary.port());

  // Key-by-key agreement: evicted and expired keys are gone on both sides,
  // survivors carry identical values.
  {
    TestClient pc(primary.port());
    TestClient rc(replica.port());
    for (int i = 0; i < kKeys; ++i) {
      const Value pv = pc.RoundTrip({"GET", "k" + std::to_string(i)});
      const Value rv = rc.RoundTrip({"GET", "k" + std::to_string(i)});
      EXPECT_EQ(pv.IsNull(), rv.IsNull()) << "key k" << i;
      if (!pv.IsNull() && !rv.IsNull()) {
        EXPECT_EQ(pv.str, rv.str) << "key k" << i;
      }
    }
  }

  // Same convergence through the off-box path: snapshot + log tail into a
  // fresh --restore node that never saw the live traffic.
  replication::OffboxRunner::Options opt;
  opt.endpoints = group.endpoints;
  opt.store_dir = store_dir.path;
  opt.fsync = false;
  MetricsRegistry offbox_metrics;
  replication::OffboxRunner runner(opt, &offbox_metrics);
  ASSERT_TRUE(runner.Start().ok());
  replication::OffboxRunner::CycleResult cycle;
  ASSERT_TRUE(runner.RunCycle(&cycle).ok());
  EXPECT_TRUE(cycle.uploaded);
  runner.Stop();

  net::ServerConfig restored_cfg;
  restored_cfg.port = 0;
  restored_cfg.loop_timeout_ms = 10;
  restored_cfg.replica_of_log = group.endpoints;
  restored_cfg.replica_poll_wait_ms = 50;
  restored_cfg.restore = true;
  restored_cfg.store_dir = store_dir.path;
  engine::Engine restored_engine;
  net::RespServer restored(&restored_engine, restored_cfg);
  ASSERT_TRUE(restored.Start().ok());

  ASSERT_TRUE(WaitForKey(restored.port(), "marker", "done"));
  EXPECT_TRUE(wait_converged(restored.port()))
      << "restored dbsize " << dbsize(restored.port()) << " vs primary "
      << dbsize(primary.port());

  restored.Stop();
  replica.Stop();
  primary.Stop();
}

}  // namespace
}  // namespace memdb
