// writepath_breakdown: per-stage latency attribution of the §3.1 durable
// write path, measured on the REAL cluster pieces — an in-process
// 3-replica txlog group (txlog::LogService over loopback sockets) behind a
// net::RespServer, driven by a plain RESP client socket. Every write is
// traced (sample rate 1); afterwards the server's and each log replica's
// span logs are exported/merged exactly the way tools/memorydb-trace does
// it, and the report says where each microsecond of an acked SET went:
//
//   cmd.receive -> gate.submit -> gate.append.issue -> rpc.send ->
//   rpc.dispatch -> log.append.receive -> log.durable.local ->
//   log.quorum.commit -> rpc.recv -> append.ack -> reply.release
//
// The gate.submit -> gate.append.issue delta is the wait for the append
// ahead; with group commit, a write waits there with every other write
// that queued beside it, and they leave as one batch.
//
//   writepath_breakdown [ops] [payload_bytes]
//
// Emits BENCH_writepath.json: envelope, end-to-end p50/p99, per-stage
// p50/p99 along the chain, and the telescoping sum check (per-stage p50s
// vs end-to-end p50 — the same cross-check the driver applies against
// BENCH_rpc.json's single-append latency).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support/envelope.h"
#include "common/histogram.h"
#include "common/trace_export.h"
#include "engine/engine.h"
#include "net/server.h"
#include "resp/resp.h"
#include "txlog/service.h"

namespace memdb::bench {
namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Group {
  std::vector<std::unique_ptr<txlog::LogService>> services;
  std::vector<std::string> endpoints;

  bool Start(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      txlog::LogService::Options opt;
      opt.node_id = i + 1;
      opt.listen_port = 0;
      opt.fsync = false;  // memory-only replicas; quorum still required
      opt.heartbeat_ms = 20;
      opt.election_min_ms = 50;
      opt.election_max_ms = 120;
      opt.raft_rpc_timeout_ms = 100;
      services.push_back(std::make_unique<txlog::LogService>(opt));
      if (!services.back()->Start().ok()) return false;
    }
    std::vector<std::pair<uint64_t, std::string>> membership;
    for (size_t i = 0; i < n; ++i) {
      endpoints.push_back("127.0.0.1:" + std::to_string(services[i]->port()));
      membership.emplace_back(i + 1, endpoints.back());
    }
    for (auto& s : services) s->SetPeers(membership);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      for (auto& s : services) {
        if (s->IsLeader()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  void Stop() {
    for (auto& s : services) s->Stop();
  }
};

// Blocking RESP client: one connection, sequential round trips — the
// single-writer shape whose per-stage breakdown the report attributes.
class Client {
 public:
  explicit Client(uint16_t port) {
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
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool RoundTrip(const std::vector<std::string>& argv, resp::Value* reply) {
    const std::string bytes = resp::EncodeCommand(argv);
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    char buf[16 * 1024];
    for (;;) {
      const resp::DecodeStatus st = dec_.Decode(reply);
      if (st == resp::DecodeStatus::kOk) return true;
      if (st == resp::DecodeStatus::kError) return false;
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) return false;
      dec_.Feed(Slice(buf, static_cast<size_t>(r)));
    }
  }

 private:
  int fd_ = -1;
  resp::Decoder dec_;
};

int Run(int ops, int payload_bytes) {
  std::printf("writepath_breakdown: 3-replica log group behind RespServer, "
              "ops=%d payload=%dB\n",
              ops, payload_bytes);
  Group group;
  if (!group.Start(3)) {
    std::fprintf(stderr, "log group failed to start / elect a leader\n");
    return 1;
  }

  engine::Engine engine;
  net::ServerConfig config;
  config.port = 0;
  config.txlog_endpoints = group.endpoints;
  config.trace_sample_rate = 1;  // trace every write: attribution, not load
  net::RespServer server(&engine, config);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "resp server failed to start\n");
    group.Stop();
    return 1;
  }

  Client client(server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "client failed to connect\n");
    server.Stop();
    group.Stop();
    return 1;
  }
  const std::string payload(static_cast<size_t>(payload_bytes), 'x');
  resp::Value reply;
  // Warm up: leader hint + connection setup stay out of the measurement.
  if (!client.RoundTrip({"SET", "warm", payload}, &reply)) {
    std::fprintf(stderr, "warmup write failed\n");
    server.Stop();
    group.Stop();
    return 1;
  }

  Histogram client_rtt;
  int failed = 0;
  const uint64_t bench_t0 = NowUs();
  for (int i = 0; i < ops; ++i) {
    const std::string key = "k" + std::to_string(i % 64);
    const uint64_t t0 = NowUs();
    if (!client.RoundTrip({"SET", key, payload}, &reply) ||
        reply.type != resp::Type::kSimpleString) {
      ++failed;
      continue;
    }
    client_rtt.Record(NowUs() - t0);
  }
  const double wall_s = static_cast<double>(NowUs() - bench_t0) / 1e6;
  if (failed != 0) {
    std::fprintf(stderr, "%d writes failed\n", failed);
  }

  // Export/merge every process's spans — identical to what memorydb-trace
  // does with --trace-file outputs, just without the filesystem hop.
  std::vector<ExportedSpan> spans;
  ParseSpansJsonl(ExportSpansJsonl(server.trace_log(), "server"), &spans);
  for (size_t i = 0; i < group.services.size(); ++i) {
    ParseSpansJsonl(
        ExportSpansJsonl(group.services[i]->trace_log(),
                         "txlogd-" + std::to_string(i + 1)),
        &spans);
  }
  const size_t total_spans = spans.size();
  const auto by_trace = GroupSpansByTrace(std::move(spans));
  const WritePathReport report =
      BuildWritePathReport(by_trace, WritePathChain());

  std::printf("  spans=%zu traces=%zu complete_chains=%zu\n", total_spans,
              report.traces, report.complete_chains);
  uint64_t stage_p50_sum = 0;
  for (const StageDelta& d : report.deltas) {
    stage_p50_sum += d.latency_us.Percentile(0.5);
    std::printf("  %-22s -> %-22s count=%llu p50=%lluus p99=%lluus\n",
                d.from.c_str(), d.to.c_str(),
                static_cast<unsigned long long>(d.latency_us.count()),
                static_cast<unsigned long long>(d.latency_us.Percentile(0.5)),
                static_cast<unsigned long long>(
                    d.latency_us.Percentile(0.99)));
  }
  std::printf("  end_to_end p50=%lluus p99=%lluus  client RTT p50=%lluus  "
              "stage-p50 sum=%lluus  %.0f writes/s\n",
              static_cast<unsigned long long>(
                  report.end_to_end_us.Percentile(0.5)),
              static_cast<unsigned long long>(
                  report.end_to_end_us.Percentile(0.99)),
              static_cast<unsigned long long>(client_rtt.Percentile(0.5)),
              static_cast<unsigned long long>(stage_p50_sum),
              wall_s > 0 ? static_cast<double>(client_rtt.count()) / wall_s
                         : 0);

  std::string json = "{";
  json += BenchEnvelopeJson(
      "writepath_breakdown",
      {{"ops", std::to_string(ops)},
       {"payload_bytes", std::to_string(payload_bytes)},
       {"log_replicas", "3"},
       {"trace_sample_rate", "1"}});
  json += ",\"ops\":" + std::to_string(ops);
  json += ",\"traces\":" + std::to_string(report.traces);
  json += ",\"complete_chains\":" + std::to_string(report.complete_chains);
  json += ",\"end_to_end\":{\"p50_us\":" +
          std::to_string(report.end_to_end_us.Percentile(0.5)) +
          ",\"p99_us\":" +
          std::to_string(report.end_to_end_us.Percentile(0.99)) +
          ",\"count\":" + std::to_string(report.end_to_end_us.count()) + "}";
  json += ",\"client_rtt\":{\"p50_us\":" +
          std::to_string(client_rtt.Percentile(0.5)) +
          ",\"p99_us\":" + std::to_string(client_rtt.Percentile(0.99)) + "}";
  json += ",\"stage_p50_sum_us\":" + std::to_string(stage_p50_sum);
  json += ",\"stages\":[";
  for (size_t i = 0; i < report.deltas.size(); ++i) {
    const StageDelta& d = report.deltas[i];
    if (i > 0) json += ",";
    json += "{\"from\":" + QuoteJson(d.from);
    json += ",\"to\":" + QuoteJson(d.to);
    json += ",\"count\":" + std::to_string(d.latency_us.count());
    json += ",\"p50_us\":" + std::to_string(d.latency_us.Percentile(0.5));
    json += ",\"p99_us\":" + std::to_string(d.latency_us.Percentile(0.99));
    json += "}";
  }
  json += "]}\n";
  std::FILE* f = std::fopen("BENCH_writepath.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("  wrote BENCH_writepath.json\n");
  }

  server.Stop();
  group.Stop();
  return failed != 0 || report.complete_chains == 0 ? 1 : 0;
}

}  // namespace
}  // namespace memdb::bench

int main(int argc, char** argv) {
  const int ops = argc > 1 ? std::atoi(argv[1]) : 500;
  const int payload = argc > 2 ? std::atoi(argv[2]) : 128;
  if (ops < 1 || payload < 0) {
    std::fprintf(stderr, "usage: writepath_breakdown [ops] [payload_bytes]\n");
    return 2;
  }
  return memdb::bench::Run(ops, payload);
}
