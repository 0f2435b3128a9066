// pbload: the load generator and layer prober of the durable-path benchmark
// (perfbench/run.py starts the program's processes and calls this).
//
//   pbload run --workload durable_write|read_mostly|recovery --seed N
//                --seconds N --port P --endpoints H:P,H:P,H:P
//                --server-pid N --txlog-pids N,N,N --wals PATH,PATH,PATH
//                --store DIR [--trace 0|1 --bench-trace-file PATH]
//                [--corrupt-model 0|1]
//   pbload merge --files PATH,PATH,...
//
// `run` drives one running memorydb-server (durable: its writes go through
// RemoteLogGate to three memorydb-txlogd replicas) over plain RESP sockets
// from one thread: 4 connections, 8 commands in flight on each, closed loop
// (a connection sends its next batch once every reply of the last one is
// in). It then rebuilds engines from the log and the snapshot store through
// the public recovery functions, and prints one JSON object on stdout.
//
// Every check is computed here, apart from the program: values carry their
// key id, a version and an FNV-1a checksum; pbload keeps its own model
// of the last acknowledged version of every key and parses replies with its
// own RESP reader.
//
// `merge` folds the span files the processes export (--trace-file) with
// common/trace_export into per-stage latency tables.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/trace.h"
#include "common/trace_export.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "replication/offbox_runner.h"
#include "replication/recovery.h"
#include "replication/snapshot_store.h"
#include "resp/resp.h"
#include "rpc/channel.h"
#include "rpc/loop.h"
#include "storage/fs_object_store.h"
#include "txlog/remote_client.h"
#include "txlog/rpc_wire.h"
#include "txlog/wire.h"

namespace pb {
namespace {

using memdb::Status;

// ---------------------------------------------------------------------------
// Clocks, arguments, small helpers

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "pbload: %s\n", why.c_str());
  std::exit(2);
}

class Args {
 public:
  Args(int argc, char** argv, int first) {
    if ((argc - first) % 2 != 0) Die("arguments come in --name value pairs");
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) Die("bad argument " + std::string(argv[i]));
      values_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string Str(const std::string& name, const std::string& def = "") const {
    auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    if (def.empty()) Die("missing --" + name);
    return def;
  }
  uint64_t Num(const std::string& name, int64_t def = -1) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      if (def < 0) Die("missing --" + name);
      return static_cast<uint64_t>(def);
    }
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') Die("bad --" + name);
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Exact percentile of an unsorted sample (nearest rank); 0 when empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + "\"";
}

// Minimal JSON object writer: numbers keep every digit they have.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  Json& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Obj(const std::string& key, const Json& v) { return Raw(key, v.Text()); }
  Json& Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Self-describing values
//
//   k<8-digit key id>|v<10-digit version>|<filler>|<16-hex FNV-1a 64>
//
// fixed at kValueBytes; the checksum covers everything before the last '|'.

constexpr size_t kValueBytes = 100;

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string KeyName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key:%08" PRIu64, id);
  return buf;
}

std::string MakeValue(uint64_t key, uint64_t version) {
  char head[48];
  std::snprintf(head, sizeof(head), "k%08" PRIu64 "|v%010" PRIu64 "|", key,
                version);
  std::string v = head;
  const size_t filler = kValueBytes - v.size() - 17;
  for (size_t i = 0; i < filler; ++i) {
    v += static_cast<char>('a' + (key * 31 + version * 7 + i) % 26);
  }
  char tail[24];
  std::snprintf(tail, sizeof(tail), "|%016" PRIx64, Fnv1a(v));
  return v + tail;
}

// True when `v` is a well-formed value; fills its key id and version.
bool ParseValue(std::string_view v, uint64_t* key, uint64_t* version) {
  if (v.size() != kValueBytes || v[0] != 'k' || v[9] != '|' || v[10] != 'v' ||
      v[21] != '|' || v[kValueBytes - 17] != '|') {
    return false;
  }
  char tail[24];
  std::snprintf(tail, sizeof(tail), "%016" PRIx64,
                Fnv1a(v.substr(0, kValueBytes - 17)));
  if (v.substr(kValueBytes - 16) != tail) return false;
  *key = std::strtoull(std::string(v.substr(1, 8)).c_str(), nullptr, 10);
  *version = std::strtoull(std::string(v.substr(11, 10)).c_str(), nullptr, 10);
  return true;
}

// ---------------------------------------------------------------------------
// The model: per key, the newest version sent and the newest acknowledged.
//
// A key's writes are in flight on at most one connection at a time (a write
// to a key another connection is still writing is redrawn), so the server
// applies a key's writes in version order and "last acknowledged" is exact.

struct KeyState {
  uint64_t sent = 0;
  uint64_t acked = 0;        // 0: never written
  bool acked_deleted = false;
  int writer = -1;           // connection with writes in flight
  uint32_t inflight = 0;
};

struct Model {
  std::vector<KeyState> keys;

  explicit Model(size_t n = 0) : keys(n) {}

  bool Live(uint64_t k) const { return keys[k].acked != 0 && !keys[k].acked_deleted; }
  // Expected GET reply: the value, or empty for a missing key.
  std::string Expected(uint64_t k) const { return Live(k) ? MakeValue(k, keys[k].acked) : ""; }
  uint64_t LiveKeys() const {
    uint64_t n = 0;
    for (uint64_t k = 0; k < keys.size(); ++k) n += Live(k) ? 1 : 0;
    return n;
  }
  // key + value bytes of every live key.
  uint64_t LiveBytes() const {
    uint64_t n = 0;
    for (uint64_t k = 0; k < keys.size(); ++k) {
      if (Live(k)) n += KeyName(k).size() + kValueBytes;
    }
    return n;
  }
};

// ---------------------------------------------------------------------------
// RESP on the wire, written here so the checks do not lean on the program's
// own codec.

template <typename Args>
void AppendCommand(std::string* out, const Args& args) {
  out->append("*").append(std::to_string(std::size(args))).append("\r\n");
  for (std::string_view a : args) {
    out->append("$").append(std::to_string(a.size())).append("\r\n");
    out->append(a).append("\r\n");
  }
}

void AppendCommand(std::string* out, std::initializer_list<std::string_view> args) {
  AppendCommand<std::initializer_list<std::string_view>>(out, args);
}

struct Reply {
  char type = 0;           // '+', '-', ':', '$' (bulk or nil), '*'
  bool nil = false;
  std::string_view text;   // simple/error/bulk payload, view into the buffer
  int64_t integer = 0;
};

// Parses one reply at buf[*pos]; false when more bytes are needed. Arrays
// are skipped element by element (only their count is kept).
bool ParseReply(const std::string& buf, size_t* pos, Reply* r) {
  const size_t start = *pos;
  if (start >= buf.size()) return false;
  const size_t eol = buf.find("\r\n", start);
  if (eol == std::string::npos) return false;
  r->type = buf[start];
  r->nil = false;
  const std::string_view line(buf.data() + start + 1, eol - start - 1);
  switch (r->type) {
    case '+':
    case '-':
      r->text = line;
      *pos = eol + 2;
      return true;
    case ':':
      r->integer = std::strtoll(std::string(line).c_str(), nullptr, 10);
      *pos = eol + 2;
      return true;
    case '$': {
      const int64_t n = std::strtoll(std::string(line).c_str(), nullptr, 10);
      if (n < 0) {
        r->nil = true;
        r->text = {};
        *pos = eol + 2;
        return true;
      }
      const size_t body = eol + 2;
      if (buf.size() < body + static_cast<size_t>(n) + 2) return false;
      r->text = std::string_view(buf.data() + body, static_cast<size_t>(n));
      *pos = body + static_cast<size_t>(n) + 2;
      return true;
    }
    case '*': {
      const int64_t n = std::strtoll(std::string(line).c_str(), nullptr, 10);
      size_t p = eol + 2;
      Reply elem;
      for (int64_t i = 0; i < n; ++i) {
        if (!ParseReply(buf, &p, &elem)) return false;
      }
      r->integer = n;
      *pos = p;
      return true;
    }
    default:
      Die("protocol error from server");
  }
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&sa), sizeof(sa)) != 0) {
    Die("connect to port " + std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) Die("send failed");
    off += static_cast<size_t>(n);
  }
}

// One blocking request/reply on its own connection (METRICS scrapes).
std::string RoundTripBulk(uint16_t port, std::initializer_list<std::string_view> args) {
  const int fd = Connect(port);
  std::string out;
  AppendCommand(&out, args);
  SendAll(fd, out);
  std::string in;
  char buf[64 * 1024];
  for (;;) {
    size_t pos = 0;
    Reply r;
    if (ParseReply(in, &pos, &r)) {
      ::close(fd);
      return std::string(r.text);
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) Die("scrape connection closed");
    in.append(buf, static_cast<size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Closed-loop load over pipelined connections

enum OpType : int { kSet = 0, kGet = 1, kDel = 2, kMset = 3, kOpTypes = 4 };
const char* const kOpNames[kOpTypes] = {"set", "get", "del", "mset"};

struct Op {
  OpType type = kSet;
  uint64_t key = 0;       // MSET: first key of a run of `count`
  uint32_t count = 1;
  uint64_t version = 0;   // SET / DEL
  uint64_t floor = 0;     // GET: acknowledged version when sent
  bool floor_deleted = false;
  bool exact = false;     // GET: must equal the model (read-back)
};

struct OpCounts {
  uint64_t attempted[kOpTypes] = {};
  uint64_t failed[kOpTypes] = {};
  void Add(const OpCounts& o) {
    for (int i = 0; i < kOpTypes; ++i) {
      attempted[i] += o.attempted[i];
      failed[i] += o.failed[i];
    }
  }
  uint64_t Attempted() const {
    uint64_t n = 0;
    for (uint64_t a : attempted) n += a;
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (uint64_t f : failed) n += f;
    return n;
  }
};

struct PhaseResult {
  OpCounts counts;
  std::vector<double> latency_us[kOpTypes];
  uint64_t completed = 0;
  uint64_t user_bytes = 0;   // key (+ value) bytes of acknowledged writes
  uint64_t writes_acked = 0; // SET/DEL/MSET commands acknowledged
  uint64_t reads = 0;
  double seconds = 0;        // first send to last reply
  std::vector<std::string> failures;  // first few, for the log
};

class Load {
 public:
  // Returns false when the phase has no more operations to issue.
  using Gen = std::function<bool(int conn, Op* op)>;

  Load(uint16_t port, int conns, int pipeline, Model* model)
      : model_(model), pipeline_(pipeline) {
    conns_.resize(static_cast<size_t>(conns));
    for (Conn& c : conns_) c.fd = Connect(port);
  }
  ~Load() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  // True when a write to `key` may be sent on `conn` now.
  bool Writable(int conn, uint64_t key) const {
    const KeyState& k = model_->keys[key];
    return k.inflight == 0 || k.writer == conn;
  }

  // Issues operations from `gen` until it runs dry or `deadline_ns` passes,
  // then waits for every reply in flight.
  PhaseResult Run(const Gen& gen, uint64_t deadline_ns, bool record) {
    PhaseResult res;
    bool issuing = true;
    const uint64_t t0 = NowNs();
    uint64_t last_progress = t0;
    std::vector<struct pollfd> pfds(conns_.size());
    for (;;) {
      if (issuing && deadline_ns != 0 && NowNs() >= deadline_ns) issuing = false;
      for (size_t i = 0; i < conns_.size() && issuing; ++i) {
        Conn& c = conns_[i];
        if (!c.inflight.empty()) continue;
        std::string out;
        for (int n = 0; n < pipeline_; ++n) {
          Op op;
          if (!gen(static_cast<int>(i), &op)) {
            issuing = false;
            break;
          }
          Issue(static_cast<int>(i), op, &out);
          c.inflight.push_back(op);
          ++res.counts.attempted[op.type];
        }
        if (!c.inflight.empty()) {
          c.sent_ns = NowNs();
          c.next = 0;
          SendAll(c.fd, out);
        }
      }
      size_t busy = 0;
      for (size_t i = 0; i < conns_.size(); ++i) {
        pfds[i].fd = conns_[i].inflight.empty() ? -1 : conns_[i].fd;
        pfds[i].events = POLLIN;
        pfds[i].revents = 0;
        busy += conns_[i].inflight.empty() ? 0 : 1;
      }
      if (busy == 0) break;
      const int ready = ::poll(pfds.data(), pfds.size(), 200);
      if (ready <= 0) {
        if (NowNs() - last_progress > 20'000'000'000ull) {
          for (Conn& c : conns_) {
            for (size_t j = c.next; j < c.inflight.size(); ++j) {
              Fail(&res, c.inflight[j], "no reply within 20 s");
            }
            c.inflight.clear();
          }
          break;
        }
        continue;
      }
      for (size_t i = 0; i < conns_.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns_[i];
        char buf[256 * 1024];
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n <= 0) Die("server closed a load connection");
        const uint64_t at = NowNs();
        c.in.append(buf, static_cast<size_t>(n));
        size_t pos = 0;
        Reply r;
        while (c.next < c.inflight.size() && ParseReply(c.in, &pos, &r)) {
          Complete(static_cast<int>(i), c.inflight[c.next], r,
                   static_cast<double>(at - c.sent_ns) / 1000.0, record, &res);
          ++c.next;
        }
        c.in.erase(0, pos);
        if (c.next == c.inflight.size()) c.inflight.clear();
        last_progress = at;
      }
    }
    res.seconds = static_cast<double>(NowNs() - t0) / 1e9;
    return res;
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<Op> inflight;
    size_t next = 0;
    uint64_t sent_ns = 0;
    std::string in;
  };

  void Issue(int conn, Op& op, std::string* out) {
    switch (op.type) {
      case kSet:
      case kDel: {
        KeyState& k = model_->keys[op.key];
        op.version = ++k.sent;
        k.writer = conn;
        ++k.inflight;
        const std::string key = KeyName(op.key);
        if (op.type == kSet) {
          AppendCommand(out, {"SET", key, MakeValue(op.key, op.version)});
        } else {
          AppendCommand(out, {"DEL", key});
        }
        break;
      }
      case kMset: {
        std::vector<std::string> parts;
        parts.reserve(1 + 2 * op.count);
        parts.push_back("MSET");
        for (uint32_t i = 0; i < op.count; ++i) {
          KeyState& k = model_->keys[op.key + i];
          const uint64_t v = ++k.sent;
          k.writer = conn;
          ++k.inflight;
          parts.push_back(KeyName(op.key + i));
          parts.push_back(MakeValue(op.key + i, v));
        }
        AppendCommand(out, parts);
        break;
      }
      case kGet: {
        const KeyState& k = model_->keys[op.key];
        op.floor = k.acked;
        op.floor_deleted = k.acked_deleted;
        AppendCommand(out, {"GET", KeyName(op.key)});
        break;
      }
      default:
        break;
    }
  }

  void Fail(PhaseResult* res, const Op& op, const std::string& why) {
    ++res->counts.failed[op.type];
    if (res->failures.size() < 5) {
      res->failures.push_back(std::string(kOpNames[op.type]) + " " +
                              KeyName(op.key) + ": " + why);
    }
  }

  void Complete(int conn, const Op& op, const Reply& r, double latency_us,
                bool record, PhaseResult* res) {
    bool ok = true;
    std::string why;
    if (r.type == '-') {
      ok = false;
      why = "error reply " + std::string(r.text);
    }
    switch (op.type) {
      case kSet:
      case kDel:
      case kMset: {
        const uint32_t n = op.type == kMset ? op.count : 1;
        for (uint32_t i = 0; i < n; ++i) {
          KeyState& k = model_->keys[op.key + i];
          --k.inflight;
          if (ok) {
            // MSET sets every key to its own next version in order.
            const uint64_t v = op.type == kMset ? k.acked + 1 : op.version;
            k.acked = std::max(k.acked, v);
            k.acked_deleted = op.type == kDel;
          }
        }
        if (ok && op.type != kDel && !(r.type == '+' && r.text == "OK")) {
          ok = false;
          why = "unexpected reply type";
        }
        if (ok && op.type == kDel && !(r.type == ':' && r.integer == 1)) {
          ok = false;
          why = "DEL of a live key did not delete it";
        }
        if (ok) {
          ++res->writes_acked;
          for (uint32_t i = 0; i < n; ++i) {
            res->user_bytes += KeyName(op.key + i).size() +
                               (op.type == kDel ? 0 : kValueBytes);
          }
        }
        break;
      }
      case kGet: {
        ++res->reads;
        if (!ok) break;
        if (r.type != '$') {
          ok = false;
          why = "GET reply is not a bulk string";
          break;
        }
        if (op.exact) {
          const std::string want = model_->Expected(op.key);
          if ((want.empty() && !r.nil) || (!want.empty() && r.text != want)) {
            ok = false;
            why = "read-back differs from the last acknowledged value";
          }
          break;
        }
        if (r.nil) {
          if (op.floor != 0 && !op.floor_deleted) {
            ok = false;
            why = "nil for a key with an acknowledged value";
          }
          break;
        }
        uint64_t key = 0, version = 0;
        if (!ParseValue(r.text, &key, &version)) {
          ok = false;
          why = "malformed value";
        } else if (key != op.key) {
          ok = false;
          why = "value of another key";
        } else if (version < op.floor) {
          ok = false;
          why = "stale: version " + std::to_string(version) + " < acked " +
                std::to_string(op.floor);
        } else if (version > model_->keys[op.key].sent) {
          ok = false;
          why = "version never written";
        }
        break;
      }
      default:
        break;
    }
    (void)conn;
    if (!ok) {
      Fail(res, op, why);
      return;
    }
    ++res->completed;
    if (record) res->latency_us[op.type].push_back(latency_us);
  }

  Model* model_;
  int pipeline_;
  std::vector<Conn> conns_;
};

// YCSB scrambled Zipfian over [0, n) (Gray et al.), hashed so hot keys
// spread over the key space.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  uint64_t Next(memdb::Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    rank = std::min(rank, n_ - 1);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, rank);
    return Fnv1a(buf) % n_;
  }

 private:
  uint64_t n_;
  double theta_, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// ---------------------------------------------------------------------------
// Reading the program from outside: process CPU, METRICS, svc.Metrics

// utime + stime of a process, in microseconds.
double ProcCpuUs(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc stat of pid " + std::to_string(pid));
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Series(const std::string& exposition, const std::string& series) {
  double v = 0;
  if (!memdb::MetricsRegistry::ParseSeries(exposition, series, &v)) return 0;
  return v;
}

// Sum of every sample of a family whose labels contain `label_filter`.
double SeriesSum(const std::string& exposition, const std::string& family,
                 const std::string& label_filter = "") {
  double sum = 0;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, family.size(), family) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const size_t sp = line.rfind(' ');
    const std::string labels = line.substr(family.size(), sp - family.size());
    if (labels.find("quantile") != std::string::npos) continue;
    if (!label_filter.empty() && labels.find(label_filter) == std::string::npos) continue;
    sum += std::atof(line.c_str() + sp + 1);
  }
  return sum;
}

std::string RpcMetrics(memdb::rpc::LoopThread* loop, const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  memdb::rpc::Channel channel(loop, endpoint.substr(0, colon),
                              static_cast<uint16_t>(std::atoi(endpoint.c_str() + colon + 1)));
  memdb::Mutex mu;
  memdb::CondVar cv;
  bool done = false;
  std::string out;
  channel.Call(memdb::txlog::rpcwire::kMetrics, std::string(), /*timeout_ms=*/3000,
               /*trace_id=*/0, [&](const Status& s, std::string payload) {
                 memdb::MutexLock lock(&mu);
                 if (s.ok()) out = std::move(payload);
                 done = true;
                 cv.Signal();
               });
  {
    memdb::MutexLock lock(&mu);
    while (!done) cv.Wait(&mu);
  }
  channel.Shutdown();
  return out;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// The mean size of the replicas' log files, read once every replica has
// caught up: a commit needs two of the three, so the third may still be
// writing when the load drains. The sizes are settled when their sum holds
// for 100 ms (at most 5 s).
double SettledWalBytes(const std::vector<std::string>& wals) {
  auto sum = [&wals] {
    uint64_t n = 0;
    for (const std::string& w : wals) n += FileBytes(w);
    return n;
  };
  uint64_t last = sum();
  const uint64_t give_up = NowNs() + 5'000'000'000ull;
  for (uint64_t held_since = NowNs(); NowNs() - held_since < 100'000'000ull && NowNs() < give_up;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t now = sum();
    if (now != last) {
      last = now;
      held_since = NowNs();
    }
  }
  return static_cast<double>(last) / static_cast<double>(std::max<size_t>(1, wals.size()));
}

// Everything read from outside the program at one instant.
struct Probe {
  double server_cpu_us = 0;
  double txlog_cpu_us = 0;
  double wal_bytes = 0;
  std::string server_metrics;
  std::vector<std::string> txlog_metrics;
};

struct Env {
  uint16_t port = 0;
  std::vector<std::string> endpoints;
  int server_pid = 0;
  std::vector<int> txlog_pids;
  std::vector<std::string> wals;  // each replica's log file
  memdb::rpc::LoopThread* loop = nullptr;

  Probe Read() const {
    Probe p;
    p.server_cpu_us = ProcCpuUs(server_pid);
    for (int pid : txlog_pids) p.txlog_cpu_us += ProcCpuUs(pid);
    p.wal_bytes = SettledWalBytes(wals);
    p.server_metrics = RoundTripBulk(port, {"METRICS"});
    for (const std::string& e : endpoints) p.txlog_metrics.push_back(RpcMetrics(loop, e));
    return p;
  }
};

// ---------------------------------------------------------------------------
// Recovery: rebuild a fresh engine from the log (and the snapshot store)
// and compare it with the model.

bool VerifyEngine(memdb::engine::Engine* e, const Model& m, std::string* why) {
  memdb::engine::ExecContext ctx;
  ctx.now_ms = WallMs();
  ctx.role = memdb::engine::Role::kReplicaRead;
  for (uint64_t k = 0; k < m.keys.size(); ++k) {
    const memdb::resp::Value v = e->Execute({"GET", KeyName(k)}, &ctx);
    const std::string want = m.Expected(k);
    const bool match = want.empty() ? v.IsNull()
                                    : (v.type == memdb::resp::Type::kBulkString && v.str == want);
    if (!match) {
      *why = "rebuilt engine differs from the model at " + KeyName(k);
      return false;
    }
  }
  const memdb::resp::Value size = e->Execute({"DBSIZE"}, &ctx);
  if (size.integer != static_cast<int64_t>(m.LiveKeys())) {
    *why = "rebuilt DBSIZE " + std::to_string(size.integer) + " != model " +
           std::to_string(m.LiveKeys());
    return false;
  }
  return true;
}

struct Rebuild {
  bool ok = false;
  double ms = 0;
  double cpu_us = 0;          // this process (the rebuilding engine)
  double program_cpu_us = 0;  // server and log replicas meanwhile
  memdb::replication::RestoreResult result;
  std::string why;
};

Rebuild DoRebuild(memdb::txlog::RemoteClient* client,
                  memdb::replication::SnapshotStore* store, bool from_snapshot,
                  uint64_t target, const Model& model, memdb::TraceLog* trace,
                  uint64_t trace_id, const std::function<double()>& cpu_probe) {
  Rebuild rb;
  memdb::engine::Engine engine;
  const double program_cpu0 = cpu_probe();
  const char* begin = from_snapshot ? "bench.restore.begin" : "bench.replay.begin";
  const char* end = from_snapshot ? "bench.restore.end" : "bench.replay.end";
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  trace->Record(trace_id, begin, t0 / 1000);
  Status s = Status::OK();
  if (from_snapshot) s = memdb::replication::RestoreFromStore(store, &engine, &rb.result);
  if (s.ok()) s = memdb::replication::ReplayLogTail(client, &engine, &rb.result, target);
  const uint64_t t1 = NowNs();
  trace->Record(trace_id, end, t1 / 1000);
  rb.ms = static_cast<double>(t1 - t0) / 1e6;
  rb.cpu_us = static_cast<double>(ProcessCpuNs() - cpu0) / 1000.0;
  rb.program_cpu_us = cpu_probe() - program_cpu0;
  if (!s.ok()) {
    rb.why = (from_snapshot ? "restore: " : "replay: ") + s.ToString();
    return rb;
  }
  if (from_snapshot && rb.result.snapshot_position == 0) {
    rb.why = "restore found no snapshot";
    return rb;
  }
  if (rb.result.checksum_records_verified == 0) {
    rb.why = "no checksum record verified during replay";
    return rb;
  }
  rb.ok = VerifyEngine(&engine, model, &rb.why);
  return rb;
}

// ---------------------------------------------------------------------------
// The run

struct Workload {
  std::string name;
  uint64_t keys = 50000;
  double write_share = 1.0;
  bool zipf = false;
  uint64_t log_entries = 0;  // recovery: SET/DEL entries written in set-up
  double del_share = 0;
};

Workload WorkloadNamed(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "durable_write") {
    w.keys = 50000;
    w.write_share = 1.0;
  } else if (name == "read_mostly") {
    w.keys = 50000;
    w.write_share = 0.05;
    w.zipf = true;
  } else if (name == "recovery") {
    w.keys = 20000;
    w.log_entries = 50000;
    w.del_share = 0.1;
  } else {
    Die("unknown workload " + name);
  }
  return w;
}

constexpr int kConns = 4;
constexpr int kPipeline = 8;
constexpr uint32_t kMsetKeys = 100;
constexpr int kServingRebuilds = 9;  // per kind, after a serving window

Json LatencyJson(std::vector<double> v) {
  Json j;
  j.Int("count", v.size());
  j.Num("p50", Percentile(v, 0.5));
  j.Num("p99", Percentile(v, 0.99));
  return j;
}

// Seeded command streams for the in-process engine and codec probes: the
// workload's own mix over its own key space.
std::vector<memdb::engine::Argv> CommandStream(const Workload& w, uint64_t seed, size_t n) {
  memdb::Rng rng(seed ^ 0x5eed5eedull);
  Zipf zipf(w.keys, 0.99);
  std::vector<memdb::engine::Argv> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = w.zipf ? zipf.Next(rng) : rng.Uniform(w.keys);
    const double u = rng.NextDouble();
    if (w.del_share > 0 && u < w.del_share) {
      out.push_back({"DEL", KeyName(k)});
    } else if (u < w.write_share + w.del_share) {
      out.push_back({"SET", KeyName(k), MakeValue(k, 1 + i)});
    } else {
      out.push_back({"GET", KeyName(k)});
    }
  }
  return out;
}

int RunCommand(const Args& args) {
  const Workload w = WorkloadNamed(args.Str("workload"));
  const uint64_t seed = args.Num("seed");
  const double seconds = static_cast<double>(args.Num("seconds"));
  const bool trace = args.Num("trace", 0) != 0;
  const bool corrupt = args.Num("corrupt-model", 0) != 0;
  const uint64_t setup_t0 = NowNs();

  memdb::rpc::LoopThread loop;
  if (!loop.Start().ok()) Die("loop start failed");
  Env env;
  env.port = static_cast<uint16_t>(args.Num("port"));
  env.endpoints = SplitCsv(args.Str("endpoints"));
  env.server_pid = static_cast<int>(args.Num("server-pid"));
  for (const std::string& p : SplitCsv(args.Str("txlog-pids"))) env.txlog_pids.push_back(std::atoi(p.c_str()));
  env.wals = SplitCsv(args.Str("wals"));
  env.loop = &loop;

  memdb::txlog::RemoteClient::Options copt;
  copt.writer_id = 900;
  copt.rpc_timeout_ms = 1000;
  copt.seed = seed + 1;
  memdb::txlog::RemoteClient client(&loop, env.endpoints, copt);

  const std::string store_dir = args.Str("store");
  memdb::storage::FsObjectStore fs(store_dir);
  if (!fs.Open().ok()) Die("cannot open snapshot store");
  memdb::replication::SnapshotStore snapshots(&fs, "shard-0");
  memdb::TraceLog bench_trace(1 << 16);
  uint64_t bench_trace_id = (seed << 20) | 1;

  const std::function<double()> program_cpu = [&env] {
    double us = ProcCpuUs(env.server_pid);
    for (int pid : env.txlog_pids) us += ProcCpuUs(pid);
    return us;
  };
  Model model(w.keys);
  Load load(env.port, kConns, kPipeline, &model);
  memdb::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  Zipf zipf(w.keys, 0.99);
  OpCounts counts;
  std::vector<std::string> failures;
  auto keep = [&](const PhaseResult& r) {
    counts.Add(r.counts);
    for (const std::string& f : r.failures) {
      if (failures.size() < 10) failures.push_back(f);
    }
  };

  // Traced runs sample the gate's queue depth during the load phase: the
  // window on the serving workloads, the log-writing set-up on recovery.
  std::atomic<bool> sampling{false};
  std::vector<double> depth_samples;
  std::thread sampler;

  auto start_sampler = [&] {
    if (!trace) return;
    sampling.store(true, std::memory_order_release);
    sampler = std::thread([&] {
      while (sampling.load(std::memory_order_acquire)) {
        depth_samples.push_back(
            Series(RoundTripBulk(env.port, {"METRICS"}), "txlog_gate_queue_depth"));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  };
  auto stop_sampler = [&] {
    if (!trace) return;
    sampling.store(false, std::memory_order_release);
    sampler.join();
  };

  // --- set-up: a fixed, seeded base log written through the durable
  // server, with one off-box snapshot at its midpoint.
  PhaseResult base_a, base_b;
  Probe base0 = env.Read();
  Load::Gen base_gen;
  uint64_t next_key = 0;
  uint64_t issued = 0;
  if (w.log_entries == 0) {
    // Preload: MSET runs of kMsetKeys keys, every key once.
    base_gen = [&](int, Op* op) {
      if (next_key >= w.keys) return false;
      op->type = kMset;
      op->key = next_key;
      op->count = static_cast<uint32_t>(std::min<uint64_t>(kMsetKeys, w.keys - next_key));
      next_key += op->count;
      return true;
    };
  } else {
    // SET overwrites and DELs, uniform over the key space. A DEL goes
    // only to a key that is live and idle, so every operation is one log
    // entry; a DEL drawn for any other key is sent as a SET.
    base_gen = [&](int conn, Op* op) {
      if (issued >= w.log_entries / 2) return false;
      uint64_t k = rng.Uniform(w.keys);
      for (int tries = 0; !load.Writable(conn, k) && tries < 1000; ++tries) {
        k = rng.Uniform(w.keys);
      }
      const KeyState& ks = model.keys[k];
      const bool del = rng.NextDouble() < w.del_share && ks.inflight == 0 && model.Live(k);
      op->type = del ? kDel : kSet;
      op->key = k;
      ++issued;
      return true;
    };
  }
  auto run_half = [&](uint64_t key_limit) {
    if (w.log_entries == 0) {
      const uint64_t limit = key_limit;
      return load.Run([&](int c, Op* op) { return next_key < limit && base_gen(c, op); }, 0,
                      /*record=*/true);
    }
    issued = 0;
    return load.Run(base_gen, 0, /*record=*/true);
  };
  const bool log_workload = w.log_entries != 0;
  if (log_workload) start_sampler();
  base_a = run_half(w.keys / 2);
  keep(base_a);
  if (log_workload) stop_sampler();
  const Model snapshot_model = model;
  memdb::replication::OffboxRunner::Options oopt;
  oopt.endpoints = env.endpoints;
  oopt.store_dir = store_dir;
  oopt.issue_trim = false;  // keep the log whole: cold replay starts at 1
  memdb::replication::OffboxRunner runner(oopt);
  if (!runner.Start().ok()) Die("snapshot runner failed to start");
  memdb::replication::OffboxRunner::CycleResult cycle;
  const Status cs = runner.RunCycle(&cycle);
  runner.Stop();
  if (!cs.ok() || !cycle.uploaded) Die("midpoint snapshot failed: " + cs.ToString());
  if (log_workload) start_sampler();
  base_b = run_half(w.keys);
  keep(base_b);
  if (log_workload) stop_sampler();
  memdb::txlog::wire::ClientTailResponse tail;
  if (!client.TailSync(&tail).ok()) Die("log tail unavailable");
  const uint64_t base_target = tail.commit_index;
  const Probe base1 = env.Read();
  Model base_model = model;
  // The self-check's negative case: one expected value in each model is
  // wrong, so the rebuild checks and the read-back must fail.
  auto corrupt_one = [](Model* m) {
    for (KeyState& k : m->keys) {
      if (k.acked != 0 && !k.acked_deleted) {
        ++k.acked;
        return;
      }
    }
  };
  if (corrupt) corrupt_one(&base_model);
  const double base_user_bytes = static_cast<double>(base_a.user_bytes + base_b.user_bytes);

  // --- the serving mix (durable_write, read_mostly)
  uint64_t mix_redraws = 0;
  Load::Gen mix = [&](int conn, Op* op) {
    uint64_t k = w.zipf ? zipf.Next(rng) : rng.Uniform(w.keys);
    if (rng.NextDouble() < w.write_share) {
      for (int tries = 0; !load.Writable(conn, k) && tries < 1000; ++tries) {
        k = w.zipf ? zipf.Next(rng) : rng.Uniform(w.keys);
        ++mix_redraws;
      }
      op->type = kSet;
    } else {
      op->type = kGet;
    }
    op->key = k;
    return true;
  };

  Json e2e, layer, detail;
  PhaseResult window;
  Probe p0, p1;
  std::vector<Rebuild> replays, restores;  // the timed ones
  Rebuild last_replay;
  uint64_t rebuilds_failed = 0;
  double setup_s = 0;

  auto rebuild = [&](bool from_snapshot) {
    Rebuild rb = DoRebuild(&client, &snapshots, from_snapshot, base_target, base_model,
                           &bench_trace, bench_trace_id++, program_cpu);
    if (!rb.ok) {
      ++rebuilds_failed;
      if (failures.size() < 10) failures.push_back(rb.why);
      return;
    }
    (from_snapshot ? restores : replays).push_back(rb);
    if (!from_snapshot) last_replay = rb;
  };
  uint64_t rebuilds_attempted = 0;

  if (w.log_entries == 0) {
    // Warm-up, drained, then the timed window, drained.
    const PhaseResult warm = load.Run(mix, NowNs() + 1'000'000'000ull, false);
    keep(warm);
    setup_s = static_cast<double>(NowNs() - setup_t0) / 1e9;
    p0 = env.Read();
    start_sampler();
    window = load.Run(mix, NowNs() + static_cast<uint64_t>(seconds * 1e9), true);
    stop_sampler();
    p1 = env.Read();
    keep(window);
    for (int i = 0; i < kServingRebuilds; ++i) {
      rebuilds_attempted += 2;
      rebuild(false);
      rebuild(true);
    }
  } else {
    // One untimed rebuild of each kind warms the log replicas' read path.
    rebuilds_attempted += 2;
    rebuild(false);
    rebuild(true);
    replays.clear();
    restores.clear();
    setup_s = static_cast<double>(NowNs() - setup_t0) / 1e9;
    p0 = env.Read();
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    // Whole rounds: one cold replay and one restore per round.
    while (NowNs() < deadline && rebuilds_failed == 0) {
      rebuilds_attempted += 2;
      rebuild(false);
      rebuild(true);
    }
    p1 = env.Read();
  }

  // --- reads at rest (durable_write, recovery): uniform GETs for a tenth
  // of --seconds, each compared exactly with the model, as nothing is in
  // flight. They give those workloads' read latency.
  const bool serving = w.log_entries == 0;
  const bool window_reads = serving && w.write_share < 1.0;
  PhaseResult rest_reads;
  if (!window_reads) {
    rest_reads = load.Run(
        [&](int, Op* op) {
          op->type = kGet;
          op->key = rng.Uniform(w.keys);
          op->exact = true;
          return true;
        },
        NowNs() + static_cast<uint64_t>(seconds / 10 * 1e9), true);
    keep(rest_reads);
  }

  // --- read-back: every key, compared with the model
  if (corrupt) corrupt_one(&model);
  uint64_t rb_key = 0;
  const PhaseResult readback = load.Run(
      [&](int, Op* op) {
        if (rb_key >= w.keys) return false;
        op->type = kGet;
        op->key = rb_key++;
        op->exact = true;
        return true;
      },
      0, true);
  keep(readback);
  const Probe p_end = env.Read();

  // --- end-to-end metrics
  auto latencies = [](std::initializer_list<const PhaseResult*> phases,
                      std::initializer_list<OpType> types) {
    std::vector<double> out;
    for (const PhaseResult* p : phases) {
      for (OpType t : types) out.insert(out.end(), p->latency_us[t].begin(), p->latency_us[t].end());
    }
    return out;
  };
  const std::vector<double> write_lat =
      serving ? latencies({&window}, {kSet}) : latencies({&base_a, &base_b}, {kSet, kDel});
  const std::vector<double> read_lat = latencies({window_reads ? &window : &rest_reads}, {kGet});
  const double live_bytes = static_cast<double>(model.LiveBytes());
  double ops_per_s, cpu_us_per_op, log_ratio;
  if (serving) {
    const double window_ops = static_cast<double>(std::max<uint64_t>(1, window.completed));
    ops_per_s = window_ops / window.seconds;
    cpu_us_per_op =
        (p1.server_cpu_us + p1.txlog_cpu_us - p0.server_cpu_us - p0.txlog_cpu_us) / window_ops;
    log_ratio = (p1.wal_bytes - p0.wal_bytes) /
                std::max<double>(1, static_cast<double>(window.user_bytes));
  } else {
    // One op is one log entry rebuilt into an engine.
    std::vector<double> rates;
    double cpu = 0, entries = 0;
    for (const auto* set : {&replays, &restores}) {
      for (const Rebuild& rb : *set) {
        rates.push_back(static_cast<double>(rb.result.entries_replayed) / (rb.ms / 1000.0));
        cpu += rb.cpu_us + rb.program_cpu_us;
        entries += static_cast<double>(rb.result.entries_replayed);
      }
    }
    ops_per_s = Median(rates);
    cpu_us_per_op = cpu / std::max(1.0, entries);
    log_ratio = (base1.wal_bytes - base0.wal_bytes) / base_user_bytes;
  }
  auto median_ms = [](const std::vector<Rebuild>& rbs) {
    std::vector<double> ms;
    for (const Rebuild& rb : rbs) ms.push_back(rb.ms);
    return Median(ms);
  };
  e2e.Num("setup_s", setup_s);
  e2e.Num("ops_per_s", ops_per_s);
  e2e.Num("write_p50_us", Percentile(write_lat, 0.5));
  e2e.Num("read_p50_us", Percentile(read_lat, 0.5));
  e2e.Num("cpu_us_per_op", cpu_us_per_op);
  e2e.Num("log_bytes_per_user_byte", log_ratio);
  e2e.Num("mem_bytes_per_user_byte",
          Series(p_end.server_metrics, "used_memory_bytes") / std::max(1.0, live_bytes));
  e2e.Num("replay_ms", median_ms(replays));
  e2e.Num("restore_ms", median_ms(restores));
  e2e.Num("snapshot_bytes_per_user_byte",
          static_cast<double>(cycle.snapshot_bytes) /
              std::max(1.0, static_cast<double>(snapshot_model.LiveBytes())));

  // --- per-layer figures (traced runs)
  if (trace) {
    // The load phase whose counters explain the end-to-end figures: the
    // window for the serving workloads, the log-writing set-up otherwise.
    const Probe& a = serving ? p0 : base0;
    const Probe& b = serving ? p1 : base1;
    const double writes = static_cast<double>(
        serving ? window.writes_acked : base_a.writes_acked + base_b.writes_acked);
    const double reads = static_cast<double>(serving ? window.reads : 0);
    const double ops = static_cast<double>(
        serving ? window.completed : base_a.completed + base_b.completed);
    auto d = [&](const std::string& family, const std::string& filter = "") {
      return SeriesSum(b.server_metrics, family, filter) -
             SeriesSum(a.server_metrics, family, filter);
    };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
    // The log leader: the replica whose commit index moved.
    size_t leader = 0;
    double best = -1;
    for (size_t i = 0; i < b.txlog_metrics.size(); ++i) {
      const double moved = Series(b.txlog_metrics[i], "txlog_client_appends_total") -
                           Series(a.txlog_metrics[i], "txlog_client_appends_total");
      if (moved > best) {
        best = moved;
        leader = i;
      }
    }
    double fsyncs = 0;
    for (size_t i = 0; i < b.txlog_metrics.size(); ++i) {
      fsyncs += Series(b.txlog_metrics[i], "txlog_fsyncs_total") -
                Series(a.txlog_metrics[i], "txlog_fsyncs_total");
    }
    const std::string& lm = b.txlog_metrics[leader];
    const std::string append_rpc = "method=\"txlog.ConditionalAppend\"";
    layer.Num("gate.appends_per_write", per(d("txlog_gate_appends_total"), writes));
    double depth_sum = 0;
    for (double s : depth_samples) depth_sum += s;
    layer.Num("gate.queue_depth.mean", per(depth_sum, static_cast<double>(depth_samples.size())));
    layer.Num("rpc.rtt_us.p50", Series(b.server_metrics, "rpc_rtt_us{" + append_rpc + ",quantile=\"0.5\"}"));
    layer.Num("rpc.rtt_us.p99", Series(b.server_metrics, "rpc_rtt_us{" + append_rpc + ",quantile=\"0.99\"}"));
    layer.Num("rpc.requests_per_write", per(d("rpc_requests_total"), writes));
    layer.Num("txlog.commit_us.p50", Series(lm, "txlog_commit_latency_us{quantile=\"0.5\"}"));
    layer.Num("txlog.fsyncs_per_write", per(fsyncs, writes));
    layer.Num("txlog.entries_per_write",
              per(Series(lm, "raft_commit_index") - Series(a.txlog_metrics[leader], "raft_commit_index"),
                  writes));
    layer.Num("txlog.cpu_us_per_op", per(b.txlog_cpu_us - a.txlog_cpu_us, ops));
    layer.Num("server.cpu_us_per_op", per(b.server_cpu_us - a.server_cpu_us, ops));
    layer.Num("tracker.held_reads_per_read",
              per(std::max(0.0, d("txlog_blocked_replies_total") - writes), reads));
    layer.Num("net.cmds_per_batch.mean",
              per(d("net_batch_commands_sum"), d("net_batch_commands_count")));
    const std::string top_cmd = serving && w.write_share < 0.5 ? "get" : "set";
    layer.Num("engine.cmd_us.p50",
              Series(b.server_metrics, "cmd_latency_us{cmd=\"" + top_cmd + "\",quantile=\"0.5\"}"));

    // Times `fn` between bench.<name>.begin/.end spans; returns nanoseconds.
    auto timed = [&](const std::string& name, const auto& fn) {
      const uint64_t t0 = NowNs();
      bench_trace.Record(bench_trace_id, "bench." + name + ".begin", t0 / 1000);
      fn();
      const uint64_t t1 = NowNs();
      bench_trace.Record(bench_trace_id++, "bench." + name + ".end", t1 / 1000);
      return static_cast<double>(t1 - t0);
    };

    // The floor under one write: appends one at a time, same log group.
    std::vector<double> append_us;
    for (int i = 0; i < 1000; ++i) {
      memdb::txlog::LogRecord rec;
      rec.type = memdb::txlog::RecordType::kData;
      rec.writer = 901;
      rec.request_id = client.NextRequestId();
      uint64_t index = 0;
      append_us.push_back(timed("append", [&] {
        const Status s = client.AppendSync(memdb::txlog::wire::kUnconditional, std::move(rec), &index);
        if (!s.ok()) Die("probe append failed: " + s.ToString());
      }) / 1000.0);
    }
    layer.Num("txlog.append_us.p50", Percentile(append_us, 0.5));
    layer.Num("txlog.append_us.p99", Percentile(append_us, 0.99));

    // Engine and RESP codec, in-process on the workload's seeded stream.
    const auto stream = CommandStream(w, seed, 200000);
    const double n_cmds = static_cast<double>(stream.size());
    memdb::engine::Engine engine;
    memdb::engine::ExecContext ctx;
    ctx.now_ms = WallMs();
    for (uint64_t k = 0; k < w.keys; ++k) engine.Execute({"SET", KeyName(k), MakeValue(k, 1)}, &ctx);
    std::vector<memdb::resp::Value> replies;
    replies.reserve(stream.size());
    layer.Num("engine.exec_ns_per_cmd", timed("engine", [&] {
      for (const auto& argv : stream) {
        ctx.effects.clear();
        ctx.dirty_keys.clear();
        replies.push_back(engine.Execute(argv, &ctx));
      }
    }) / n_cmds);
    std::string encoded;
    layer.Num("resp.encode_ns_per_reply", timed("resp.encode", [&] {
      for (const auto& r : replies) r.EncodeTo(&encoded);
    }) / n_cmds);
    std::string wire;
    for (const auto& argv : stream) AppendCommand(&wire, argv);
    memdb::resp::Decoder dec;
    size_t decoded = 0;
    layer.Num("resp.decode_ns_per_cmd", timed("resp.decode", [&] {
      std::vector<std::string> argv;
      dec.Feed(memdb::Slice(wire));
      while (dec.DecodeCommand(&argv) == memdb::resp::DecodeStatus::kOk) ++decoded;
    }) / n_cmds);
    if (decoded != stream.size()) Die("decode probe lost commands");

    // Replication: stream the base log without applying it, then apply its
    // payloads from memory.
    std::vector<std::string> payloads;
    layer.Num("replay.read_ms", timed("replay.read", [&] {
      for (uint64_t next = 1; next <= base_target;) {
        memdb::txlog::wire::ClientReadResponse resp;
        if (!client.ReadSync(next, 256, 100, &resp).ok()) Die("log read failed");
        for (const auto& e : resp.entries) {
          if (e.index > base_target) break;
          if (e.record.type == memdb::txlog::RecordType::kData) payloads.push_back(e.record.payload);
          next = e.index + 1;
        }
      }
    }) / 1e6);
    memdb::engine::Engine applied;
    const uint64_t now_ms = WallMs();
    layer.Num("replay.apply_ns_per_entry", timed("replay.apply", [&] {
      for (const std::string& p : payloads) {
        if (!memdb::replication::ApplyEffectBatch(&applied, memdb::Slice(p), now_ms)) {
          Die("apply probe: malformed payload");
        }
      }
    }) / std::max(1.0, static_cast<double>(payloads.size())));
    layer.Int("replay.entries", last_replay.result.entries_replayed);
    layer.Num("replay.entries_per_s",
              static_cast<double>(last_replay.result.entries_replayed) / (last_replay.ms / 1000.0));
    layer.Int("replay.checksums_verified", last_replay.result.checksum_records_verified);

    // Snapshot codec and the object store, on the rebuilt keyspace.
    memdb::engine::SnapshotMeta meta;
    meta.log_position = base_target;
    std::string blob;
    layer.Num("snapshot.serialize_ms", timed("snapshot.serialize", [&] {
      blob = memdb::engine::SerializeSnapshot(applied.keyspace(), meta);
    }) / 1e6);
    memdb::engine::Engine loaded;
    layer.Num("snapshot.deserialize_ms", timed("snapshot.deserialize", [&] {
      if (!memdb::engine::DeserializeSnapshot(memdb::Slice(blob), &loaded.keyspace(), &meta).ok()) {
        Die("snapshot probe: deserialize failed");
      }
    }) / 1e6);
    memdb::storage::FsObjectStore probe_store(store_dir + "/probe");
    if (!probe_store.Open().ok()) Die("probe store open failed");
    layer.Num("store.put_ms", timed("store.put", [&] {
      if (!probe_store.Put("snap/probe", memdb::Slice(blob)).ok()) Die("store probe: put failed");
    }) / 1e6);
    std::string back;
    layer.Num("store.get_ms", timed("store.get", [&] {
      if (!probe_store.Get("snap/probe", &back).ok()) Die("store probe: get failed");
    }) / 1e6);
    if (back != blob) Die("store probe: blob changed on its way through the store");

    const std::string bench_file = args.Str("bench-trace-file");
    std::ofstream(bench_file) << memdb::ExportSpansJsonl(bench_trace, "bench");

    detail.Obj("layer_raw", Json()
                                .Num("writes", writes)
                                .Num("reads", reads)
                                .Num("ops", ops)
                                .Int("queue_depth_samples", depth_samples.size())
                                .Int("leader", leader + 1));
  }

  client.Shutdown();
  loop.Stop();

  // --- counts and the verdict
  Json per_type;
  for (int t = 0; t < kOpTypes; ++t) {
    per_type.Obj(kOpNames[t], Json().Int("attempted", counts.attempted[t]).Int("failed", counts.failed[t]));
  }
  per_type.Obj("rebuild", Json().Int("attempted", rebuilds_attempted).Int("failed", rebuilds_failed));
  const uint64_t attempted = counts.Attempted() + rebuilds_attempted;
  const uint64_t failed = counts.Failed() + rebuilds_failed;
  const bool correct = failed == 0;
  std::string fail_list = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) fail_list += ",";
    fail_list += Quote(failures[i]);
  }
  fail_list += "]";

  detail.Obj("ops", per_type)
      .Raw("failures", fail_list)
      .Int("keys", w.keys)
      .Int("base_log_target", base_target)
      .Int("snapshot_position", cycle.position)
      .Int("snapshot_bytes", cycle.snapshot_bytes)
      .Int("window_ops", window.completed)
      .Num("window_s", window.seconds)
      .Int("redraws", mix_redraws)
      .Int("rebuilds", replays.size() + restores.size())
      .Obj("write_latency_us", LatencyJson(write_lat))
      .Obj("read_latency_us", LatencyJson(read_lat));

  Json out;
  out.Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Obj("e2e", e2e)
      .Obj("layer", layer)
      .Obj("detail", detail);
  std::printf("%s\n", out.Text().c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// merge: stage tables from exported span files

int MergeCommand(const Args& args) {
  std::vector<memdb::ExportedSpan> spans;
  for (const std::string& path : SplitCsv(args.Str("files"))) {
    std::ifstream f(path);
    const std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    memdb::ParseSpansJsonl(text, &spans);
  }
  const size_t total = spans.size();
  std::vector<std::string> bench_names;
  for (const auto& s : spans) {
    const std::string& st = s.stage;
    if (st.rfind("bench.", 0) == 0 && st.size() > 6 && st.compare(st.size() - 6, 6, ".begin") == 0) {
      const std::string name = st.substr(6, st.size() - 12);
      if (std::find(bench_names.begin(), bench_names.end(), name) == bench_names.end()) {
        bench_names.push_back(name);
      }
    }
  }
  const auto by_trace = memdb::GroupSpansByTrace(std::move(spans));
  const memdb::WritePathReport chain = memdb::BuildWritePathReport(by_trace, memdb::WritePathChain());

  Json stages;
  double p50_sum = 0;
  for (const memdb::StageDelta& d : chain.deltas) {
    const double p50 = static_cast<double>(d.latency_us.Percentile(0.5));
    p50_sum += p50;
    stages.Obj(d.to, Json()
                         .Str("from", d.from)
                         .Int("count", d.latency_us.count())
                         .Num("p50", p50)
                         .Num("p99", static_cast<double>(d.latency_us.Percentile(0.99))));
  }
  auto pair = [&](const std::string& from, const std::string& to) {
    const memdb::WritePathReport r = memdb::BuildWritePathReport(by_trace, {from, to});
    Json j;
    if (r.deltas.empty()) return j.Int("count", 0).Num("p50", 0).Num("p99", 0);
    const memdb::Histogram& h = r.deltas[0].latency_us;
    return j.Int("count", h.count())
        .Num("p50", static_cast<double>(h.Percentile(0.5)))
        .Num("p99", static_cast<double>(h.Percentile(0.99)));
  };
  Json bench;
  for (const std::string& name : bench_names) {
    bench.Obj(name, pair("bench." + name + ".begin", "bench." + name + ".end"));
  }
  Json out;
  out.Int("spans", total)
      .Int("traces", chain.traces)
      .Int("complete_chains", chain.complete_chains)
      .Num("end_to_end_p50", static_cast<double>(chain.end_to_end_us.Percentile(0.5)))
      .Num("stage_p50_sum", p50_sum)
      .Obj("stages", stages)
      .Obj("queue_wait", pair("gate.submit", "gate.append.issue"))
      .Obj("hold", pair("hazard.defer", "reply.release"))
      .Obj("bench", bench);
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbload run|merge --flag value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const pb::Args args(argc, argv, 2);
  if (cmd == "run") return pb::RunCommand(args);
  if (cmd == "merge") return pb::MergeCommand(args);
  std::fprintf(stderr, "pbload: unknown command %s\n", cmd.c_str());
  return 2;
}
