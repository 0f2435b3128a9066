// Seed-corpus generator: writes the checked-in seeds under fuzz/corpus/.
// Kept as a tool (rather than a one-off script) so the binary seeds — rpc
// frames need the real CRC64, txlog requests real varints — can be
// regenerated whenever a wire format changes:
// `memorydb-fuzz-seedgen <repo>/fuzz/corpus`.
//
// RESP seeds lead with the harness' chunk-selector byte ('0' = one-shot
// feed, '3' = 3-byte chunks); the bytes after it are the protocol stream.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/coding.h"
#include "engine/effect_batch.h"
#include "resp/resp.h"
#include "rpc/frame.h"
#include "txlog/wire.h"

namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %s (%zu bytes)\n", (dir / name).c_str(), bytes.size());
}

void RespSeeds(const fs::path& dir) {
  using memdb::resp::EncodeCommand;
  using memdb::resp::Value;

  WriteSeed(dir, "simple_ok", "0+OK\r\n");
  WriteSeed(dir, "error", "0-ERR unknown command\r\n");
  WriteSeed(dir, "integer", "0:12345\r\n");
  WriteSeed(dir, "bulk", "0$5\r\nhello\r\n");
  WriteSeed(dir, "null_bulk", "0$-1\r\n");
  WriteSeed(dir, "null_array", "0*-1\r\n");
  WriteSeed(dir, "set_command", "0" + EncodeCommand({"SET", "key", "value"}));
  WriteSeed(dir, "get_chunked", "3" + EncodeCommand({"GET", "key"}));
  WriteSeed(dir, "inline_command", "0PING\r\n");
  WriteSeed(dir, "inline_args", "2SET key value\r\n");
  WriteSeed(dir, "nested_array",
            "0" + Value::Array({Value::Array({Value::Bulk("a")}),
                                Value::Integer(-7), Value::Null()})
                      .Encode());
  WriteSeed(dir, "pipelined",
            "0" + EncodeCommand({"INCR", "n"}) + EncodeCommand({"INCR", "n"}));
  // Declared sizes beyond the harness limits: must reject, not allocate.
  WriteSeed(dir, "oversize_bulk", "0$999999999\r\n");
  WriteSeed(dir, "oversize_array", "0*999999999\r\n");
  WriteSeed(dir, "truncated_bulk", "0$5\r\nhel");
  WriteSeed(dir, "bad_type_byte", "0@oops\r\n");
  // Deep nesting: the decoder must cap recursion, not run the stack out.
  std::string deep = "0";
  for (int i = 0; i < 100; ++i) deep += "*1\r\n";
  deep += ":1\r\n";
  WriteSeed(dir, "deep_nesting", deep);
}

void RpcSeeds(const fs::path& dir) {
  using memdb::rpc::Code;
  using memdb::rpc::EncodeFrame;
  using memdb::rpc::Frame;
  using memdb::rpc::FrameType;

  Frame req;
  req.type = FrameType::kRequest;
  req.request_id = 7;
  req.trace_id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.method = "txlog.Append";
  req.payload = std::string("\x01\x00payload-bytes", 15);
  std::string bytes;
  EncodeFrame(req, &bytes);
  WriteSeed(dir, "request_append", bytes);

  Frame resp;
  resp.type = FrameType::kResponse;
  resp.code = Code::kOk;
  resp.request_id = 7;
  resp.payload = "ack";
  bytes.clear();
  EncodeFrame(resp, &bytes);
  WriteSeed(dir, "response_ok", bytes);

  Frame err;
  err.type = FrameType::kResponse;
  err.code = Code::kOverloaded;
  err.request_id = 9;
  bytes.clear();
  EncodeFrame(err, &bytes);
  WriteSeed(dir, "response_overloaded", bytes);

  Frame empty;
  empty.method = "ping";
  bytes.clear();
  EncodeFrame(empty, &bytes);
  WriteSeed(dir, "request_empty_payload", bytes);

  // Corrupt variants: flip a payload byte (checksum must catch it) and
  // truncate mid-header (must report kNeedMore, never kOk).
  bytes.clear();
  EncodeFrame(req, &bytes);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteSeed(dir, "corrupt_checksum", bytes);
  bytes.clear();
  EncodeFrame(req, &bytes);
  WriteSeed(dir, "truncated_header", bytes.substr(0, 11));
  // Two frames back to back: consumed must stop at the first boundary.
  bytes.clear();
  EncodeFrame(req, &bytes);
  EncodeFrame(resp, &bytes);
  WriteSeed(dir, "pipelined_frames", bytes);
}

void TxlogAppendSeeds(const fs::path& dir) {
  using memdb::txlog::LogRecord;
  using memdb::txlog::RecordType;
  using memdb::txlog::wire::ClientAppendRequest;

  auto record = [](RecordType type, uint64_t request_id, std::string payload) {
    LogRecord r;
    r.type = type;
    r.writer = 5;
    r.request_id = request_id;
    r.trace_id = request_id * 1000;
    r.payload = std::move(payload);
    return r;
  };
  ClientAppendRequest one;
  one.records.push_back(record(RecordType::kData, 1, "effect-batch"));
  WriteSeed(dir, "one_record", one.Encode());

  // A group-commit batch: data records with a checksum record inline.
  ClientAppendRequest batch;
  batch.prev_index = 41;
  batch.records.push_back(record(RecordType::kData, 2, "w2"));
  batch.records.push_back(record(RecordType::kData, 3, "w3"));
  std::string crc;
  memdb::PutFixed64(&crc, 0x0123456789abcdefull);
  batch.records.push_back(record(RecordType::kChecksum, 4, crc));
  batch.records.push_back(record(RecordType::kSlotOwnership, 5, ""));
  WriteSeed(dir, "batch_with_checksum", batch.Encode());

  // Must reject: a torn last record, a bad record type after a good one,
  // and a raft AppendEntries body claiming far more entries than it holds.
  const std::string bytes = batch.Encode();
  WriteSeed(dir, "torn_last_record", bytes.substr(0, bytes.size() - 1));
  WriteSeed(dir, "bad_second_type", one.Encode() + "\x09");
  std::string huge_count;
  for (int i = 0; i < 5; ++i) memdb::PutVarint64(&huge_count, 1);
  memdb::PutVarint64(&huge_count, 1ull << 40);
  WriteSeed(dir, "entries_count_overflow", huge_count);
}

void EffectBatchSeeds(const fs::path& dir) {
  using memdb::engine::EncodeEffectBatch;

  WriteSeed(dir, "one_set", EncodeEffectBatch("7.0.7", {{"SET", "k", "v"}}));
  // An active-expiry cycle's DELs next to a rewritten relative expiry.
  const std::string multi = EncodeEffectBatch(
      "7.0.7", {{"SET", "a", std::string(200, 'x')},
                {"PEXPIREAT", "a", "1700000000000"},
                {"DEL", "b", "c"},
                {"SET", "", ""}});
  WriteSeed(dir, "multi_effect", multi);
  WriteSeed(dir, "header_only", EncodeEffectBatch("7.1.0", {}));
  // Two batches joined the way group commit joins them.
  WriteSeed(dir, "concatenated",
            multi + multi.substr(EncodeEffectBatch("7.0.7", {}).size()));

  // Must reject: a zero argc, an argc far beyond the bytes left (must not
  // allocate), a torn last effect, and a version longer than the input.
  std::string zero = EncodeEffectBatch("7.0.7", {});
  memdb::PutVarint64(&zero, 0);
  WriteSeed(dir, "zero_argc", zero);
  std::string huge = EncodeEffectBatch("7.0.7", {});
  memdb::PutVarint64(&huge, 1ull << 40);
  memdb::PutLengthPrefixed(&huge, "SET");
  WriteSeed(dir, "argc_overflow", huge);
  WriteSeed(dir, "torn_last_effect", multi.substr(0, multi.size() - 1));
  WriteSeed(dir, "bad_version_length", std::string("\x7f") + "7.0.7");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  RespSeeds(root / "resp_decode");
  RpcSeeds(root / "rpc_frame");
  TxlogAppendSeeds(root / "txlog_append");
  EffectBatchSeeds(root / "effect_batch");
  return 0;
}
