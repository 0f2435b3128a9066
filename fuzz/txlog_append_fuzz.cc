// libFuzzer harness for the transaction log's append request decoder —
// what memorydb-txlogd runs on every txlog.ConditionalAppend payload. A
// request carries 1..N records back to back, so the decoder decides where
// a batch ends; a hostile or corrupt writer must never crash the daemon,
// make it allocate without bound, or have records dropped silently.
// Invariants checked:
//
//   - no crash / no sanitizer report on any byte sequence,
//   - kOk implies 1 <= records <= kMaxAppendRecords,
//   - a decoded request re-encodes to bytes that decode to equal fields,
//   - one byte short of a decodable request never decodes: the last
//     record is cut, and the whole request fails rather than losing it.
//
// The same bytes also go through the decoders that carry LogEntry lists
// (raft AppendEntries, ReadStream responses), which must only reject.

#include <cstddef>
#include <cstdint>
#include <string>

#include "txlog/wire.h"

namespace {

using memdb::Slice;
using memdb::txlog::LogRecord;
using memdb::txlog::wire::ClientAppendRequest;

void Abort(const char* what) {
  __builtin_trap();
  (void)what;
}

bool SameRecord(const LogRecord& a, const LogRecord& b) {
  return a.type == b.type && a.writer == b.writer &&
         a.request_id == b.request_id && a.trace_id == b.trace_id &&
         a.payload == b.payload;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const Slice input(reinterpret_cast<const char*>(data), size);

  memdb::txlog::wire::AppendEntriesRequest entries;
  (void)memdb::txlog::wire::AppendEntriesRequest::Decode(input, &entries);
  memdb::txlog::wire::ClientReadResponse read;
  (void)memdb::txlog::wire::ClientReadResponse::Decode(input, &read);

  ClientAppendRequest req;
  if (!ClientAppendRequest::Decode(input, &req)) return 0;
  if (req.records.empty() ||
      req.records.size() > memdb::txlog::wire::kMaxAppendRecords) {
    Abort("record count out of range");
  }

  const std::string reencoded = req.Encode();
  ClientAppendRequest again;
  if (!ClientAppendRequest::Decode(Slice(reencoded), &again)) {
    Abort("re-decode of an encoded request failed");
  }
  if (again.prev_index != req.prev_index ||
      again.records.size() != req.records.size()) {
    Abort("encode/decode changed the request");
  }
  for (size_t i = 0; i < req.records.size(); ++i) {
    if (!SameRecord(req.records[i], again.records[i])) {
      Abort("encode/decode changed a record");
    }
  }

  ClientAppendRequest shorter;
  if (ClientAppendRequest::Decode(Slice(input.data(), size - 1), &shorter)) {
    Abort("truncated request decoded");
  }
  return 0;
}
