// The effect batch: the payload of every kData transaction-log record. A
// primary (the simulated memorydb::Node or the socket server) encodes the
// effects one command produced; replicas, recovery, snapshotd and slot
// migration decode it and apply each effect to their engine (§3.1).
//
//   batch  := engine_version:lenstr effect*
//   effect := argc:varint (>= 1) arg:lenstr{argc}
//
// lenstr is a varint length, then the bytes. The version leads so a
// consumer can refuse a newer engine's stream before applying any of it
// (§7.1). Batches of one version concatenate: `a + EffectBatchReader(b)
// .rest()` is a batch of a's effects, then b's.

#ifndef MEMDB_ENGINE_EFFECT_BATCH_H_
#define MEMDB_ENGINE_EFFECT_BATCH_H_

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "engine/engine.h"

namespace memdb::engine {

std::string EncodeEffectBatch(const std::string& engine_version,
                              const std::vector<Argv>& effects);

// Pull decoder over one batch. Log payloads cross a crash boundary, so a
// malformed batch stops the reader (ok() false); it never reads past the
// input or allocates more than the input could describe. Defined inline:
// with an out-of-line call per effect, applying one-SET batches ran about
// 5% slower.
class EffectBatchReader {
 public:
  explicit EffectBatchReader(Slice payload)
      : base_(payload.data()), dec_(payload) {
    ok_ = dec_.GetLengthPrefixed(&version_);
  }

  // Reads the next effect into *argv, reusing its storage. False at the end
  // of the batch, or on malformed input (then ok() turns false).
  bool Next(Argv* argv) {
    if (!ok_ || dec_.Empty()) return false;
    uint64_t argc = 0;
    // Every argument takes at least its one-byte length, so a count above
    // the bytes left is malformed; checking first bounds the resize.
    if (!dec_.GetVarint64(&argc) || argc == 0 || argc > dec_.Remaining()) {
      ok_ = false;
      return false;
    }
    argv->resize(argc);
    for (std::string& a : *argv) {
      if (!dec_.GetLengthPrefixed(&a)) {
        ok_ = false;
        return false;
      }
    }
    return true;
  }

  bool ok() const { return ok_; }
  const std::string& version() const { return version_; }
  // The effects not read yet, still encoded.
  Slice rest() const {
    return Slice(base_ + dec_.Position(), dec_.Remaining());
  }

 private:
  const char* base_;
  Decoder dec_;
  std::string version_;
  bool ok_;
};

}  // namespace memdb::engine

#endif  // MEMDB_ENGINE_EFFECT_BATCH_H_
