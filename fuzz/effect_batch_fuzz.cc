// libFuzzer harness for the effect-batch decoder (engine/effect_batch.h) —
// what replicas, peer-less recovery, memorydb-snapshotd and the simulated
// off-box snapshotter run on every kData log payload. Log payloads cross a
// crash boundary (torn tails, a producer of another engine version), so a
// malformed batch must never crash a consumer or make it allocate beyond
// what the bytes could describe. Invariants checked:
//
//   - no crash / no sanitizer report on any byte sequence,
//   - decoding never reads past the input: the unread rest always ends at
//     the input's end,
//   - no decoded effect is empty (argc == 0 is rejected),
//   - a fully decoded batch re-encodes to bytes that decode to the same
//     version and effects, also with a second batch's effects appended,
//   - one byte short of a decodable batch never decodes: its last effect
//     is cut, and the batch fails rather than losing it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/effect_batch.h"

namespace {

using memdb::Slice;
using memdb::engine::Argv;
using memdb::engine::EffectBatchReader;
using memdb::engine::EncodeEffectBatch;

void Abort(const char* what) {
  __builtin_trap();
  (void)what;
}

// Decodes a whole batch; false when it is malformed.
bool DecodeAll(Slice input, std::string* version, std::vector<Argv>* effects) {
  EffectBatchReader batch(input);
  Argv argv;
  while (batch.Next(&argv)) {
    if (argv.empty()) Abort("decoded an effect with argc 0");
    effects->push_back(argv);
  }
  const Slice rest = batch.rest();
  if (rest.data() < input.data() ||
      rest.data() + rest.size() != input.data() + input.size()) {
    Abort("reader position outside the input");
  }
  if (batch.ok() && rest.size() != 0) Abort("ok batch left bytes unread");
  *version = batch.version();
  return batch.ok();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const Slice input(reinterpret_cast<const char*>(data), size);
  std::string version;
  std::vector<Argv> effects;
  if (!DecodeAll(input, &version, &effects)) return 0;

  const std::string reencoded = EncodeEffectBatch(version, effects);
  std::string again_version;
  std::vector<Argv> again;
  if (!DecodeAll(Slice(reencoded), &again_version, &again) ||
      again_version != version || again != effects) {
    Abort("encode/decode changed the batch");
  }

  // Group commit appends a second batch's effects to the first.
  const std::string joined =
      reencoded + EffectBatchReader(Slice(reencoded)).rest().ToString();
  std::vector<Argv> doubled;
  if (!DecodeAll(Slice(joined), &again_version, &doubled) ||
      doubled.size() != 2 * effects.size()) {
    Abort("concatenated batches did not decode to both effect lists");
  }

  std::string ignored;
  std::vector<Argv> shorter;
  if (size > 0 && DecodeAll(Slice(input.data(), size - 1), &ignored,
                            &shorter)) {
    Abort("truncated batch decoded");
  }
  return 0;
}
