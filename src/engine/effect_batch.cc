#include "engine/effect_batch.h"

namespace memdb::engine {

std::string EncodeEffectBatch(const std::string& engine_version,
                              const std::vector<Argv>& effects) {
  std::string out;
  PutLengthPrefixed(&out, engine_version);
  for (const Argv& argv : effects) {
    PutVarint64(&out, argv.size());
    for (const std::string& a : argv) PutLengthPrefixed(&out, a);
  }
  return out;
}

}  // namespace memdb::engine
