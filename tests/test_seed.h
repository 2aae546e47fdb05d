// Seed plumbing for randomized tests.  Suites derive their random streams
// from TestSeed(default) and wrap bodies in SCOPED_TRACE(SeedTrace(seed)),
// so any failure prints the seed it ran with, and setting
//   IAMDB_TEST_SEED=<n>
// replays the exact same history (docs/TESTING.md, "Reproducing a seeded
// failure").
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "str_cat.h"
#include "table/compressor.h"

namespace iamdb {
namespace test {

// True (and *seed overwritten) when IAMDB_TEST_SEED is set.
inline bool SeedOverridden(uint64_t* seed) {
  const char* value = std::getenv("IAMDB_TEST_SEED");
  if (value == nullptr || *value == '\0') return false;
  *seed = std::strtoull(value, nullptr, 10);
  return true;
}

inline uint64_t TestSeed(uint64_t default_seed) {
  uint64_t seed = default_seed;
  SeedOverridden(&seed);
  return seed;
}

// Attach via SCOPED_TRACE so failures print the replay recipe.
inline std::string SeedTrace(uint64_t seed) {
  return StrCat("seed=", seed, " (replay with IAMDB_TEST_SEED=", seed, ")");
}

// Block codec for the seeded fault/crash/equivalence matrices: setting
//   IAMDB_TEST_COMPRESSION=columnar|lz
// reruns the same histories with per-block compression enabled (CI's
// sanitizer jobs add a compression cell this way).  Unset or unparseable
// means raw blocks, the historical default.
inline CompressionType TestCompression() {
  CompressionType type = CompressionType::kNone;
  const char* value = std::getenv("IAMDB_TEST_COMPRESSION");
  if (value != nullptr && *value != '\0') {
    ParseCompressionType(value, &type);
  }
  return type;
}

}  // namespace test
}  // namespace iamdb
