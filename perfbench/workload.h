// Inputs and answer checking for the wire-level benchmark.
//
// Keys are "user" + 16 hex digits of a seeded bijective hash of the key
// index, so index order is hash order in key space (the paper's Fig. 6
// hash load) and distinct indices never collide.  Values describe
// themselves: key index, version and a checksum over the whole value, so
// every read can be checked for the right key, integrity and freshness.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

constexpr size_t kValueSize = 1024;  // paper Sec. 6.1
constexpr size_t kKeySize = 20;

uint64_t Mix64(uint64_t x);  // splitmix64 finaliser (a bijection)
uint64_t HashBytes(const void* data, size_t n, uint64_t seed = 0);

class KeySpace {
 public:
  explicit KeySpace(uint64_t seed) : salt_(Mix64(seed ^ 0x6b65797370616365ull)) {}
  std::string Key(uint64_t index) const;
  uint64_t salt() const { return salt_; }

 private:
  uint64_t salt_;
};

// Builds the self-describing value of (index, version).
std::string MakeValue(const KeySpace& keys, uint64_t index, uint32_t version);

// Parses a value built by MakeValue; false if its size or checksum is
// wrong (corruption).
bool ParseValue(const KeySpace& keys, const std::string& value,
                uint64_t* index, uint32_t* version);

// Per-key version bookkeeping shared by all client threads.  `issued` is
// the highest version handed to a writer, `acked` the highest version whose
// PUT was acknowledged.  A read sent when acked == a may legally return any
// version in [a, issued-at-reply].
class VersionTable {
 public:
  explicit VersionTable(size_t keys);
  uint32_t NextVersion(uint64_t index);
  void Ack(uint64_t index, uint32_t version);
  uint32_t acked(uint64_t index) const;
  uint32_t issued(uint64_t index) const;

 private:
  struct Entry {
    std::atomic<uint32_t> issued{0};
    std::atomic<uint32_t> acked{0};
  };
  std::unique_ptr<Entry[]> entries_;
};

// Verdict on one returned value.  kOk also covers a legal NotFound (key
// never acknowledged when the read was sent).
enum class Verdict { kOk, kMissing, kCorrupt, kWrongKey, kStale, kFuture };
const char* VerdictName(Verdict v);

// Checks a point-read answer for key `index`.  `found` is false for a
// NotFound reply; `min_version` is acked(index) sampled before sending.
Verdict CheckValue(const KeySpace& keys, const VersionTable& versions,
                   uint64_t index, uint32_t min_version, bool found,
                   const std::string& value);

// YCSB's scrambled zipfian over [0, n): zipfian ranks (theta 0.99) hashed
// onto the key range so hot keys are spread through key space.
class ScrambledZipfian {
 public:
  explicit ScrambledZipfian(uint64_t n, double theta = 0.99);
  // u uniform in [0, 1).
  uint64_t Next(double u) const;

 private:
  uint64_t n_;
  double alpha_, zetan_, eta_, half_pow_theta_;
};

// Small fast generator for per-thread streams.  The benchmark keeps its own
// generators and hashes so its inputs do not change when the program's
// utilities do.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix64(seed) | 1) {}
  uint64_t Next() {
    s_ += 0x9e3779b97f4a7c15ull;
    return Mix64(s_);
  }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t s_;
};

}  // namespace perfbench
