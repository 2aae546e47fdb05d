#include "workload.h"

#include <cmath>
#include <algorithm>
#include <cstring>

namespace perfbench {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = Mix64(seed ^ (n * 0x9e3779b97f4a7c15ull));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = Mix64(h ^ w) + 0x9e3779b97f4a7c15ull;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  return Mix64(h ^ tail ^ (static_cast<uint64_t>(n - i) << 56));
}

std::string KeySpace::Key(uint64_t index) const {
  static const char kHex[] = "0123456789abcdef";
  uint64_t h = Mix64(index ^ salt_);
  std::string key = "user";
  key.resize(kKeySize);
  for (int i = 0; i < 16; i++) key[4 + i] = kHex[(h >> (60 - 4 * i)) & 0xf];
  return key;
}

namespace {
constexpr size_t kIndexOff = 0, kVersionOff = 8, kSumOff = 12, kFillOff = 20;

uint64_t ValueChecksum(const KeySpace& keys, const char* v) {
  uint64_t h = HashBytes(v, kSumOff, keys.salt());
  return HashBytes(v + kFillOff, kValueSize - kFillOff, h);
}
}  // namespace

std::string MakeValue(const KeySpace& keys, uint64_t index, uint32_t version) {
  std::string v(kValueSize, '\0');
  std::memcpy(&v[kIndexOff], &index, 8);
  std::memcpy(&v[kVersionOff], &version, 4);
  uint64_t s = Mix64(keys.salt() ^ Mix64(index) ^ version);
  for (size_t off = kFillOff; off < kValueSize; off += 8) {
    s += 0x9e3779b97f4a7c15ull;
    uint64_t w = Mix64(s);
    std::memcpy(&v[off], &w, std::min<size_t>(8, kValueSize - off));
  }
  uint64_t sum = ValueChecksum(keys, v.data());
  std::memcpy(&v[kSumOff], &sum, 8);
  return v;
}

bool ParseValue(const KeySpace& keys, const std::string& value,
                uint64_t* index, uint32_t* version) {
  if (value.size() != kValueSize) return false;
  uint64_t sum;
  std::memcpy(&sum, &value[kSumOff], 8);
  if (sum != ValueChecksum(keys, value.data())) return false;
  std::memcpy(index, &value[kIndexOff], 8);
  std::memcpy(version, &value[kVersionOff], 4);
  return true;
}

VersionTable::VersionTable(size_t keys)
    : entries_(std::make_unique<Entry[]>(keys)) {}

uint32_t VersionTable::NextVersion(uint64_t index) {
  return entries_[index].issued.fetch_add(1, std::memory_order_relaxed) + 1;
}

void VersionTable::Ack(uint64_t index, uint32_t version) {
  std::atomic<uint32_t>& a = entries_[index].acked;
  uint32_t cur = a.load(std::memory_order_relaxed);
  while (cur < version &&
         !a.compare_exchange_weak(cur, version, std::memory_order_release,
                                  std::memory_order_relaxed)) {
  }
}

uint32_t VersionTable::acked(uint64_t index) const {
  return entries_[index].acked.load(std::memory_order_acquire);
}

uint32_t VersionTable::issued(uint64_t index) const {
  return entries_[index].issued.load(std::memory_order_acquire);
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kMissing: return "missing";
    case Verdict::kCorrupt: return "corrupt";
    case Verdict::kWrongKey: return "wrong-key";
    case Verdict::kStale: return "stale";
    case Verdict::kFuture: return "never-written";
  }
  return "?";
}

Verdict CheckValue(const KeySpace& keys, const VersionTable& versions,
                   uint64_t index, uint32_t min_version, bool found,
                   const std::string& value) {
  if (!found) return min_version == 0 ? Verdict::kOk : Verdict::kMissing;
  uint64_t got_index;
  uint32_t got_version;
  if (!ParseValue(keys, value, &got_index, &got_version)) {
    return Verdict::kCorrupt;
  }
  if (got_index != index) return Verdict::kWrongKey;
  if (got_version < min_version) return Verdict::kStale;
  if (got_version == 0 || got_version > versions.issued(index)) {
    return Verdict::kFuture;
  }
  return Verdict::kOk;
}

namespace {
double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; i++) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}
}  // namespace

ScrambledZipfian::ScrambledZipfian(uint64_t n, double theta)
    : n_(n) {
  alpha_ = 1.0 / (1.0 - theta);
  zetan_ = Zeta(n, theta);
  double zeta2 = Zeta(2, theta);
  eta_ = (1 - std::pow(2.0 / n, 1 - theta)) / (1 - zeta2 / zetan_);
  half_pow_theta_ = 1 + std::pow(0.5, theta);
}

uint64_t ScrambledZipfian::Next(double u) const {
  double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1) {
    rank = 0;
  } else if (uz < half_pow_theta_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  return Mix64(rank) % n_;
}

}  // namespace perfbench
