// DbStats: the metric list (core/db_stats.h), its aggregation (operator+=)
// and its wire codec.  Every test walks the list, so a metric added to it
// is filled, round-tripped, merged and group-checked here with no edit; the
// golden encodings pin the bytes of the tags that existed when they were
// captured.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/db.h"
#include "server/wire_protocol.h"
#include "util/coding.h"

namespace iamdb {
namespace {

template <typename T>
using Plain = std::remove_cvref_t<T>;

// A distinct nonzero value per (tag, base): integers need multi-byte
// varints, doubles have a fractional part, a per-level vector has two
// levels.
template <typename T>
void FillValue(T* v, uint32_t tag, uint64_t base) {
  if constexpr (kIsPerLevelStat<T>) {
    typename T::value_type first;
    FillValue(&first, tag, base);
    *v = {first, first + 1};
  } else {
    *v = static_cast<T>(base + tag * 1001);
    if constexpr (std::is_floating_point_v<T>) *v += 0.25;
  }
}

DbStats Filled(uint64_t base) {
  DbStats s;
  ForEachDbStat(
      [base](const StatInfo& info, auto& v) { FillValue(&v, info.tag, base); },
      s);
  return s;
}

// `s` with every metric of `group` reset to zero.
DbStats ZeroGroup(DbStats s, StatGroup group) {
  ForEachDbStat(
      [group](const StatInfo& info, auto& v) {
        if (info.group == group) v = Plain<decltype(v)>{};
      },
      s);
  return s;
}

std::vector<StatInfo> List() {
  std::vector<StatInfo> list;
  ForEachDbStat([&list](const StatInfo& info) { list.push_back(info); });
  return list;
}

// Walks the tag/len/bytes stream of an encoded DbStats, in order.
std::vector<std::pair<uint32_t, std::string>> FieldsOf(
    const std::string& encoded) {
  std::vector<std::pair<uint32_t, std::string>> fields;
  Slice in(encoded);
  while (!in.empty()) {
    uint32_t tag = 0, len = 0;
    EXPECT_TRUE(GetVarint32(&in, &tag));
    EXPECT_TRUE(GetVarint32(&in, &len));
    EXPECT_LE(len, in.size());
    fields.emplace_back(tag, std::string(in.data(), len));
    in.remove_prefix(len);
  }
  return fields;
}

std::set<uint32_t> TagsOf(const std::string& encoded) {
  std::set<uint32_t> tags;
  for (const auto& field : FieldsOf(encoded)) tags.insert(field.first);
  return tags;
}

std::string Encode(const DbStats& s) {
  std::string encoded;
  wire::EncodeDbStats(s, &encoded);
  return encoded;
}

TEST(DbStatsListTest, TagsAndNamesAreUnique) {
  std::set<uint32_t> tags;
  std::set<std::string> names;
  for (const StatInfo& info : List()) {
    EXPECT_GE(info.tag, 1u) << info.name;
    EXPECT_TRUE(tags.insert(info.tag).second) << "tag " << info.tag;
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
  EXPECT_EQ(wire::kMaxDbStatsTag, *tags.rbegin());
}

TEST(DbStatsCodecTest, EveryMetricEmittedInListOrder) {
  std::vector<uint32_t> expect;
  for (const StatInfo& info : List()) expect.push_back(info.tag);
  std::vector<uint32_t> emitted;
  for (const auto& field : FieldsOf(Encode(Filled(1)))) {
    emitted.push_back(field.first);
  }
  EXPECT_EQ(expect, emitted);
}

TEST(DbStatsCodecTest, EveryMetricRoundTrips) {
  const DbStats in = Filled(7);
  DbStats out;
  ASSERT_TRUE(wire::DecodeDbStats(Encode(in), &out));
  ForEachDbStat(
      [](const StatInfo& info, const auto& sent, const auto& got) {
        EXPECT_NE(sent, Plain<decltype(sent)>{}) << info.name;
        EXPECT_EQ(sent, got) << info.name;
      },
      in, out);
}

// Each non-core group is left out while all of its metrics are zero, and a
// single nonzero metric pulls the whole group in; kCore is always sent.
TEST(DbStatsCodecTest, GroupsOmittedOnlyWhenAllZero) {
  const std::vector<StatInfo> list = List();
  for (int g = 0; g < kNumStatGroups; g++) {
    const StatGroup group = static_cast<StatGroup>(g);
    SCOPED_TRACE("group " + std::to_string(g));
    std::set<uint32_t> members, others;
    for (const StatInfo& info : list) {
      (info.group == group ? members : others).insert(info.tag);
    }
    const DbStats idle = ZeroGroup(Filled(1), group);
    const std::set<uint32_t> idle_tags = TagsOf(Encode(idle));
    for (uint32_t tag : others) EXPECT_EQ(1u, idle_tags.count(tag)) << tag;
    for (uint32_t tag : members) {
      EXPECT_EQ(group == StatGroup::kCore ? 1u : 0u, idle_tags.count(tag))
          << tag;
    }
    for (uint32_t one : members) {
      DbStats s = idle;
      ForEachDbStat(
          [one](const StatInfo& info, auto& v) {
            if (info.tag == one) FillValue(&v, info.tag, 3);
          },
          s);
      const std::set<uint32_t> tags = TagsOf(Encode(s));
      for (uint32_t tag : members) {
        EXPECT_EQ(1u, tags.count(tag)) << "tag " << tag << " with " << one;
      }
    }
  }
}

// Hex of EncodeDbStats as captured from the hand-written encoder this list
// replaced: a default DbStats, Filled(0), then Filled(0) with each group
// zeroed alone, in StatGroup order.
constexpr uint32_t kGoldenMaxTag = 52;
const std::pair<const char*, const char*> kGolden[] = {
    {"default",
     "0101000201000301000401000501000601000701000801000901000a08000000"
     "00000000000b000c000d000e01000f0100100100110100120100130100140100"
     "150100160100"},
    {"full",
     "0102e9070202d20f0302bb170402a41f05028d270602f62e0702df360802c83e"
     "0902b1460a0800000000208dc3400b04835684560c04ec5ded5d0d1000000000"
     "a06ac94000000000206bc9400e02be6d0f02a7751002907d1103f984011203e2"
     "8c011303cb94011403b49c0115039da401160386ac011d03e5e2011e03ceea01"
     "1f03b7f2012003a0fa011703efb3011803d8bb011903c1c3011a03aacb011b03"
     "93d3011c03fcda0121038982022203f289022303db91022403c499022503ada1"
     "02260396a9022703ffb0022803e8b8022903d1c0022a03bac8022b03a3d0022c"
     "038cd8022d03f5df022e03dee7022f03c7ef023003b0f702310399ff02320382"
     "87033303eb8e033403d49603"},
    {"core",
     "0101000201000301000401000501000601000701000801000901000a08000000"
     "00000000000b000c000d000e01000f0100100100110100120100130100140100"
     "1501001601001d03e5e2011e03ceea011f03b7f2012003a0fa011703efb30118"
     "03d8bb011903c1c3011a03aacb011b0393d3011c03fcda0121038982022203f2"
     "89022303db91022403c499022503ada102260396a9022703ffb0022803e8b802"
     "2903d1c0022a03bac8022b03a3d0022c038cd8022d03f5df022e03dee7022f03"
     "c7ef023003b0f702310399ff0232038287033303eb8e033403d49603"},
    {"pacer",
     "0102e9070202d20f0302bb170402a41f05028d270602f62e0702df360802c83e"
     "0902b1460a0800000000208dc3400b04835684560c04ec5ded5d0d1000000000"
     "a06ac94000000000206bc9400e02be6d0f02a7751002907d1103f984011203e2"
     "8c011303cb94011403b49c0115039da401160386ac011703efb3011803d8bb01"
     "1903c1c3011a03aacb011b0393d3011c03fcda0121038982022203f289022303"
     "db91022403c499022503ada102260396a9022703ffb0022803e8b8022903d1c0"
     "022a03bac8022b03a3d0022c038cd8022d03f5df022e03dee7022f03c7ef0230"
     "03b0f702310399ff0232038287033303eb8e033403d49603"},
    {"reactor",
     "0102e9070202d20f0302bb170402a41f05028d270602f62e0702df360802c83e"
     "0902b1460a0800000000208dc3400b04835684560c04ec5ded5d0d1000000000"
     "a06ac94000000000206bc9400e02be6d0f02a7751002907d1103f984011203e2"
     "8c011303cb94011403b49c0115039da401160386ac011d03e5e2011e03ceea01"
     "1f03b7f2012003a0fa0121038982022203f289022303db91022403c499022503"
     "ada102260396a9022703ffb0022803e8b8022903d1c0022a03bac8022b03a3d0"
     "022c038cd8022d03f5df022e03dee7022f03c7ef023003b0f702310399ff0232"
     "038287033303eb8e033403d49603"},
    {"compression",
     "0102e9070202d20f0302bb170402a41f05028d270602f62e0702df360802c83e"
     "0902b1460a0800000000208dc3400b04835684560c04ec5ded5d0d1000000000"
     "a06ac94000000000206bc9400e02be6d0f02a7751002907d1103f984011203e2"
     "8c011303cb94011403b49c0115039da401160386ac011d03e5e2011e03ceea01"
     "1f03b7f2012003a0fa011703efb3011803d8bb011903c1c3011a03aacb011b03"
     "93d3011c03fcda012b03a3d0022c038cd8022d03f5df022e03dee7022f03c7ef"
     "023003b0f702310399ff0232038287033303eb8e033403d49603"},
    {"arbiter",
     "0102e9070202d20f0302bb170402a41f05028d270602f62e0702df360802c83e"
     "0902b1460a0800000000208dc3400b04835684560c04ec5ded5d0d1000000000"
     "a06ac94000000000206bc9400e02be6d0f02a7751002907d1103f984011203e2"
     "8c011303cb94011403b49c0115039da401160386ac011d03e5e2011e03ceea01"
     "1f03b7f2012003a0fa011703efb3011803d8bb011903c1c3011a03aacb011b03"
     "93d3011c03fcda0121038982022203f289022303db91022403c499022503ada1"
     "02260396a9022703ffb0022803e8b8022903d1c0022a03bac802310399ff0232"
     "038287033303eb8e033403d49603"},
    {"multiget",
     "0102e9070202d20f0302bb170402a41f05028d270602f62e0702df360802c83e"
     "0902b1460a0800000000208dc3400b04835684560c04ec5ded5d0d1000000000"
     "a06ac94000000000206bc9400e02be6d0f02a7751002907d1103f984011203e2"
     "8c011303cb94011403b49c0115039da401160386ac011d03e5e2011e03ceea01"
     "1f03b7f2012003a0fa011703efb3011803d8bb011903c1c3011a03aacb011b03"
     "93d3011c03fcda0121038982022203f289022303db91022403c499022503ada1"
     "02260396a9022703ffb0022803e8b8022903d1c0022a03bac8022b03a3d0022c"
     "038cd8022d03f5df022e03dee7022f03c7ef023003b0f702"},
};

// The encoding of `s` restricted to the tags the goldens know, so a metric
// added later does not change them.
std::string GoldenHex(const DbStats& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string frozen;
  for (const auto& [tag, bytes] : FieldsOf(Encode(s))) {
    if (tag > kGoldenMaxTag) continue;
    PutVarint32(&frozen, tag);
    PutVarint32(&frozen, static_cast<uint32_t>(bytes.size()));
    frozen += bytes;
  }
  std::string hex;
  for (unsigned char c : frozen) {
    hex += kHex[c >> 4];
    hex += kHex[c & 15];
  }
  return hex;
}

TEST(DbStatsCodecTest, MatchesGoldenEncodings) {
  std::vector<DbStats> inputs = {DbStats(), Filled(0)};
  for (int g = 0; g < kNumStatGroups; g++) {
    inputs.push_back(ZeroGroup(Filled(0), static_cast<StatGroup>(g)));
  }
  ASSERT_EQ(std::size(kGolden), inputs.size());
  for (size_t i = 0; i < inputs.size(); i++) {
    EXPECT_EQ(kGolden[i].second, GoldenHex(inputs[i])) << kGolden[i].first;
  }
}

bool Decodes(const std::string& payload) {
  DbStats out;
  return wire::DecodeDbStats(payload, &out);
}

std::string Field(uint32_t tag, const std::string& bytes) {
  std::string field;
  PutVarint32(&field, tag);
  PutVarint32(&field, static_cast<uint32_t>(bytes.size()));
  return field + bytes;
}

// A prefix decodes only if it ends on a field boundary.
TEST(DbStatsCodecTest, EveryTruncationCuttingAFieldFails) {
  const std::string full = Encode(Filled(1));
  std::set<size_t> boundaries = {0};
  size_t end = 0;
  for (const auto& [tag, bytes] : FieldsOf(full)) {
    end += Field(tag, bytes).size();
    boundaries.insert(end);
  }
  ASSERT_EQ(full.size(), end);
  for (size_t n = 0; n < full.size(); n++) {
    EXPECT_EQ(boundaries.count(n) == 1, Decodes(full.substr(0, n))) << n;
  }
}

TEST(DbStatsCodecTest, MalformedFieldsFail) {
  const uint32_t user_bytes = 1, total_write_amp = 10, level_bytes = 11,
                 level_write_amp = 13;
  // A length past the end of the payload.
  std::string past;
  PutVarint32(&past, user_bytes);
  PutVarint32(&past, 5);
  EXPECT_FALSE(Decodes(past + "\x01\x02"));
  // Truncated varints: in a scalar, in a per-level field, in the header.
  EXPECT_FALSE(Decodes(Field(user_bytes, "\x80")));
  EXPECT_FALSE(Decodes(Field(level_bytes, std::string("\x05\x80", 2))));
  EXPECT_FALSE(Decodes(std::string("\x81", 1)));
  // A double takes exactly 8 bytes; a per-level double vector, multiples.
  for (size_t len : {0, 1, 7, 9, 16}) {
    EXPECT_FALSE(Decodes(Field(total_write_amp, std::string(len, '\0'))))
        << len;
  }
  EXPECT_TRUE(Decodes(Field(total_write_amp, std::string(8, '\0'))));
  for (size_t len : {1, 7, 12, 17}) {
    EXPECT_FALSE(Decodes(Field(level_write_amp, std::string(len, '\0'))))
        << len;
  }
  EXPECT_TRUE(Decodes(Field(level_write_amp, std::string(16, '\0'))));
  // An unknown tag is skipped by length.
  EXPECT_TRUE(Decodes(Field(wire::kMaxDbStatsTag + 1, "xyz")));
}

// Expected combination of two amp ratios, weighted by user bytes.
double WeightedAmp(double a_amp, uint64_t a_user, double b_amp,
                   uint64_t b_user) {
  return (a_amp * static_cast<double>(a_user) +
          b_amp * static_cast<double>(b_user)) /
         static_cast<double>(a_user + b_user);
}

// What StatMerge `merge` must make of one pair of scalar values.
template <typename T>
T Expected(StatMerge merge, T a, T b, uint64_t a_user, uint64_t b_user) {
  switch (merge) {
    case StatMerge::kMax:
      return std::max(a, b);
    case StatMerge::kWeightedAmp:
      return static_cast<T>(WeightedAmp(static_cast<double>(a), a_user,
                                        static_cast<double>(b), b_user));
    case StatMerge::kSum:
    case StatMerge::kPadAdd:
      break;
  }
  return a + b;
}

TEST(DbStatsAggregationTest, EveryMetricMergesByItsKind) {
  // Different level counts on purpose: padding must keep rhs's extra level.
  DbStats small = Filled(1);
  DbStats big = Filled(100);
  big.level_bytes.push_back(4242);
  big.level_node_counts.push_back(17);
  big.level_write_amp.push_back(3.25);

  for (bool small_first : {true, false}) {
    const DbStats& a = small_first ? small : big;
    const DbStats& b = small_first ? big : small;
    DbStats sum = a;
    sum += b;
    ForEachDbStat(
        [&](const StatInfo& info, const auto& got, const auto& av,
            const auto& bv) {
          SCOPED_TRACE(info.name);
          using T = Plain<decltype(got)>;
          if constexpr (kIsPerLevelStat<T>) {
            ASSERT_EQ(std::max(av.size(), bv.size()), got.size());
            for (size_t i = 0; i < got.size(); i++) {
              const typename T::value_type zero{};
              const auto x = i < av.size() ? av[i] : zero;
              const auto y = i < bv.size() ? bv[i] : zero;
              EXPECT_DOUBLE_EQ(Expected(info.merge, x, y, a.user_bytes,
                                        b.user_bytes),
                               got[i]);
            }
          } else {
            EXPECT_DOUBLE_EQ(
                Expected(info.merge, av, bv, a.user_bytes, b.user_bytes),
                got);
          }
        },
        sum, a, b);
  }
}

TEST(DbStatsAggregationTest, WeightedAmpMatchesGroundTruth) {
  // Two instances with known written/user byte totals: combining their
  // ratios must equal the ratio of the combined totals.
  DbStats a;
  a.user_bytes = 1000;
  a.total_write_amp = 3.0;  // 3000 bytes written
  DbStats b;
  b.user_bytes = 3000;
  b.total_write_amp = 1.0;  // 3000 bytes written
  a += b;
  EXPECT_NEAR(a.total_write_amp, 6000.0 / 4000.0, 1e-9);
}

TEST(DbStatsAggregationTest, SelfAddDoublesCountersKeepsRatios) {
  DbStats s = Filled(9);
  const DbStats orig = s;
  s += s;
  EXPECT_EQ(s.user_bytes, 2 * orig.user_bytes);
  EXPECT_EQ(s.io.fsyncs, 2 * orig.io.fsyncs);
  EXPECT_EQ(s.mixed_level, orig.mixed_level);
  // Same traffic twice has the same amp.
  EXPECT_NEAR(s.total_write_amp, orig.total_write_amp, 1e-9);
}

TEST(DbStatsAggregationTest, AddToZeroIsIdentity) {
  DbStats zero;
  DbStats s = Filled(4);
  zero += s;
  EXPECT_EQ(zero.user_bytes, s.user_bytes);
  EXPECT_NEAR(zero.total_write_amp, s.total_write_amp, 1e-9);
  EXPECT_EQ(zero.level_bytes, s.level_bytes);
  EXPECT_EQ(zero.server_output_buffer_hwm, s.server_output_buffer_hwm);
}

}  // namespace
}  // namespace iamdb
