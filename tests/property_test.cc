// Parameterized property sweeps across the configuration space:
//  * table layer round-trips across block sizes x restart intervals,
//  * bloom filters across bits-per-key,
//  * whole-DB model checks across engine x value-size x insert-pattern.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "core/db.h"
#include "core/dbformat.h"
#include "env/mem_env.h"
#include "mstable_get.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/bloom.h"
#include "table/mstable.h"
#include "test_seed.h"
#include "util/random.h"
#include "str_cat.h"

namespace iamdb {
namespace {

std::string IKey(const std::string& k, SequenceNumber s) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(k, s, kTypeValue));
  return r;
}

// ---------------------------------------------------------------------------
// Block round-trips across (block entries, restart interval).

class BlockSweepTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockSweepTest, RoundTripAndSeek) {
  const auto [num_entries, restart_interval] = GetParam();
  const uint64_t seed = test::TestSeed(num_entries * 31 + restart_interval);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random rnd(static_cast<uint32_t>(seed));
  std::map<std::string, std::string> model;
  for (int i = 0; i < num_entries; i++) {
    model[IKey(test::StrCat("key", rnd.Uniform(100000) + 100000), 5)] =
        std::string(rnd.Uniform(64), 'v');
  }
  BlockBuilder builder(restart_interval);
  for (const auto& [k, v] : model) builder.Add(k, v);
  Block block(builder.Finish().ToString());
  InternalKeyComparator cmp;

  // Full forward scan equals the model.
  std::unique_ptr<Iterator> iter(block.NewIterator(&cmp));
  auto it = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++it) {
    ASSERT_NE(model.end(), it);
    EXPECT_EQ(it->first, iter->key().ToString());
    EXPECT_EQ(it->second, iter->value().ToString());
  }
  EXPECT_EQ(model.end(), it);

  // Random seeks land on lower_bound.
  for (int probe = 0; probe < 50; probe++) {
    std::string target =
        IKey(test::StrCat("key", rnd.Uniform(100000) + 100000), 5);
    iter->Seek(target);
    auto lb = model.lower_bound(target);
    if (lb == model.end()) {
      EXPECT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(lb->first, iter->key().ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockSweepTest,
    testing::Combine(testing::Values(0, 1, 7, 64, 500),
                     testing::Values(1, 2, 16, 128)),
    [](const testing::TestParamInfo<std::tuple<int, int>>& info) {
      return test::StrCat("n", std::get<0>(info.param), "_ri",
                          std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Bloom filters across bits-per-key.

class BloomSweepTest : public testing::TestWithParam<int> {};

TEST_P(BloomSweepTest, NoFalseNegativesAndBoundedFalsePositives) {
  const int bits = GetParam();
  BloomFilterPolicy policy(bits);
  std::vector<std::string> storage;
  for (int i = 0; i < 2000; i++) {
    storage.push_back(test::StrCat("key", i * 37));
  }
  std::vector<Slice> keys(storage.begin(), storage.end());
  std::string filter;
  policy.CreateFilter(keys, &filter);

  for (const auto& k : storage) {
    ASSERT_TRUE(policy.KeyMayMatch(k, filter)) << bits << " bits: " << k;
  }
  int fp = 0;
  for (int i = 0; i < 5000; i++) {
    if (policy.KeyMayMatch(test::StrCat("absent", i), filter)) fp++;
  }
  // Loose theoretical bound: (0.6185)^bits, with generous slack.
  double expected = std::pow(0.6185, bits);
  EXPECT_LT(fp / 5000.0, std::max(0.02, expected * 3)) << bits << " bits";
}

INSTANTIATE_TEST_SUITE_P(Sweep, BloomSweepTest,
                         testing::Values(4, 8, 10, 14, 20),
                         [](const testing::TestParamInfo<int>& info) {
                           return test::StrCat("bits", info.param);
                         });

// ---------------------------------------------------------------------------
// MSTable round-trips across (block size, appends).

class MSTableSweepTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MSTableSweepTest, MultiAppendModelCheck) {
  const auto [block_size, num_appends] = GetParam();
  MemEnv env;
  InternalKeyComparator cmp;
  TableOptions options;
  options.block_size = block_size;

  std::map<std::string, std::string> model;
  uint64_t meta_end = 0;
  SequenceNumber seq = 1;
  const uint64_t seed = test::TestSeed(block_size + num_appends);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random rnd(static_cast<uint32_t>(seed));

  for (int append = 0; append <= num_appends; append++) {
    std::map<std::string, std::string> batch;
    for (int i = 0; i < 120; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "k%05d", rnd.Uniform(600));
      batch[buf] = test::StrCat("a", append, "v", i);
    }
    MSTableBuildResult result;
    if (append == 0) {
      MSTableWriter writer(&env, options, "/t");
      ASSERT_TRUE(writer.Open().ok());
      for (const auto& [k, v] : batch) {
        ASSERT_TRUE(writer.Add(IKey(k, seq), v).ok());
        model[k] = v;
      }
      ASSERT_TRUE(writer.Finish(false, &result).ok());
    } else {
      std::shared_ptr<MSTableReader> reader;
      ASSERT_TRUE(MSTableReader::Open(&env, options, &cmp, "/t", append,
                                      meta_end, &reader)
                      .ok());
      MSTableAppender appender(&env, options, "/t", *reader);
      ASSERT_TRUE(appender.Open().ok());
      for (const auto& [k, v] : batch) {
        ASSERT_TRUE(appender.Add(IKey(k, seq), v).ok());
        model[k] = v;
      }
      ASSERT_TRUE(appender.Finish(false, &result).ok());
    }
    meta_end = result.meta_end;
    seq++;
  }

  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&env, options, &cmp, "/t", 99, meta_end,
                                  &reader)
                  .ok());
  EXPECT_EQ(num_appends + 1, reader->seq_count());
  for (int i = 0; i < 600; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", i);
    std::string value;
    MultiGetRequest::State state;
    std::string ikey = IKey(buf, 1000);
    ASSERT_TRUE(TableGet(*reader, ReadOptions(), ikey, &value, &state).ok());
    auto it = model.find(buf);
    if (it == model.end()) {
      EXPECT_EQ(MultiGetRequest::State::kPending, state) << buf;
    } else {
      ASSERT_EQ(MultiGetRequest::State::kFound, state) << buf;
      EXPECT_EQ(it->second, value) << buf;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MSTableSweepTest,
    testing::Combine(testing::Values(256, 1024, 8192),
                     testing::Values(0, 1, 4, 9)),
    [](const testing::TestParamInfo<std::tuple<int, int>>& info) {
      return test::StrCat("bs", std::get<0>(info.param), "_app",
                          std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Whole-DB model check across engine x value size x insert pattern.

struct DbSweepParam {
  EngineType engine;
  AmtPolicy policy;
  int value_size;
  int pattern;  // 0 = sequential, 1 = uniform random, 2 = skewed hot keys
  std::string Name() const {
    std::string n = engine == EngineType::kLeveled
                        ? "Leveled"
                        : (policy == AmtPolicy::kLsa ? "Lsa" : "Iam");
    n += test::StrCat("_v", value_size);
    n += pattern == 0 ? "_seq" : (pattern == 1 ? "_rand" : "_skew");
    return n;
  }
};

class DbSweepTest : public testing::TestWithParam<DbSweepParam> {};

TEST_P(DbSweepTest, ModelCheckWithReopen) {
  const DbSweepParam& param = GetParam();
  MemEnv env;
  Options options;
  options.env = &env;
  options.engine = param.engine;
  options.amt.policy = param.policy;
  options.node_capacity = 24 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.leveled.max_bytes_level1 = 96 << 10;
  options.leveled.target_file_size = 12 << 10;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  const uint64_t seed = test::TestSeed(param.value_size * 131 + param.pattern);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random64 rnd(seed);
  std::map<std::string, std::string> model;
  const int ops = 12000;
  for (int i = 0; i < ops; i++) {
    uint64_t index;
    switch (param.pattern) {
      case 0: index = i; break;
      case 1: index = rnd.Next() % 5000; break;
      default: index = (rnd.Next() % 10 < 8) ? rnd.Next() % 50
                                             : rnd.Next() % 5000;
    }
    char key[32];
    snprintf(key, sizeof(key), "key%08llu",
             static_cast<unsigned long long>(index));
    if (param.pattern != 0 && rnd.Next() % 5 == 0) {
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else {
      std::string value(param.value_size, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    }
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  ASSERT_TRUE(db->CheckInvariants(true).ok());

  // Reopen and verify the full model by scan.
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::map<std::string, std::string> dump;
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dump[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(model.size(), dump.size());
  EXPECT_EQ(model, dump);

  // And by point reads of every key in the key space — live, deleted and
  // never written: one Get per key, then the same keys as one MultiGet.
  std::vector<std::string> keys;
  for (int i = 0; i < ops + 50; i++) {  // past every written index
    char key[32];
    snprintf(key, sizeof(key), "key%08d", i);
    keys.emplace_back(key);
  }
  auto expect_model = [&](const std::string& key, const Status& s,
                          const std::string& value) {
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
    } else {
      EXPECT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(it->second, value) << key;
    }
  };
  for (const std::string& key : keys) {
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    expect_model(key, s, value);
  }
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  db->MultiGet(ReadOptions(), keys.size(), slices.data(), values.data(),
               statuses.data());
  for (size_t i = 0; i < keys.size(); i++) {
    expect_model(keys[i], statuses[i], values[i]);
  }
}

// ---------------------------------------------------------------------------
// AMT fan-out sweep: invariants and reads must hold for any t.

class FanoutSweepTest : public testing::TestWithParam<int> {};

TEST_P(FanoutSweepTest, InvariantsAndReadsAcrossFanouts) {
  const int fanout = GetParam();
  MemEnv env;
  Options options;
  options.env = &env;
  options.engine = EngineType::kAmt;
  options.amt.policy = AmtPolicy::kIam;
  options.amt.fanout = fanout;
  options.node_capacity = 16 << 10;
  options.table.block_size = 512;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const uint64_t seed = test::TestSeed(fanout);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random64 rnd(seed);
  std::string value(64, 'v');
  for (int i = 0; i < 15000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%08llu",
             static_cast<unsigned long long>(rnd.Next() % 100000));
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  Status s = db->CheckInvariants(true);
  ASSERT_TRUE(s.ok()) << "t=" << fanout << ": " << s.ToString();

  // Split bound: with fan-out t, no node may have more than 2t overlapping
  // children (the worst-write-case avoidance, Sec 4.2.2).  Verified
  // indirectly by the invariant checker plus a read sample.
  Random64 probe(fanout + 1);
  int found = 0;
  for (int i = 0; i < 300; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%08llu",
             static_cast<unsigned long long>(probe.Next() % 100000));
    std::string v;
    if (db->Get(ReadOptions(), key, &v).ok()) found++;
  }
  EXPECT_GT(found, 10) << "t=" << fanout;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FanoutSweepTest, testing::Values(2, 3, 5, 10),
                         [](const testing::TestParamInfo<int>& info) {
                           return test::StrCat("t", info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    Sweep, DbSweepTest,
    testing::Values(
        DbSweepParam{EngineType::kLeveled, AmtPolicy::kLsa, 16, 1},
        DbSweepParam{EngineType::kLeveled, AmtPolicy::kLsa, 256, 0},
        DbSweepParam{EngineType::kLeveled, AmtPolicy::kLsa, 1024, 2},
        DbSweepParam{EngineType::kAmt, AmtPolicy::kLsa, 16, 2},
        DbSweepParam{EngineType::kAmt, AmtPolicy::kLsa, 256, 1},
        DbSweepParam{EngineType::kAmt, AmtPolicy::kLsa, 1024, 0},
        DbSweepParam{EngineType::kAmt, AmtPolicy::kIam, 16, 0},
        DbSweepParam{EngineType::kAmt, AmtPolicy::kIam, 256, 2},
        DbSweepParam{EngineType::kAmt, AmtPolicy::kIam, 1024, 1}),
    [](const testing::TestParamInfo<DbSweepParam>& info) {
      return info.param.Name();
    });

}  // namespace
}  // namespace iamdb
