// End-to-end DB tests, parameterized over all three engine configurations
// (leveled LSM baseline, LSA-tree, IAM-tree): CRUD, MVCC snapshots, scans,
// compaction-driven reorganisation, and model-checked random workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/db.h"
#include "core/db_impl.h"
#include "env/mem_env.h"
#include "util/random.h"
#include "str_cat.h"

namespace iamdb {
namespace {

enum class Config { kLeveled, kLeveledStrict, kLsa, kIam };

std::string ConfigName(Config c) {
  switch (c) {
    case Config::kLeveled: return "Leveled";
    case Config::kLeveledStrict: return "LeveledStrict";
    case Config::kLsa: return "Lsa";
    case Config::kIam: return "Iam";
  }
  return "?";
}

class DbTest : public testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    Reopen();
  }

  void TearDown() override { db_.reset(); }

  Options MakeOptions() {
    Options options;
    options.env = env_.get();
    // Tiny knobs so a few thousand keys exercise multiple levels.
    options.node_capacity = 32 << 10;         // Ct = 32KB
    options.block_cache_capacity = 1 << 20;
    options.table.block_size = 1024;
    options.amt.fanout = 4;                   // t = 4
    options.leveled.max_bytes_level1 = 128 << 10;
    options.leveled.target_file_size = 16 << 10;
    options.leveled.l0_compaction_trigger = 4;
    switch (GetParam()) {
      case Config::kLeveled:
        options.engine = EngineType::kLeveled;
        break;
      case Config::kLeveledStrict:
        options.engine = EngineType::kLeveled;
        options.leveled.strict_level_limits = true;
        options.background_threads = 2;
        break;
      case Config::kLsa:
        options.engine = EngineType::kAmt;
        options.amt.policy = AmtPolicy::kLsa;
        break;
      case Config::kIam:
        options.engine = EngineType::kAmt;
        options.amt.policy = AmtPolicy::kIam;
        options.amt.k = 3;
        break;
    }
    return options;
  }

  void Reopen() {
    db_.reset();
    Options options = MakeOptions();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }
  Status Delete(const std::string& k) {
    return db_->Delete(WriteOptions(), k);
  }
  std::string Get(const std::string& k, const Snapshot* snapshot = nullptr) {
    ReadOptions options;
    options.snapshot = snapshot;
    std::string value;
    Status s = db_->Get(options, k, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return value;
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  // All live user keys+values via a full scan.
  std::map<std::string, std::string> Dump() {
    std::map<std::string, std::string> result;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      result[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    return result;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DB> db_;
};

TEST_P(DbTest, EmptyDb) {
  EXPECT_EQ("NOT_FOUND", Get("anything"));
  EXPECT_TRUE(Dump().empty());
}

TEST_P(DbTest, PutGetDelete) {
  ASSERT_TRUE(Put("k1", "v1").ok());
  EXPECT_EQ("v1", Get("k1"));
  ASSERT_TRUE(Put("k1", "v2").ok());
  EXPECT_EQ("v2", Get("k1"));
  ASSERT_TRUE(Delete("k1").ok());
  EXPECT_EQ("NOT_FOUND", Get("k1"));
}

TEST_P(DbTest, EmptyKeyAndValue) {
  ASSERT_TRUE(Put("", "empty-key-value").ok());
  EXPECT_EQ("empty-key-value", Get(""));
  ASSERT_TRUE(Put("k", "").ok());
  EXPECT_EQ("", Get("k"));
}

TEST_P(DbTest, BinaryKeysAndValues) {
  // Keys with embedded NULs and 0xFF bytes exercise every encoding layer
  // (varint framing, prefix compression, separators, range bounds).
  std::vector<std::string> keys = {
      std::string("\x00", 1),
      std::string("\x00\x00nul-prefixed", 15),
      std::string("a\x00z", 3),
      std::string("a\xff", 2),
      std::string("\xff", 1),
      std::string("\xff\xff\xff", 3),
      std::string("mixed\x00\xff\x01", 8),
  };
  std::string binary_value;
  for (int i = 0; i < 256; i++) binary_value.push_back(static_cast<char>(i));

  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(Put(keys[i], binary_value + std::to_string(i)).ok());
  }
  // Push through flush + compaction so the keys hit the table layer.
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(Put(Key(i), std::string(64, 'f')).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(binary_value + std::to_string(i), Get(keys[i])) << i;
  }
  // Ordered scan must place them correctly (bytewise order).
  std::vector<std::string> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->Seek(std::string("\x00", 1));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(sorted_keys[0], iter->key().ToString());
  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(sorted_keys.back(), iter->key().ToString());
}

TEST_P(DbTest, LargeValuesSurviveFlush) {
  std::string big(100000, 'x');
  ASSERT_TRUE(Put("big", big).ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  EXPECT_EQ(big, Get("big"));
}

TEST_P(DbTest, WriteBatchAtomicity) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_EQ("3", Get("c"));
}

TEST_P(DbTest, ManyKeysThroughCompactions) {
  const int N = 20000;
  for (int i = 0; i < N; i++) {
    ASSERT_TRUE(Put(Key(i), test::StrCat("value", i)).ok());
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  // Spot-check point reads after the tree reorganised.
  for (int i = 0; i < N; i += 997) {
    EXPECT_EQ(test::StrCat("value", i), Get(Key(i))) << Key(i);
  }
  EXPECT_EQ("value0", Get(Key(0)));
  EXPECT_EQ(test::StrCat("value", N - 1), Get(Key(N - 1)));
}

TEST_P(DbTest, RandomInsertOrderFullScan) {
  Random rnd(301);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 8000; i++) {
    std::string k = Key(rnd.Uniform(4000));
    std::string v = test::StrCat("v", rnd.Next());
    ASSERT_TRUE(Put(k, v).ok());
    model[k] = v;
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_EQ(model, Dump());
}

TEST_P(DbTest, DeletesEventuallyReclaimed) {
  const int N = 4000;
  for (int i = 0; i < N; i++) {
    ASSERT_TRUE(Put(Key(i), std::string(100, 'v')).ok());
  }
  for (int i = 0; i < N; i++) {
    ASSERT_TRUE(Delete(Key(i)).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  EXPECT_TRUE(Dump().empty());
  for (int i = 0; i < N; i += 371) {
    EXPECT_EQ("NOT_FOUND", Get(Key(i)));
  }
}

TEST_P(DbTest, OverwritesKeepLatestOnly) {
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(Put(Key(i), test::StrCat("round", round)).ok());
    }
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  auto dump = Dump();
  EXPECT_EQ(1000u, dump.size());
  for (const auto& [k, v] : dump) {
    EXPECT_EQ("round9", v) << k;
  }
}

TEST_P(DbTest, SnapshotSeesOldState) {
  ASSERT_TRUE(Put("k", "before").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "after").ok());
  ASSERT_TRUE(Delete("k2").ok());
  EXPECT_EQ("before", Get("k", snap));
  EXPECT_EQ("after", Get("k"));
  db_->ReleaseSnapshot(snap);
}

TEST_P(DbTest, SnapshotSurvivesCompaction) {
  ASSERT_TRUE(Put("stable", "old").ok());
  const Snapshot* snap = db_->GetSnapshot();
  // Bury the old version under thousands of writes + compactions.
  for (int i = 0; i < 10000; i++) {
    ASSERT_TRUE(Put(Key(i % 2000), std::string(64, 'x')).ok());
  }
  ASSERT_TRUE(Put("stable", "new").ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  EXPECT_EQ("old", Get("stable", snap));
  EXPECT_EQ("new", Get("stable"));
  db_->ReleaseSnapshot(snap);
}

TEST_P(DbTest, SnapshotScanIsolation) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put(Key(i), "v1").ok());
  }
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 50; i < 150; i++) {
    ASSERT_TRUE(Put(Key(i), "v2").ok());
  }
  ReadOptions options;
  options.snapshot = snap;
  std::unique_ptr<Iterator> iter(db_->NewIterator(options));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    EXPECT_EQ("v1", iter->value().ToString());
  }
  EXPECT_EQ(100, count);
  db_->ReleaseSnapshot(snap);
}

TEST_P(DbTest, IteratorSeekSemantics) {
  for (int i = 0; i < 1000; i += 2) {  // even keys
    ASSERT_TRUE(Put(Key(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));

  iter->Seek(Key(500));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(500), iter->key().ToString());

  iter->Seek(Key(501));  // odd: next even key
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(502), iter->key().ToString());

  iter->Seek(Key(9999));
  EXPECT_FALSE(iter->Valid());

  iter->Seek("");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(0), iter->key().ToString());
}

TEST_P(DbTest, ReverseIteration) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(Put(Key(i), std::to_string(i)).ok());
  }
  // Delete a stripe so reverse must hop tombstones.
  for (int i = 1000; i < 1100; i++) {
    ASSERT_TRUE(Delete(Key(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(2999), iter->key().ToString());

  int count = 0;
  int expect = 2999;
  for (; iter->Valid(); iter->Prev(), count++) {
    EXPECT_EQ(Key(expect), iter->key().ToString());
    expect--;
    if (expect == 1099) expect = 999;  // deleted stripe skipped
  }
  EXPECT_EQ(2900, count);
  EXPECT_TRUE(iter->status().ok());

  // Direction switches mid-stream.
  iter->Seek(Key(500));
  ASSERT_TRUE(iter->Valid());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(499), iter->key().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(Key(500), iter->key().ToString());
}

TEST_P(DbTest, RangeScanAfterMixedWorkload) {
  Random rnd(17);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 10000; i++) {
    std::string k = Key(rnd.Uniform(3000));
    if (rnd.OneIn(4)) {
      ASSERT_TRUE(Delete(k).ok());
      model.erase(k);
    } else {
      std::string v = std::to_string(i);
      ASSERT_TRUE(Put(k, v).ok());
      model[k] = v;
    }
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  // Bounded range scans against the model.
  for (int trial = 0; trial < 20; trial++) {
    std::string start = Key(rnd.Uniform(3000));
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->Seek(start);
    auto it = model.lower_bound(start);
    for (int step = 0; step < 50; step++) {
      if (it == model.end()) {
        EXPECT_FALSE(iter->Valid());
        break;
      }
      ASSERT_TRUE(iter->Valid()) << "trial " << trial << " step " << step;
      EXPECT_EQ(it->first, iter->key().ToString());
      EXPECT_EQ(it->second, iter->value().ToString());
      ++it;
      iter->Next();
    }
  }
}

TEST_P(DbTest, ReopenPreservesData) {
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(Put(Key(i), test::StrCat("persisted", i)).ok());
  }
  auto before = Dump();
  Reopen();
  EXPECT_EQ(before, Dump());
  EXPECT_EQ("persisted123", Get(Key(123)));
}

TEST_P(DbTest, ReopenWithUnflushedWal) {
  // Small write set that stays in the memtable (no flush), then reopen:
  // recovery must come from the WAL.
  ASSERT_TRUE(Put("wal1", "a").ok());
  ASSERT_TRUE(Put("wal2", "b").ok());
  ASSERT_TRUE(Delete("wal1").ok());
  Reopen();
  EXPECT_EQ("NOT_FOUND", Get("wal1"));
  EXPECT_EQ("b", Get("wal2"));
}

TEST_P(DbTest, RepeatedReopen) {
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(
          Put(Key(i + round * 500), test::StrCat("r", round)).ok());
    }
    Reopen();
  }
  EXPECT_EQ(2500u, Dump().size());
  EXPECT_EQ("r0", Get(Key(0)));
  EXPECT_EQ("r4", Get(Key(2400)));
}

TEST_P(DbTest, GetStatsSane) {
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(Put(Key(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  DbStats stats = db_->GetStats();
  EXPECT_GT(stats.user_bytes, 5000u * 100u);
  EXPECT_GT(stats.space_used_bytes, 0u);
  EXPECT_GE(stats.total_write_amp, 0.9);  // every byte written at least ~once
  EXPECT_FALSE(stats.level_bytes.empty());
}

TEST_P(DbTest, GetPropertyReportsState) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(Put(Key(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  std::string value;
  ASSERT_TRUE(db_->GetProperty("iamdb.stats", &value));
  EXPECT_NE(std::string::npos, value.find("total_wamp"));
  EXPECT_NE(std::string::npos, value.find("space="));

  ASSERT_TRUE(db_->GetProperty("iamdb.levels", &value));
  EXPECT_NE(std::string::npos, value.find("nodes"));

  ASSERT_TRUE(db_->GetProperty("iamdb.approximate-memory-usage", &value));
  EXPECT_GT(std::stoull(value), 0u);

  EXPECT_FALSE(db_->GetProperty("iamdb.unknown", &value));
}

TEST_P(DbTest, OpenRejectsInvalidOptions) {
  auto expect_invalid = [&](Options options) {
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, "/invalid", &db);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  };
  Options base = MakeOptions();

  Options o = base;
  o.env = nullptr;
  expect_invalid(o);

  o = base;
  o.node_capacity = 16;
  expect_invalid(o);

  o = base;
  o.table.block_size = 7;
  expect_invalid(o);

  o = base;
  o.background_threads = 0;
  expect_invalid(o);

  if (base.engine == EngineType::kAmt) {
    o = base;
    o.amt.fanout = 1;
    expect_invalid(o);

    o = base;
    o.amt.k = 0;
    expect_invalid(o);
  } else {
    o = base;
    o.leveled.level_multiplier = 1;
    expect_invalid(o);
  }
}

TEST_P(DbTest, DestroyRemovesFiles) {
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  db_.reset();
  Options options = MakeOptions();
  ASSERT_TRUE(DestroyDB("/db", options).ok());
  EXPECT_EQ(0u, env_->TotalBytes());
}

TEST_P(DbTest, RandomizedModelCheck) {
  Random rnd(99);
  std::map<std::string, std::string> model;
  const Snapshot* snap = nullptr;
  std::map<std::string, std::string> snap_model;

  for (int i = 0; i < 30000; i++) {
    int op = rnd.Uniform(100);
    std::string k = Key(rnd.Uniform(2000));
    if (op < 60) {
      std::string v = test::StrCat("v", i);
      ASSERT_TRUE(Put(k, v).ok());
      model[k] = v;
    } else if (op < 85) {
      ASSERT_TRUE(Delete(k).ok());
      model.erase(k);
    } else if (op < 90 && snap == nullptr) {
      snap = db_->GetSnapshot();
      snap_model = model;
    } else if (op < 95 && snap != nullptr) {
      // Verify a random key through the snapshot.
      std::string probe = Key(rnd.Uniform(2000));
      auto it = snap_model.find(probe);
      std::string got = Get(probe, snap);
      if (it == snap_model.end()) {
        EXPECT_EQ("NOT_FOUND", got) << probe;
      } else {
        EXPECT_EQ(it->second, got) << probe;
      }
      if (rnd.OneIn(4)) {
        db_->ReleaseSnapshot(snap);
        snap = nullptr;
      }
    } else {
      std::string probe = Key(rnd.Uniform(2000));
      auto it = model.find(probe);
      std::string got = Get(probe);
      if (it == model.end()) {
        EXPECT_EQ("NOT_FOUND", got) << probe;
      } else {
        EXPECT_EQ(it->second, got) << probe;
      }
    }
  }
  if (snap != nullptr) db_->ReleaseSnapshot(snap);
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_EQ(model, Dump());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DbTest,
                         testing::Values(Config::kLeveled,
                                         Config::kLeveledStrict, Config::kLsa,
                                         Config::kIam),
                         [](const testing::TestParamInfo<Config>& info) {
                           return ConfigName(info.param);
                         });

}  // namespace
}  // namespace iamdb
