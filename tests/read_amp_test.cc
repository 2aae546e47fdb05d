// Read-amplification properties (paper Sec 5.3.2):
//  * point reads cost ~1 device seek regardless of engine — Bloom filters
//    skip the sequences without the target (~0.2% false positives at 14
//    bits/key);
//  * absent-key reads cost ~0 seeks;
//  * scans cannot use Blooms: LSA pays ~0.5t seeks per multi-sequence
//    node while IAM/LSM pay at most one per level.
#include <gtest/gtest.h>

#include "core/db.h"
#include "env/mem_env.h"
#include "stats/io_stats.h"
#include "util/random.h"
#include "str_cat.h"

namespace iamdb {
namespace {

struct ReadAmpParam {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

class ReadAmpTest : public testing::TestWithParam<ReadAmpParam> {
 protected:
  void SetUp() override {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    // Tiny cache: reads actually hit the "device".
    options.block_cache_capacity = 16 << 10;
    options.amt.memory_budget_bytes = 16 << 10;
    options.leveled.max_bytes_level1 = 256 << 10;
    options.leveled.target_file_size = 32 << 10;
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());

    std::string value(100, 'v');
    Random64 rnd(1);
    for (int i = 0; i < 40000; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), Key(static_cast<int>(rnd.Next() % 60000)),
                   value)
              .ok());
      // Quiesce between memtable rotations (~500 puts apart), so every
      // flush lands on a fully drained tree and the final shape — and the
      // seek counts asserted below — is identical run to run.  With the
      // flush-priority scheduler the writer otherwise outruns merges by a
      // timing-dependent amount.
      if (i % 250 == 249) {
        ASSERT_TRUE(db_->WaitForQuiescence().ok());
      }
    }
    ASSERT_TRUE(db_->WaitForQuiescence().ok());
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  MemEnv env_;
  std::unique_ptr<DB> db_;
};

TEST_P(ReadAmpTest, PointReadsCostAboutOneSeek) {
  Random64 rnd(7);
  uint64_t seeks = 0, hits = 0;
  for (int i = 0; i < 600; i++) {
    std::string key = Key(static_cast<int>(rnd.Next() % 60000));
    OpIoScope scope;
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.ok()) {
      hits++;
      seeks += scope.context().seeks;
    }
  }
  ASSERT_GT(hits, 100u);
  double seeks_per_hit = static_cast<double>(seeks) / hits;
  // Each found read: one data-block seek (bloom skips other sequences /
  // levels).  Tiny slack for bloom false positives and boundary blocks.
  EXPECT_LT(seeks_per_hit, 1.5) << GetParam().name;
  EXPECT_GE(seeks_per_hit, 0.5) << GetParam().name;  // cache is tiny
}

TEST_P(ReadAmpTest, AbsentReadsCostNearZeroSeeks) {
  uint64_t seeks = 0;
  const int probes = 600;
  for (int i = 0; i < probes; i++) {
    OpIoScope scope;
    std::string value;
    Status s = db_->Get(ReadOptions(), test::StrCat("absent", i), &value);
    ASSERT_TRUE(s.IsNotFound());
    seeks += scope.context().seeks;
  }
  // 14-bit blooms: ~0.2% false-positive rate per sequence.
  EXPECT_LT(static_cast<double>(seeks) / probes, 0.2) << GetParam().name;
}

TEST_P(ReadAmpTest, ScanSeeksBoundedPerSequence) {
  Random64 rnd(9);
  uint64_t seeks = 0;
  const int scans = 100;
  for (int i = 0; i < scans; i++) {
    OpIoScope scope;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->Seek(Key(static_cast<int>(rnd.Next() % 60000)));
    for (int j = 0; j < 20 && iter->Valid(); j++) iter->Next();
    seeks += scope.context().seeks;
  }
  double per_scan = static_cast<double>(seeks) / scans;
  if (GetParam().policy == AmtPolicy::kLsa &&
      GetParam().engine == EngineType::kAmt) {
    // Multi-sequence nodes: every sequence of every touched node seeks.
    EXPECT_GT(per_scan, 2.0) << "LSA scans should pay for sequences";
  } else {
    // One seek per level-ish for short scans.
    EXPECT_LT(per_scan, 16.0) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ReadAmpTest,
    testing::Values(
        ReadAmpParam{EngineType::kLeveled, AmtPolicy::kLsa, "leveled"},
        ReadAmpParam{EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
        ReadAmpParam{EngineType::kAmt, AmtPolicy::kIam, "iam"}),
    [](const testing::TestParamInfo<ReadAmpParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iamdb
