// Failure-injection tests: FaultInjectionEnv starts failing writes after
// a budget is exhausted.  The database must surface errors (not corrupt
// state), keep already-durable data readable, and recover fully once the
// fault clears and the store is reopened.
#include <gtest/gtest.h>

#include <set>

#include "core/db.h"
#include "core/filename.h"
#include "core/manifest.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"

namespace iamdb {
namespace {

class FaultTest : public testing::TestWithParam<EngineType> {
 protected:
  FaultTest() : faulty_(&mem_) {}

  Options MakeOptions() {
    Options options;
    options.env = &faulty_;
    options.engine = GetParam();
    options.node_capacity = 24 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 96 << 10;
    options.leveled.target_file_size = 12 << 10;
    options.table.compression = test::TestCompression();
    return options;
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  MemEnv mem_;
  FaultInjectionEnv faulty_;
};

TEST_P(FaultTest, WalWriteFailureSurfacesToCaller) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "before", "ok").ok());

  faulty_.SetWriteBudget(0);
  Status s = db->Put(WriteOptions(), "during", "fails");
  EXPECT_FALSE(s.ok());
  faulty_.Heal();
}

TEST_P(FaultTest, ScheduledSyncFaultSurfacesAndClears) {
  const uint64_t seed = test::TestSeed(11);
  SCOPED_TRACE(test::SeedTrace(seed));
  Options options = MakeOptions();
  options.sync_wal = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  // Every sync fails (one_in=1) but only once; the error must surface on
  // exactly one write, then the store keeps working.
  faulty_.SetErrorSchedule(kFaultSync, seed, /*one_in=*/1, /*max_failures=*/1);
  Status s = db->Put(WriteOptions(), "k1", "v1");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos) << s.ToString();
  faulty_.ClearErrorSchedule();
  EXPECT_TRUE(db->Put(WriteOptions(), "k2", "v2").ok());
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), "k2", &got).ok());
  EXPECT_EQ("v2", got);
}

TEST_P(FaultTest, CompactionFailureDoesNotLoseDurableData) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  std::string value(100, 'v');
  // Durable base data, fully settled.
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());

  // Now make background writes fail soon and pour more data in.  Writes
  // may start failing (stalls surface bg errors); that's fine — we only
  // require no corruption.
  faulty_.SetWriteBudget(200);
  for (int i = 5000; i < 20000; i++) {
    if (!db->Put(WriteOptions(), Key(i), value).ok()) break;
  }
  faulty_.Heal();
  db.reset();  // "crash" with a possibly failed compaction on disk

  // Reopen on the healed env: all previously durable keys must be intact.
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  for (int i = 0; i < 5000; i += 97) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &got).ok()) << Key(i);
    EXPECT_EQ(value, got);
  }
  // And the store must be fully usable again.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(100000 + i), value).ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_TRUE(db->CheckInvariants(true).ok());
}

TEST_P(FaultTest, RepeatedFaultCycles) {
  const uint64_t seed = test::TestSeed(3);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random64 rnd(seed);
  std::string value(100, 'v');
  std::map<std::string, std::string> durable;  // settled before each fault
  for (int cycle = 0; cycle < 3; cycle++) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    // Verify everything durable so far.
    for (const auto& [k, v] : durable) {
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), k, &got).ok())
          << "cycle " << cycle << " key " << k;
      ASSERT_EQ(v, got);
    }
    // Write a settled batch...
    for (int i = 0; i < 2000; i++) {
      std::string k = Key(cycle * 100000 + i);
      ASSERT_TRUE(db->Put(WriteOptions(), k, value).ok());
      durable[k] = value;
    }
    ASSERT_TRUE(db->FlushAll().ok());
    // ...then inject a fault while writing junk that may be lost.
    faulty_.SetWriteBudget(100 + static_cast<int64_t>(rnd.Next() % 200));
    for (int i = 0; i < 5000; i++) {
      if (!db->Put(WriteOptions(), Key(900000 + i), value).ok()) break;
    }
    faulty_.Heal();
    db.reset();
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultTest,
                         testing::Values(EngineType::kLeveled,
                                         EngineType::kAmt),
                         [](const testing::TestParamInfo<EngineType>& info) {
                           return info.param == EngineType::kLeveled
                                      ? "Leveled"
                                      : "Amt";
                         });

// Sends table files through `tables` (a FaultInjectionEnv) and every other
// file straight to the base env, so a sync schedule hits node outputs but
// not the WAL seal or the MANIFEST.
class TableFaultEnv : public EnvWrapper {
 public:
  TableFaultEnv(Env* base, Env* tables) : EnvWrapper(base), tables_(tables) {}

  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    return For(f)->NewWritableFile(f, r);
  }
  Status NewAppendableFile(const std::string& f,
                           std::unique_ptr<WritableFile>* r) override {
    return For(f)->NewAppendableFile(f, r);
  }
  Status RemoveFile(const std::string& f) override {
    return For(f)->RemoveFile(f);
  }

 private:
  Env* For(const std::string& fname) {
    uint64_t number;
    FileType type;
    const std::string base = fname.substr(fname.rfind('/') + 1);
    return ParseFileName(base, &number, &type) && type == FileType::kTableFile
               ? tables_
               : target();
  }

  Env* tables_;
};

struct FlushFaultParam {
  const char* name;
  EngineType engine;
  AmtPolicy policy;
};

class FlushOutputFaultTest : public testing::TestWithParam<FlushFaultParam> {
 protected:
  FlushOutputFaultTest() : faulty_(&mem_), env_(&mem_, &faulty_) {}

  Options MakeOptions() {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 24 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 96 << 10;
    options.leveled.target_file_size = 12 << 10;
    return options;
  }

  // Table files in the directory that the MANIFEST's version does not
  // reference.
  std::vector<std::string> UnreferencedTableFiles() {
    RecoveredState state;
    EXPECT_TRUE(RecoverManifest(&mem_, "/db", &state).ok());
    std::set<uint64_t> live;
    for (const auto& level : state.nodes) {
      for (const NodeEdit& node : level) live.insert(node.file_number);
    }
    std::vector<std::string> children;
    EXPECT_TRUE(mem_.GetChildren("/db", &children).ok());
    std::vector<std::string> orphans;
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile && live.count(number) == 0) {
        orphans.push_back(child);
      }
    }
    return orphans;
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  MemEnv mem_;
  FaultInjectionEnv faulty_;
  TableFaultEnv env_;
};

// A flush whose output fails to sync leaves no file behind: the failed
// node write removes its own file, not the next Open.
TEST_P(FlushOutputFaultTest, FailedOutputSyncLeavesNoFile) {
  const uint64_t seed = test::TestSeed(17);
  SCOPED_TRACE(test::SeedTrace(seed));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  const std::string value(100, 'v');
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(UnreferencedTableFiles().empty());

  // The next flush's output fails to sync (the WAL seal and the MANIFEST
  // bypass the schedule).
  for (int i = 1000; i < 1050; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  faulty_.SetErrorSchedule(kFaultSync, seed, /*one_in=*/1, /*max_failures=*/1);
  EXPECT_FALSE(db->FlushAll().ok());
  faulty_.ClearErrorSchedule();

  const std::vector<std::string> orphans = UnreferencedTableFiles();
  EXPECT_TRUE(orphans.empty()) << orphans.size() << " orphan(s), first "
                               << orphans.front();
}

INSTANTIATE_TEST_SUITE_P(
    Engines, FlushOutputFaultTest,
    testing::Values(
        FlushFaultParam{"Leveled", EngineType::kLeveled, AmtPolicy::kLsa},
        FlushFaultParam{"Lsa", EngineType::kAmt, AmtPolicy::kLsa},
        FlushFaultParam{"Iam", EngineType::kAmt, AmtPolicy::kIam}),
    [](const testing::TestParamInfo<FlushFaultParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iamdb
