// Concurrency tests: concurrent readers during writes and compactions,
// iterator stability across tree reorganisation, snapshot consistency from
// other threads, multi-threaded writers through the group-commit path, and
// the lock-free read-path publication protocol (snapshot monotonicity and
// freshness under readers vs writers vs compaction).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/db.h"
#include "core/snapshot.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"
#include "str_cat.h"

namespace iamdb {
namespace {

// All three engines of the paper: the leveled baseline, the LSA-tree and
// the IAM-tree (AMT engine under its two policies).
struct EngineConfig {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

class ConcurrencyTest : public testing::TestWithParam<EngineConfig> {
 protected:
  void SetUp() override {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 24 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.background_threads = 2;
    options.leveled.max_bytes_level1 = 96 << 10;
    options.leveled.target_file_size = 12 << 10;
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  MemEnv env_;
  std::unique_ptr<DB> db_;
};

TEST_P(ConcurrencyTest, ReadersDuringHeavyWrites) {
  std::atomic<bool> done{false};
  std::atomic<int> read_errors{0};
  std::atomic<int> writer_progress{0};

  // Keys follow the invariant: key i always maps to a value ending in i.
  std::thread writer([&] {
    std::string value(100, 'v');
    for (int i = 0; i < 30000; i++) {
      std::string v = test::StrCat("val-", i % 3000);
      Status s = db_->Put(WriteOptions(), Key(i % 3000), v);
      if (!s.ok()) break;
      writer_progress.store(i, std::memory_order_relaxed);
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      Random64 rnd(t + 1);
      while (!done.load(std::memory_order_acquire)) {
        int k = static_cast<int>(rnd.Next() % 3000);
        std::string value;
        Status s = db_->Get(ReadOptions(), Key(k), &value);
        if (s.ok()) {
          // Value must always be internally consistent with its key.
          if (value != test::StrCat("val-", k)) {
            read_errors.fetch_add(1);
          }
        } else if (!s.IsNotFound()) {
          read_errors.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(0, read_errors.load());
  EXPECT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_TRUE(db_->CheckInvariants(true).ok());
}

TEST_P(ConcurrencyTest, IteratorStableWhileTreeReorganises) {
  std::string value(100, 'v');
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "stable").ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  // Open an iterator, then churn the tree hard; the iterator's view is
  // pinned by its version/snapshot.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i % 5000), "churn").ok());
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    ASSERT_EQ("stable", iter->value().ToString())
        << iter->key().ToString();
  }
  EXPECT_EQ(5000, count);
  EXPECT_TRUE(iter->status().ok());
}

TEST_P(ConcurrencyTest, ParallelWritersAllLand) {
  const int kThreads = 4, kPerThread = 4000;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      std::string value(64, static_cast<char>('a' + t));
      for (int i = 0; i < kPerThread; i++) {
        if (!db_->Put(WriteOptions(), Key(t * kPerThread + i), value).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(0, failures.load());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) count++;
  EXPECT_EQ(kThreads * kPerThread, count);
}

TEST_P(ConcurrencyTest, SnapshotConsistentFromOtherThread) {
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "epoch1").ok());
  }
  const Snapshot* snap = db_->GetSnapshot();

  std::thread churner([&] {
    for (int round = 0; round < 10; round++) {
      for (int i = 0; i < 1000; i++) {
        db_->Put(WriteOptions(), Key(i), "epoch2");
      }
    }
  });

  // Concurrently read through the snapshot: must always see epoch1.
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  Random64 rnd(5);
  for (int probe = 0; probe < 3000; probe++) {
    std::string value;
    ASSERT_TRUE(
        db_->Get(at_snap, Key(static_cast<int>(rnd.Next() % 1000)), &value)
            .ok());
    ASSERT_EQ("epoch1", value);
  }
  churner.join();
  db_->ReleaseSnapshot(snap);
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(0), &value).ok());
  EXPECT_EQ("epoch2", value);
}

TEST_P(ConcurrencyTest, MixedScanAndWriteStorm) {
  std::atomic<bool> done{false};
  std::atomic<int> scan_errors{0};

  std::thread writer([&] {
    Random64 rnd(11);
    for (int i = 0; i < 20000; i++) {
      std::string k = Key(static_cast<int>(rnd.Next() % 4000));
      if (rnd.Next() % 4 == 0) {
        db_->Delete(WriteOptions(), k);
      } else {
        db_->Put(WriteOptions(), k, std::string(80, 'w'));
      }
    }
    done = true;
  });

  std::thread scanner([&] {
    Random64 rnd(13);
    while (!done.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
      std::string prev;
      int steps = 0;
      for (iter->Seek(Key(static_cast<int>(rnd.Next() % 4000)));
           iter->Valid() && steps < 200; iter->Next(), steps++) {
        std::string cur = iter->key().ToString();
        if (!prev.empty() && prev >= cur) scan_errors.fetch_add(1);
        prev = cur;
      }
      if (!iter->status().ok()) scan_errors.fetch_add(1);
    }
  });

  writer.join();
  scanner.join();
  EXPECT_EQ(0, scan_errors.load());
  EXPECT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_TRUE(db_->CheckInvariants(true).ok());
}

// Readers vs writers vs compaction: the regression test for the lock-free
// read path.  Asserts two properties of the publication protocol:
//   (1) snapshot monotonicity — a reader that observed sequence S never
//       subsequently observes a view with last_sequence < S, and
//   (2) freshness — Get never returns a value older than the last write
//       acknowledged before the read began, and never a torn value.
// Writer volume against a 24KB memtable keeps flushes and compactions
// running throughout.
TEST_P(ConcurrencyTest, SnapshotMonotonicityUnderCompaction) {
  const uint64_t seed = test::TestSeed(0xC0FFEE);
  SCOPED_TRACE(test::SeedTrace(seed));

  constexpr int kKeys = 512;
  constexpr int kWriterOps = 15000;
  constexpr int kReaders = 3;

  // floor[k] = newest counter whose Put has been acknowledged for key k.
  // A read that starts after the store must observe a counter >= floor.
  std::array<std::atomic<int64_t>, kKeys> floor;
  for (auto& f : floor) f.store(-1, std::memory_order_relaxed);

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};

  std::thread writer([&] {
    Random64 rnd(seed);
    for (int i = 0; i < kWriterOps && errors.load() == 0; i++) {
      const int k = static_cast<int>(rnd.Next() % kKeys);
      const std::string value =
          Key(k) + "#" + std::to_string(i) + "#" + std::string(60, 'p');
      if (!db_->Put(WriteOptions(), Key(k), value).ok()) {
        errors.fetch_add(1);
        break;
      }
      floor[k].store(i, std::memory_order_release);
      // Churn a disjoint range with deletes to keep compaction busy
      // dropping tombstones while the monotone range is probed.
      if (i % 7 == 0) {
        db_->Delete(WriteOptions(), Key(kKeys + static_cast<int>(
                                            rnd.Next() % kKeys)));
      } else if (i % 7 == 3) {
        db_->Put(WriteOptions(),
                 Key(kKeys + static_cast<int>(rnd.Next() % kKeys)),
                 std::string(80, 'c'));
      }
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; t++) {
    readers.emplace_back([&, t] {
      Random64 rnd(seed + 1 + t);
      SequenceNumber max_seen_sequence = 0;
      while (!done.load(std::memory_order_acquire)) {
        // (1) The observed last_sequence never moves backwards.
        const Snapshot* snap = db_->GetSnapshot();
        const SequenceNumber seq =
            static_cast<const SnapshotImpl*>(snap)->sequence();
        if (seq < max_seen_sequence) {
          ADD_FAILURE() << "sequence went backwards: " << seq << " < "
                        << max_seen_sequence;
          errors.fetch_add(1);
        }
        max_seen_sequence = seq;

        // (2) Freshness + integrity: sample the acknowledged floor BEFORE
        // the read; the value must parse, match its key, and carry a
        // counter at least as new as the floor.
        const int k = static_cast<int>(rnd.Next() % kKeys);
        const int64_t f = floor[k].load(std::memory_order_acquire);
        std::string value;
        Status s = db_->Get(ReadOptions(), Key(k), &value);
        if (s.ok()) {
          const std::string prefix = Key(k) + "#";
          int64_t counter = -1;
          if (value.rfind(prefix, 0) != 0 ||
              (counter = std::strtoll(value.c_str() + prefix.size(),
                                      nullptr, 10)) < f) {
            ADD_FAILURE() << "stale or torn value for " << Key(k)
                          << ": floor=" << f << " got \"" << value << "\"";
            errors.fetch_add(1);
          }
        } else if (!s.IsNotFound() || f >= 0) {
          // A key whose Put was acknowledged can never be NotFound (the
          // monotone range is never deleted).
          ADD_FAILURE() << "get(" << Key(k) << ") failed: " << s.ToString()
                        << " floor=" << f;
          errors.fetch_add(1);
        }

        // A snapshot read must stay pinned at or below the snapshot even
        // while compaction rewrites the tree underneath it.
        std::string pinned;
        ReadOptions at_snap;
        at_snap.snapshot = snap;
        Status ps = db_->Get(at_snap, Key(k), &pinned);
        if (ps.ok()) {
          const std::string prefix = Key(k) + "#";
          if (pinned.rfind(prefix, 0) != 0) {
            ADD_FAILURE() << "torn snapshot value for " << Key(k);
            errors.fetch_add(1);
          }
        } else if (!ps.IsNotFound()) {
          ADD_FAILURE() << "snapshot get failed: " << ps.ToString();
          errors.fetch_add(1);
        }
        db_->ReleaseSnapshot(snap);
        if (errors.load() != 0) break;
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(0, errors.load());
  EXPECT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_TRUE(db_->CheckInvariants(true).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ConcurrencyTest,
    testing::Values(
        EngineConfig{EngineType::kLeveled, AmtPolicy::kIam, "Leveled"},
        EngineConfig{EngineType::kAmt, AmtPolicy::kLsa, "AmtLsa"},
        EngineConfig{EngineType::kAmt, AmtPolicy::kIam, "AmtIam"}),
    [](const testing::TestParamInfo<EngineConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iamdb
