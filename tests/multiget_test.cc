// Native batched MultiGet: byte-equivalence with looped Gets at one
// snapshot across all three engines, device-read coalescing on a cold
// cache (the batch must issue strictly fewer reads than the loop), and a
// race cell exercising MultiGet against concurrent writes, flushes and
// compactions (run under TSan in CI).  Also the no-I/O read tier
// (ReadOptions::cache_only) behind both Get and MultiGet: Incomplete on a
// cold cache without touching the device, byte-equal to full reads on a
// warm one.  And a flipped bit in a data block is Corruption for Get and
// MultiGet alike once checksums are verified.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "stats/io_stats.h"
#include "util/random.h"

namespace iamdb {
namespace {

// Counts random-access opens, i.e. table opens: the DB opens a table file
// only when a reader is first needed.
class TableOpenCountingEnv final : public EnvWrapper {
 public:
  explicit TableOpenCountingEnv(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    opens_.fetch_add(1, std::memory_order_relaxed);
    return EnvWrapper::NewRandomAccessFile(fname, result);
  }

  uint64_t opens() const { return opens_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> opens_{0};
};

struct MultiGetParam {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

class MultiGetTest : public testing::TestWithParam<MultiGetParam> {
 protected:
  Options MakeOptions() {
    Options options;
    options.env = &open_counter_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.table.compression = compression_;
    options.amt.fanout = 4;
    // Tiny cache by default so block reads actually hit the "device".
    options.block_cache_capacity = block_cache_bytes_;
    options.compressed_cache_capacity = compressed_cache_bytes_;
    options.amt.memory_budget_bytes = 16 << 10;
    options.leveled.max_bytes_level1 = 256 << 10;
    options.leveled.target_file_size = 32 << 10;
    return options;
  }

  void Open() { ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db_).ok()); }

  // Close + reopen: a fresh DBImpl gets fresh (cold) cache tiers while the
  // MemEnv keeps the files.
  void Reopen() {
    db_.reset();
    Open();
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  std::string Value(int i, int version) {
    return "val-" + std::to_string(i) + "-v" + std::to_string(version) +
           std::string(80, 'x');
  }

  // Seeded overwrites and deletes (1 in 7) over [0, key_space).
  void Mutate(Random64* rnd, int key_space, int ops, int version) {
    for (int i = 0; i < ops; i++) {
      int k = static_cast<int>(rnd->Next() % key_space);
      if (rnd->Next() % 7 == 0) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), Key(k)).ok());
      } else {
        ASSERT_TRUE(db_->Put(WriteOptions(), Key(k), Value(k, version)).ok());
      }
      if (i % 500 == 499) {
        ASSERT_TRUE(db_->WaitForQuiescence().ok());
      }
    }
  }

  // Reference semantics: MultiGet must match Get key for key.
  void ExpectMatchesLoopedGets(const ReadOptions& options,
                               const std::vector<std::string>& keys) {
    std::vector<Slice> slices;
    slices.reserve(keys.size());
    for (const std::string& k : keys) slices.emplace_back(k);
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    db_->MultiGet(options, slices.size(), slices.data(), values.data(),
                  statuses.data());

    for (size_t i = 0; i < keys.size(); i++) {
      std::string expect_value;
      Status expect = db_->Get(options, keys[i], &expect_value);
      EXPECT_EQ(expect.ok(), statuses[i].ok()) << keys[i];
      EXPECT_EQ(expect.IsNotFound(), statuses[i].IsNotFound()) << keys[i];
      if (expect.ok()) EXPECT_EQ(expect_value, values[i]) << keys[i];
    }
  }

  MemEnv env_;
  TableOpenCountingEnv open_counter_{&env_};
  uint64_t block_cache_bytes_ = 16 << 10;
  uint64_t compressed_cache_bytes_ = 0;
  CompressionType compression_ = CompressionType::kNone;
  std::unique_ptr<DB> db_;
};

// Seeded workload with overwrites and deletes; batches mix hits, misses,
// deleted keys and duplicates, read both at the committed state and at a
// snapshot pinned before a second wave of overwrites.
TEST_P(MultiGetTest, EquivalentToLoopedGets) {
  Open();
  Random64 rnd(42);
  const int kKeySpace = 6000;

  Mutate(&rnd, kKeySpace, 8000, 1);
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  const Snapshot* snap = db_->GetSnapshot();

  // Second wave: overwrites and deletes the snapshot must not observe,
  // ending with unflushed keys so the batch spans mem + disk levels.
  Mutate(&rnd, kKeySpace, 6000, 2);
  for (int i = 0; i < 200; i++) {
    int k = static_cast<int>(rnd.Next() % kKeySpace);
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(k), Value(k, 3)).ok());
  }

  std::vector<std::string> batch;
  for (int i = 0; i < 192; i++) {
    batch.push_back(Key(static_cast<int>(rnd.Next() % kKeySpace)));
  }
  batch.push_back("absent-before-everything");
  batch.push_back("zzz-absent-after-everything");
  // Duplicate keys must each get the full answer.
  batch.push_back(batch[0]);
  batch.push_back(batch[1]);

  ExpectMatchesLoopedGets(ReadOptions(), batch);

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  ExpectMatchesLoopedGets(at_snap, batch);

  db_->ReleaseSnapshot(snap);
}

// The acceptance metric: a cold-cache batch of 64 adjacent keys must reach
// the device with strictly fewer read ops than 64 looped Gets over the
// same keys — adjacent data blocks coalesce into vectored runs that
// CountingEnv charges as one read each.
TEST_P(MultiGetTest, ColdCacheBatchIssuesFewerDeviceReads) {
  Open();
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    if (i % 500 == 499) ASSERT_TRUE(db_->WaitForQuiescence().ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 10000; i < 10064; i++) keys.push_back(Key(i));
  for (const std::string& k : keys) slices.emplace_back(k);

  Reopen();
  uint64_t multiget_reads = 0;
  {
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    OpIoScope scope;
    db_->MultiGet(ReadOptions(), slices.size(), slices.data(), values.data(),
                  statuses.data());
    multiget_reads = scope.context().seeks;
    for (size_t i = 0; i < keys.size(); i++) {
      ASSERT_TRUE(statuses[i].ok()) << keys[i];
      EXPECT_EQ(Value(10000 + static_cast<int>(i), 1), values[i]);
    }
  }

  // Gauges live on the instance that served the batch (reopen resets them).
  DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, keys.size());

  Reopen();
  uint64_t looped_reads = 0;
  for (const std::string& k : keys) {
    std::string value;
    OpIoScope scope;
    ASSERT_TRUE(db_->Get(ReadOptions(), k, &value).ok()) << k;
    looped_reads += scope.context().seeks;
  }

  EXPECT_LT(multiget_reads, looped_reads) << GetParam().name;
}

// Coalescing gauges flow from the table layer to DbStats.
TEST_P(MultiGetTest, CoalescingGaugesRecorded) {
  Open();
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    if (i % 500 == 499) ASSERT_TRUE(db_->WaitForQuiescence().ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  Reopen();

  // Gets take the same path as a batch of one but are not batches: the
  // exact counts below include none of them.  Their keys lie far from the
  // batch's, so they warm none of its blocks.
  for (int i = 100; i < 110; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok());
  }
  std::string absent;
  ASSERT_TRUE(db_->Get(ReadOptions(), "zzz-absent", &absent).IsNotFound());
  DbStats before = db_->GetStats();
  EXPECT_EQ(before.multiget_batches, 0u);
  EXPECT_EQ(before.multiget_keys, 0u);
  EXPECT_EQ(before.multiget_coalesced_reads, 0u);
  EXPECT_EQ(before.multiget_coalesced_blocks, 0u);

  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 5000; i < 5064; i++) keys.push_back(Key(i));
  for (const std::string& k : keys) slices.emplace_back(k);
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  db_->MultiGet(ReadOptions(), slices.size(), slices.data(), values.data(),
                statuses.data());

  DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, keys.size());
  // 64 adjacent keys over ~1KB blocks cannot all live in one block: at
  // least one vectored read covered 2+ adjacent blocks.
  EXPECT_GT(stats.multiget_coalesced_reads, 0u) << GetParam().name;
  EXPECT_GE(stats.multiget_coalesced_blocks,
            2 * stats.multiget_coalesced_reads);
}

// A flipped bit in a data block is Corruption for Get and MultiGet alike
// once checksums are verified and no cache tier holds a clean copy; keys in
// other blocks still read normally.
TEST_P(MultiGetTest, CorruptDataBlockIsCorruptionForGetAndMultiGet) {
  block_cache_bytes_ = 0;
  Open();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  db_.reset();

  // Key(0) is the smallest key, so it sits in the first data block of the
  // table that holds it; flip a bit there in every table.
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  int tables = 0;
  for (const std::string& name : children) {
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".mst") != 0) {
      continue;
    }
    const std::string path = "/db/" + name;
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, path, &contents).ok());
    ASSERT_GT(contents.size(), 10u);
    contents[10] ^= 0x1;
    ASSERT_TRUE(WriteStringToFile(&env_, contents, path, false).ok());
    tables++;
  }
  ASSERT_GT(tables, 0);
  Open();

  ReadOptions verify;
  verify.verify_checksums = true;
  std::string value;
  Status s = db_->Get(verify, Key(0), &value);
  EXPECT_TRUE(s.IsCorruption()) << GetParam().name << ": " << s.ToString();

  const std::string corrupt_key = Key(0);
  const std::string far_key = Key(99);
  std::vector<Slice> keys = {Slice(corrupt_key), Slice(far_key)};
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  db_->MultiGet(verify, keys.size(), keys.data(), values.data(),
                statuses.data());
  EXPECT_TRUE(statuses[0].IsCorruption()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(Value(99, 1), values[1]);
}

// Race cell (TSan): MultiGet batches run against a writer that forces
// memtable rotations, flushes and compactions.  Every returned value must
// be a well-formed version of its key — a torn read, use-after-free of a
// retired memtable, or a double cache insert shows up here.
TEST_P(MultiGetTest, RacesWithFlushAndCompaction) {
  Open();
  const int kKeySpace = 2000;
  for (int i = 0; i < kKeySpace; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 0)).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::mutex diag_mu;
  std::string diag;

  std::thread writer([&] {
    Random64 rnd(11);
    for (int version = 1; version <= 8 && errors.load() == 0; version++) {
      for (int i = 0; i < kKeySpace; i++) {
        int k = static_cast<int>(rnd.Next() % kKeySpace);
        if (!db_->Put(WriteOptions(), Key(k), Value(k, version)).ok()) {
          errors.fetch_add(1);
          break;
        }
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; t++) {
    readers.emplace_back([&, t] {
      Random64 rnd(100 + t);
      while (!done.load()) {
        std::vector<std::string> keys;
        std::vector<Slice> slices;
        for (int i = 0; i < 48; i++) {
          keys.push_back(Key(static_cast<int>(rnd.Next() % kKeySpace)));
        }
        for (const std::string& k : keys) slices.emplace_back(k);
        std::vector<std::string> values(keys.size());
        std::vector<Status> statuses(keys.size());
        db_->MultiGet(ReadOptions(), slices.size(), slices.data(),
                      values.data(), statuses.data());
        for (size_t i = 0; i < keys.size(); i++) {
          // Every key was loaded before the race, so it must be found with
          // a value stamped for exactly that key: "val-<n>-v<version>x...".
          bool ok = statuses[i].ok();
          if (ok) {
            size_t dash = values[i].find("-v", 4);
            ok = values[i].compare(0, 4, "val-") == 0 &&
                 dash != std::string::npos &&
                 Key(atoi(values[i].substr(4, dash - 4).c_str())) == keys[i];
          }
          if (!ok) {
            errors.fetch_add(1);
            std::string retry_value;
            Status retry = db_->Get(ReadOptions(), keys[i], &retry_value);
            std::lock_guard<std::mutex> l(diag_mu);
            if (diag.empty()) {
              diag = "key=" + keys[i] + " status=" +
                     statuses[i].ToString() + " value=" +
                     values[i].substr(0, 40) +
                     " retry_status=" + retry.ToString() +
                     " retry_value=" + retry_value.substr(0, 40);
            }
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& r : readers) r.join();
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_EQ(errors.load(), 0) << diag;
}

// No-I/O tier, cold: after a reopen no table is open and no block cached,
// so a cache-only lookup of any on-disk key is Incomplete — and neither
// Get nor MultiGet reads the device or opens a table to find that out.
// Checked twice: before any table is open, and with every table open but
// no block cached.
TEST_P(MultiGetTest, CacheOnlyColdReadsTouchNoDevice) {
  Open();
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    if (i % 500 == 499) {
      ASSERT_TRUE(db_->WaitForQuiescence().ok());
    }
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  Reopen();
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 64; i++) keys.push_back(Key(i * 61 % 4000));
  for (const std::string& k : keys) slices.emplace_back(k);
  ReadOptions cache_only;
  cache_only.cache_only = true;

  auto expect_incomplete_without_io = [&] {
    OpIoScope scope;
    for (const std::string& k : keys) {
      std::string value;
      Status s = db_->Get(cache_only, k, &value);
      EXPECT_TRUE(s.IsIncomplete()) << k << ": " << s.ToString();
    }
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    db_->MultiGet(cache_only, slices.size(), slices.data(), values.data(),
                  statuses.data());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(statuses[i].IsIncomplete())
          << keys[i] << ": " << statuses[i].ToString();
    }
    EXPECT_EQ(0u, scope.context().seeks) << GetParam().name;
    EXPECT_EQ(0u, scope.context().bytes_read) << GetParam().name;
  };

  // No table open yet.
  const uint64_t opens_before = open_counter_.opens();
  expect_incomplete_without_io();
  EXPECT_EQ(opens_before, open_counter_.opens()) << GetParam().name;

  // Every table open, no block cached: a scan that does not fill the cache
  // opens them all, so the lookups now stop at the data block instead.
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::unique_ptr<Iterator> it(db_->NewIterator(no_fill));
  int scanned = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) scanned++;
  ASSERT_TRUE(it->status().ok());
  it.reset();
  EXPECT_EQ(4000, scanned);
  const uint64_t opens_after_scan = open_counter_.opens();
  EXPECT_GT(opens_after_scan, opens_before);
  expect_incomplete_without_io();
  EXPECT_EQ(opens_after_scan, open_counter_.opens()) << GetParam().name;

  // The full read of the same key goes to the device and answers.
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), keys[1], &value).ok());
  EXPECT_EQ(Value(61, 1), value);
}

// No-I/O tier, warm: once full reads have pulled every table and block a
// batch needs into memory, cache-only Get and MultiGet answer it without
// a single Incomplete, byte-equal to the full reads at one snapshot —
// found values, overwrites, tombstones and absent keys alike.  Run once
// against the uncompressed tier and once against the compressed tier
// alone (the uncompressed tier too small to keep anything).
TEST_P(MultiGetTest, CacheOnlyWarmMatchesFullReads) {
  struct Tier {
    const char* name;
    uint64_t block_cache_bytes;
    uint64_t compressed_cache_bytes;
    CompressionType compression;
  };
  const Tier tiers[] = {
      {"uncompressed", 16 << 20, 0, CompressionType::kNone},
      {"compressed", 1, 16 << 20, CompressionType::kLz},
  };
  for (const Tier& tier : tiers) {
    SCOPED_TRACE(tier.name);
    db_.reset();  // fresh DB per tier
    block_cache_bytes_ = tier.block_cache_bytes;
    compressed_cache_bytes_ = tier.compressed_cache_bytes;
    compression_ = tier.compression;
    ASSERT_TRUE(DestroyDB("/db", MakeOptions()).ok());
    Open();

    Random64 rnd(7);
    const int kKeySpace = 3000;
    Mutate(&rnd, kKeySpace, 4000, 1);
    Mutate(&rnd, kKeySpace, 3000, 2);
    ASSERT_TRUE(db_->FlushAll().ok());
    ASSERT_TRUE(db_->WaitForQuiescence().ok());
    // A few memtable-resident overwrites and tombstones on top (well under
    // one memtable, so no flush or compaction moves the tree from here on).
    for (int i = 0; i < 40; i++) {
      int k = static_cast<int>(rnd.Next() % kKeySpace);
      if (i % 4 == 0) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), Key(k)).ok());
      } else {
        ASSERT_TRUE(db_->Put(WriteOptions(), Key(k), Value(k, 3)).ok());
      }
    }

    std::vector<std::string> keys;
    for (int i = 0; i < 256; i++) {
      keys.push_back(Key(static_cast<int>(rnd.Next() % kKeySpace)));
    }
    keys.push_back("absent-before-everything");
    keys.push_back("zzz-absent-after-everything");
    keys.push_back(keys[0]);
    std::vector<Slice> slices;
    for (const std::string& k : keys) slices.emplace_back(k);

    ReadOptions full;
    full.snapshot = db_->GetSnapshot();
    ReadOptions cache_only = full;
    cache_only.cache_only = true;

    // Full reads first: they open every table and fill the cache tiers.
    std::vector<std::string> expect_values(keys.size());
    std::vector<Status> expect(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      expect[i] = db_->Get(full, keys[i], &expect_values[i]);
    }
    {
      std::vector<std::string> values(keys.size());
      std::vector<Status> statuses(keys.size());
      db_->MultiGet(full, slices.size(), slices.data(), values.data(),
                    statuses.data());
    }

    int found = 0, not_found = 0;
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    {
      OpIoScope scope;
      db_->MultiGet(cache_only, slices.size(), slices.data(), values.data(),
                    statuses.data());
      for (size_t i = 0; i < keys.size(); i++) {
        std::string value;
        Status s = db_->Get(cache_only, keys[i], &value);
        ASSERT_FALSE(s.IsIncomplete()) << keys[i];
        ASSERT_FALSE(statuses[i].IsIncomplete()) << keys[i];
        EXPECT_EQ(expect[i].ok(), s.ok()) << keys[i];
        EXPECT_EQ(expect[i].IsNotFound(), s.IsNotFound()) << keys[i];
        EXPECT_EQ(expect[i].ok(), statuses[i].ok()) << keys[i];
        EXPECT_EQ(expect[i].IsNotFound(), statuses[i].IsNotFound()) << keys[i];
        if (expect[i].ok()) {
          EXPECT_EQ(expect_values[i], value) << keys[i];
          EXPECT_EQ(expect_values[i], values[i]) << keys[i];
          found++;
        } else {
          not_found++;
        }
      }
      EXPECT_EQ(0u, scope.context().seeks);
    }
    // The batch really covered both answers (tombstones included).
    EXPECT_GT(found, 0);
    EXPECT_GT(not_found, 2);
    db_->ReleaseSnapshot(full.snapshot);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MultiGetTest,
    testing::Values(
        MultiGetParam{EngineType::kLeveled, AmtPolicy::kLsa, "leveled"},
        MultiGetParam{EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
        MultiGetParam{EngineType::kAmt, AmtPolicy::kIam, "iam"}),
    [](const testing::TestParamInfo<MultiGetParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iamdb
