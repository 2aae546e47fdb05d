// MSTable tests: build/read round trips, appended sequences, metadata
// clustering, crash-tolerance of appends (stale meta_end still readable),
// point reads across sequences with MVCC, merged iteration.
#include <gtest/gtest.h>

#include <map>

#include "core/dbformat.h"
#include "env/counting_env.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "mstable_get.h"
#include "table/cache.h"
#include "table/compressor.h"
#include "table/merging_iterator.h"
#include "table/mstable.h"
#include "util/random.h"
#include "str_cat.h"

namespace iamdb {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType t = kTypeValue) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(user_key, seq, t));
  return r;
}

class MSTableTest : public testing::Test {
 protected:
  void SetUp() override {
    cache_ = std::make_unique<LruCache>(8 << 20);
    options_.block_cache = cache_.get();
    options_.block_size = 512;  // small blocks exercise the index
  }

  // Creates a new single-sequence table from sorted (ikey, value) pairs.
  MSTableBuildResult BuildNew(
      const std::string& fname,
      const std::vector<std::pair<std::string, std::string>>& entries) {
    MSTableWriter writer(&env_, options_, fname);
    EXPECT_TRUE(writer.Open().ok());
    for (const auto& [k, v] : entries) {
      EXPECT_TRUE(writer.Add(k, v).ok());
    }
    MSTableBuildResult result;
    EXPECT_TRUE(writer.Finish(false, &result).ok());
    return result;
  }

  MSTableBuildResult Append(
      const std::string& fname, const MSTableReader& existing,
      const std::vector<std::pair<std::string, std::string>>& entries) {
    MSTableAppender appender(&env_, options_, fname, existing);
    EXPECT_TRUE(appender.Open().ok());
    for (const auto& [k, v] : entries) {
      EXPECT_TRUE(appender.Add(k, v).ok());
    }
    MSTableBuildResult result;
    EXPECT_TRUE(appender.Finish(false, &result).ok());
    return result;
  }

  std::shared_ptr<MSTableReader> OpenReader(const std::string& fname,
                                            uint64_t meta_end,
                                            uint64_t file_number = 1) {
    std::shared_ptr<MSTableReader> reader;
    Status s = MSTableReader::Open(&env_, options_, &cmp_, fname, file_number,
                                   meta_end, &reader);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return reader;
  }

  // Point-read helper.
  std::string Get(const MSTableReader& reader, const std::string& key,
                  SequenceNumber snap, MultiGetRequest::State* state) {
    std::string value;
    std::string ikey = IKey(key, snap, kValueTypeForSeek);
    Status s = TableGet(reader, ReadOptions(), ikey, &value, state);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return value;
  }

  MemEnv env_;
  InternalKeyComparator cmp_;
  std::unique_ptr<LruCache> cache_;
  TableOptions options_;
};

TEST_F(MSTableTest, BuildAndReadSingleSequence) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    entries.emplace_back(IKey(buf, 10), test::StrCat("value", i));
  }
  auto result = BuildNew("/t1", entries);
  EXPECT_EQ(1u, result.seq_count);
  EXPECT_EQ(1000u, result.num_entries);
  EXPECT_EQ(entries.front().first, result.smallest);
  EXPECT_EQ(entries.back().first, result.largest);

  auto reader = OpenReader("/t1", result.meta_end);
  ASSERT_NE(nullptr, reader);
  EXPECT_EQ(1, reader->seq_count());
  EXPECT_EQ(1000u, reader->total_entries());

  MultiGetRequest::State state;
  EXPECT_EQ("value42", Get(*reader, "key00042", 100, &state));
  EXPECT_EQ(MultiGetRequest::State::kFound, state);

  Get(*reader, "key99999", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kPending, state);
}

// A writer whose Finish fails removes its file when destroyed.  Finish
// fails here at the sync, after the data and metadata are written.
TEST_F(MSTableTest, FailedFinishRemovesFile) {
  FaultInjectionEnv faulty(&env_);
  faulty.SetErrorSchedule(kFaultSync, /*seed=*/1, /*one_in=*/1);
  {
    MSTableWriter writer(&faulty, options_, "/tfail");
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 100; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%05d", i);
      ASSERT_TRUE(writer.Add(IKey(buf, 10), "value").ok());
    }
    MSTableBuildResult result;
    EXPECT_FALSE(writer.Finish(/*sync=*/true, &result).ok());
    EXPECT_TRUE(env_.FileExists("/tfail"));
  }
  EXPECT_FALSE(env_.FileExists("/tfail"));
}

TEST_F(MSTableTest, IteratorFullScan) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%06d", i * 3);
    entries.emplace_back(IKey(buf, 7), std::string(i % 50, 'v'));
  }
  auto result = BuildNew("/t2", entries);
  auto reader = OpenReader("/t2", result.meta_end);

  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(entries[i].first, iter->key().ToString());
    EXPECT_EQ(entries[i].second, iter->value().ToString());
  }
  EXPECT_EQ(entries.size(), i);
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(MSTableTest, AppendAddsSequenceNewestWins) {
  // Old sequence: keys 0..99 at seq 10.
  std::vector<std::pair<std::string, std::string>> old_entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    old_entries.emplace_back(IKey(buf, 10), "old");
  }
  auto r1 = BuildNew("/t3", old_entries);
  auto reader1 = OpenReader("/t3", r1.meta_end);

  // Appended sequence: overlapping keys 50..149 at seq 20.
  std::vector<std::pair<std::string, std::string>> new_entries;
  for (int i = 50; i < 150; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    new_entries.emplace_back(IKey(buf, 20), "new");
  }
  auto r2 = Append("/t3", *reader1, new_entries);
  EXPECT_EQ(2u, r2.seq_count);
  EXPECT_EQ(200u, r2.num_entries);

  // Reader at the NEW meta_end sees both sequences; file number bumps the
  // cache generation implicitly since block offsets are unique.
  auto reader2 = OpenReader("/t3", r2.meta_end, 2);
  EXPECT_EQ(2, reader2->seq_count());

  MultiGetRequest::State state;
  EXPECT_EQ("new", Get(*reader2, "key075", 100, &state));  // overlap: newest
  EXPECT_EQ("old", Get(*reader2, "key025", 100, &state));  // old only
  EXPECT_EQ("new", Get(*reader2, "key125", 100, &state));  // new only

  // Snapshot below the append still sees the old value.
  EXPECT_EQ("old", Get(*reader2, "key075", 15, &state));

  // The OLD reader (stale meta_end) still works: append is crash-safe.
  auto reader_old = OpenReader("/t3", r1.meta_end, 3);
  EXPECT_EQ(1, reader_old->seq_count());
  EXPECT_EQ("old", Get(*reader_old, "key075", 100, &state));
  Get(*reader_old, "key125", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kPending, state);
}

TEST_F(MSTableTest, MultipleAppendsAccumulate) {
  auto r = BuildNew("/t4", {{IKey("a", 1), "v1"}});
  for (int gen = 2; gen <= 5; gen++) {
    auto reader = OpenReader("/t4", r.meta_end, gen);
    r = Append("/t4", *reader,
               {{IKey("a", static_cast<SequenceNumber>(gen)),
                 test::StrCat("v", gen)}});
    EXPECT_EQ(static_cast<uint32_t>(gen), r.seq_count);
  }
  auto reader = OpenReader("/t4", r.meta_end, 100);
  EXPECT_EQ(5, reader->seq_count());
  MultiGetRequest::State state;
  EXPECT_EQ("v5", Get(*reader, "a", 100, &state));
  EXPECT_EQ("v3", Get(*reader, "a", 3, &state));
  EXPECT_EQ("v1", Get(*reader, "a", 1, &state));
}

TEST_F(MSTableTest, DeletionTombstoneVisible) {
  auto r1 = BuildNew("/t5", {{IKey("k", 5), "alive"}});
  auto reader1 = OpenReader("/t5", r1.meta_end);
  auto r2 = Append("/t5", *reader1, {{IKey("k", 9, kTypeDeletion), ""}});
  auto reader2 = OpenReader("/t5", r2.meta_end, 2);

  MultiGetRequest::State state;
  Get(*reader2, "k", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kDeleted, state);
  EXPECT_EQ("alive", Get(*reader2, "k", 7, &state));
  EXPECT_EQ(MultiGetRequest::State::kFound, state);
}

TEST_F(MSTableTest, MergedIteratorAcrossSequences) {
  std::vector<std::pair<std::string, std::string>> s1, s2;
  for (int i = 0; i < 100; i += 2) {  // evens at seq 10
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s1.emplace_back(IKey(buf, 10), "even");
  }
  auto r1 = BuildNew("/t6", s1);
  auto reader1 = OpenReader("/t6", r1.meta_end);
  for (int i = 1; i < 100; i += 2) {  // odds at seq 20
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s2.emplace_back(IKey(buf, 20), "odd");
  }
  auto r2 = Append("/t6", *reader1, s2);
  auto reader2 = OpenReader("/t6", r2.meta_end, 2);

  std::unique_ptr<Iterator> iter(reader2->NewIterator(ReadOptions()));
  int count = 0;
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    std::string cur = iter->key().ToString();
    if (!prev.empty()) {
      EXPECT_LT(cmp_.Compare(prev, cur), 0);
    }
    prev = cur;
  }
  EXPECT_EQ(100, count);
}

TEST_F(MSTableTest, BackwardScanAcrossSequences) {
  // Two interleaved sequences; a reverse scan must weave them in exact
  // descending order (exercises two-level + merging Prev paths).
  std::vector<std::pair<std::string, std::string>> s1, s2;
  for (int i = 0; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s1.emplace_back(IKey(buf, 10), "even");
  }
  auto r1 = BuildNew("/tb", s1);
  auto reader1 = OpenReader("/tb", r1.meta_end);
  for (int i = 1; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s2.emplace_back(IKey(buf, 20), "odd");
  }
  auto r2 = Append("/tb", *reader1, s2);
  auto reader2 = OpenReader("/tb", r2.meta_end, 2);

  std::unique_ptr<Iterator> iter(reader2->NewIterator(ReadOptions()));
  int expect = 99;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), expect--) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", expect);
    ASSERT_EQ(buf, ExtractUserKey(iter->key()).ToString());
    ASSERT_EQ(expect % 2 == 0 ? "even" : "odd", iter->value().ToString());
  }
  EXPECT_EQ(-1, expect);

  // Mid-stream direction flip.
  iter->Seek(IKey("key050", kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key049", ExtractUserKey(iter->key()).ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key050", ExtractUserKey(iter->key()).ToString());
}

TEST_F(MSTableTest, AppendsLeaveDeadMetadataAccountedInFootprint) {
  // Each append supersedes the previous clustered metadata region; the
  // dead zones stay inside the file until a merge rewrites the node.
  auto r = BuildNew("/tc", {{IKey("a", 1), std::string(2000, 'v')}});
  uint64_t first_end = r.meta_end;
  uint64_t data = r.data_bytes;
  for (int gen = 2; gen <= 6; gen++) {
    auto reader = OpenReader("/tc", r.meta_end, gen);
    r = Append("/tc", *reader,
               {{IKey(test::StrCat("b", gen), gen),
                 std::string(2000, 'v')}});
    data += 2000;
  }
  // Footprint (meta_end) grows faster than live data: dead metadata.
  uint64_t file_size;
  ASSERT_TRUE(env_.GetFileSize("/tc", &file_size).ok());
  EXPECT_EQ(file_size, r.meta_end);
  EXPECT_GT(r.meta_end - first_end, (r.data_bytes - 2000) + 4 * 64)
      << "expected dead metadata regions between appends";
  EXPECT_GT(r.data_bytes, 5u * 2000u);
}

TEST_F(MSTableTest, BloomPreventsDataBlockReads) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    entries.emplace_back(IKey(buf, 1), "v");
  }
  // Build directly on counting env.
  MSTableWriter writer(&counting_env, options_, "/t7");
  ASSERT_TRUE(writer.Open().ok());
  for (const auto& [k, v] : entries) ASSERT_TRUE(writer.Add(k, v).ok());
  MSTableBuildResult result;
  ASSERT_TRUE(writer.Finish(false, &result).ok());

  // Use a reader without block cache so reads hit the "device".
  TableOptions no_cache = options_;
  no_cache.block_cache = nullptr;
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, no_cache, &cmp_, "/t7", 1,
                                  result.meta_end, &reader)
                  .ok());

  IoStatsSnapshot before = stats.Snapshot();
  // 200 misses: bloom should reject nearly all without any disk read.
  MultiGetRequest::State state;
  std::string value;
  int fp_reads = 0;
  for (int i = 0; i < 200; i++) {
    IoStatsSnapshot pre = stats.Snapshot();
    std::string ikey = IKey(test::StrCat("absent", i), 100);
    ASSERT_TRUE(TableGet(*reader, ReadOptions(), ikey, &value, &state).ok());
    EXPECT_EQ(MultiGetRequest::State::kPending, state);
    if ((stats.Snapshot() - pre).read_ops > 0) fp_reads++;
  }
  EXPECT_LE(fp_reads, 4);  // ~0.2% fp rate, wide margin

  // A real hit costs exactly one data-block read (metadata is in memory).
  IoStatsSnapshot pre = stats.Snapshot();
  std::string ikey = IKey("key00500", 100);
  ASSERT_TRUE(TableGet(*reader, ReadOptions(), ikey, &value, &state).ok());
  EXPECT_EQ(MultiGetRequest::State::kFound, state);
  EXPECT_EQ(1u, (stats.Snapshot() - pre).read_ops);
  (void)before;
}

TEST_F(MSTableTest, MetadataIsOneContiguousReadOnOpen) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 2000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    entries.emplace_back(IKey(buf, 1), std::string(100, 'v'));
  }
  auto result = BuildNew("/t8", entries);

  IoStatsSnapshot before = stats.Snapshot();
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/t8", 1,
                                  result.meta_end, &reader)
                  .ok());
  IoStatsSnapshot delta = stats.Snapshot() - before;
  // One trailer read + one region read.
  EXPECT_EQ(2u, delta.read_ops);
}

TEST_F(MSTableTest, CorruptTrailerRejected) {
  auto result = BuildNew("/t9", {{IKey("a", 1), "v"}});
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/t9", &contents).ok());
  contents[contents.size() - 6] ^= 0xff;  // inside the magic
  ASSERT_TRUE(WriteStringToFile(&env_, contents, "/t9", false).ok());
  std::shared_ptr<MSTableReader> reader;
  Status s = MSTableReader::Open(&env_, options_, &cmp_, "/t9", 1,
                                 result.meta_end, &reader);
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(MSTableTest, CorruptDataBlockDetectedWithChecksums) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    entries.emplace_back(IKey(buf, 1), std::string(64, 'v'));
  }
  auto result = BuildNew("/t10", entries);

  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/t10", &contents).ok());
  contents[10] ^= 0x1;  // flip a bit in the first data block
  ASSERT_TRUE(WriteStringToFile(&env_, contents, "/t10", false).ok());

  TableOptions strict = options_;
  strict.verify_checksums = true;
  strict.block_cache = nullptr;
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&env_, strict, &cmp_, "/t10", 1,
                                  result.meta_end, &reader)
                  .ok());
  MultiGetRequest::State state;
  std::string value;
  std::string ikey = IKey("key001", 100);
  Status s = TableGet(*reader, ReadOptions(), ikey, &value, &state);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(MSTableTest, RandomizedMultiSequenceAgainstModel) {
  Random rnd(77);
  std::map<std::string, std::pair<SequenceNumber, std::string>> model;
  SequenceNumber seq = 1;

  // Build 4 sequences of random keys, each strictly newer.
  uint64_t meta_end = 0;
  for (int s = 0; s < 4; s++) {
    std::map<std::string, std::string> batch;
    for (int i = 0; i < 300; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%04d", rnd.Uniform(1000));
      batch[buf] = test::StrCat("s", s, "i", i);
    }
    std::vector<std::pair<std::string, std::string>> entries;
    for (const auto& [k, v] : batch) {
      entries.emplace_back(IKey(k, seq), v);
      model[k] = {seq, v};
    }
    seq++;
    if (s == 0) {
      meta_end = BuildNew("/t11", entries).meta_end;
    } else {
      auto reader = OpenReader("/t11", meta_end, s);
      meta_end = Append("/t11", *reader, entries).meta_end;
    }
  }

  auto reader = OpenReader("/t11", meta_end, 50);
  EXPECT_EQ(4, reader->seq_count());
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    MultiGetRequest::State state;
    std::string value = Get(*reader, buf, 100, &state);
    auto it = model.find(buf);
    if (it == model.end()) {
      EXPECT_EQ(MultiGetRequest::State::kPending, state) << buf;
    } else {
      ASSERT_EQ(MultiGetRequest::State::kFound, state) << buf;
      EXPECT_EQ(it->second.second, value) << buf;
    }
  }

  // Merged scan equals the model.
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  std::map<std::string, std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    std::string uk = parsed.user_key.ToString();
    if (seen.count(uk) == 0) {  // first (newest) version wins
      seen[uk] = iter->value().ToString();
    }
  }
  ASSERT_EQ(model.size(), seen.size());
  for (const auto& [k, sv] : model) {
    EXPECT_EQ(sv.second, seen[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// Per-block compression (format v2).

// YCSB-shaped entries: fixed-size values of 8-byte letter runs, the pattern
// the columnar codec targets.
std::vector<std::pair<std::string, std::string>> FixedRecordEntries(int n) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < n; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "user%06d", i);
    std::string value;
    for (int f = 0; f < 10; f++) {
      value.append(8, static_cast<char>('a' + (i + f) % 26));
    }
    entries.emplace_back(IKey(buf, 10), value);
  }
  return entries;
}

class MSTableCompressionTest : public MSTableTest,
                               public testing::WithParamInterface<
                                   CompressionType> {};

TEST_P(MSTableCompressionTest, CompressedBuildReadsBackIdentically) {
  auto entries = FixedRecordEntries(1000);
  auto raw = BuildNew("/raw", entries);

  options_.compression = GetParam();
  auto compressed = BuildNew("/comp", entries);

  // Physical footprint shrinks; logical accounting (data_bytes drives node
  // splits and merge triggers) is codec-invariant so tree shape — and the
  // tree digest — cannot depend on the codec.
  EXPECT_LT(compressed.meta_end, raw.meta_end);
  EXPECT_EQ(compressed.data_bytes, raw.data_bytes);

  auto reader = OpenReader("/comp", compressed.meta_end);
  ASSERT_NE(nullptr, reader);
  MultiGetRequest::State state;
  EXPECT_EQ(entries[42].second, Get(*reader, "user000042", 100, &state));
  EXPECT_EQ(MultiGetRequest::State::kFound, state);

  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(entries[i].first, iter->key().ToString());
    EXPECT_EQ(entries[i].second, iter->value().ToString());
  }
  EXPECT_EQ(entries.size(), i);
  EXPECT_TRUE(iter->status().ok());
}

TEST_P(MSTableCompressionTest, CompressedAppendRoundtrip) {
  options_.compression = GetParam();
  auto entries1 = FixedRecordEntries(400);
  auto r1 = BuildNew("/ta", entries1);
  auto reader1 = OpenReader("/ta", r1.meta_end);
  ASSERT_NE(nullptr, reader1);

  std::vector<std::pair<std::string, std::string>> entries2;
  for (int i = 200; i < 600; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "user%06d", i);
    entries2.emplace_back(IKey(buf, 20), std::string(80, 'z'));
  }
  auto r2 = Append("/ta", *reader1, entries2);
  EXPECT_EQ(2u, r2.seq_count);

  auto reader2 = OpenReader("/ta", r2.meta_end);
  ASSERT_NE(nullptr, reader2);
  MultiGetRequest::State state;
  // Overlap region: the newer sequence (seq 20) wins.
  EXPECT_EQ(std::string(80, 'z'), Get(*reader2, "user000300", 100, &state));
  // Old-only and new-only keys both resolve.
  EXPECT_EQ(entries1[10].second, Get(*reader2, "user000010", 100, &state));
  EXPECT_EQ(std::string(80, 'z'), Get(*reader2, "user000599", 100, &state));
}

TEST_P(MSTableCompressionTest, CacheChargesUncompressedResidentSize) {
  options_.compression = GetParam();
  auto entries = FixedRecordEntries(2000);
  auto result = BuildNew("/tcc", entries);
  uint64_t file_size = 0;
  ASSERT_TRUE(env_.GetFileSize("/tcc", &file_size).ok());

  // Fresh cache; scan everything so every data block lands in it.
  cache_ = std::make_unique<LruCache>(64 << 20);
  options_.block_cache = cache_.get();
  auto reader = OpenReader("/tcc", result.meta_end);
  ASSERT_NE(nullptr, reader);
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
  ASSERT_EQ(entries.size(), n);

  // Blocks are charged at their *uncompressed* resident size: cached bytes
  // must track the logical data size, not the (much smaller) on-disk file.
  EXPECT_GT(cache_->usage(), file_size);
  EXPECT_LE(cache_->usage(), result.data_bytes);
}

TEST_P(MSTableCompressionTest, CompressedCacheTierServesRereads) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  options_.compression = GetParam();
  LruCache compressed_cache(8 << 20);
  options_.compressed_block_cache = &compressed_cache;
  CompressionStats cstats;
  options_.compression_stats = &cstats;

  auto entries = FixedRecordEntries(1000);
  MSTableWriter writer(&counting_env, options_, "/tct");
  ASSERT_TRUE(writer.Open().ok());
  for (const auto& [k, v] : entries) ASSERT_TRUE(writer.Add(k, v).ok());
  MSTableBuildResult result;
  ASSERT_TRUE(writer.Finish(false, &result).ok());
  ASSERT_GT(cstats.stored_bytes.load(), 0u);
  EXPECT_LT(cstats.stored_bytes.load(), cstats.input_bytes.load());

  // First pass fills both tiers.
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/tct", 1,
                                  result.meta_end, &reader)
                  .ok());
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  EXPECT_GT(compressed_cache.usage(), 0u);

  // Drop the uncompressed tier; a re-read must be fed entirely from the
  // compressed tier — zero device reads, only decompression work.
  cache_ = std::make_unique<LruCache>(64 << 20);
  options_.block_cache = cache_.get();
  std::shared_ptr<MSTableReader> reader2;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/tct", 1,
                                  result.meta_end, &reader2)
                  .ok());
  const uint64_t decompressed_before = cstats.decompressed_blocks.load();
  IoStatsSnapshot before = stats.Snapshot();
  std::unique_ptr<Iterator> iter2(reader2->NewIterator(ReadOptions()));
  size_t n = 0;
  for (iter2->SeekToFirst(); iter2->Valid(); iter2->Next()) n++;
  ASSERT_EQ(entries.size(), n);
  EXPECT_EQ(0u, (stats.Snapshot() - before).read_ops);
  EXPECT_GT(cstats.decompressed_blocks.load(), decompressed_before);
}

TEST_P(MSTableCompressionTest, CorruptCompressedBlockSurfacesCorruption) {
  options_.compression = GetParam();
  auto result = BuildNew("/tcx", FixedRecordEntries(500));

  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/tcx", &contents).ok());
  // Flip a byte inside the first data block's compressed payload: the CRC
  // (which covers payload + type tag) must reject it before the codec runs.
  contents[10] ^= 0x10;
  ASSERT_TRUE(WriteStringToFile(&env_, contents, "/tcx", false).ok());

  TableOptions no_cache = options_;
  no_cache.block_cache = nullptr;  // force the device read
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&env_, no_cache, &cmp_, "/tcx", 1,
                                  result.meta_end, &reader)
                  .ok());
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  // Either invalid immediately or an error status; never garbage entries
  // from a torn block.
  EXPECT_TRUE(!iter->Valid() || !iter->status().ok());
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Codecs, MSTableCompressionTest,
                         testing::Values(CompressionType::kColumnar,
                                         CompressionType::kLz),
                         [](const testing::TestParamInfo<CompressionType>& i) {
                           return std::string(CompressionTypeName(i.param));
                         });

}  // namespace
}  // namespace iamdb
