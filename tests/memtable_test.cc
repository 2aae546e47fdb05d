// MemTable + WriteBatch + internal key format tests, including MVCC
// visibility via sequence numbers.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "core/dbformat.h"
#include "memtable/memtable.h"
#include "memtable/skiplist.h"
#include "memtable/write_batch.h"
#include "util/arena.h"
#include "util/random.h"
#include "str_cat.h"

namespace iamdb {
namespace {

TEST(DbFormatTest, InternalKeyEncodeDecode) {
  std::string encoded;
  AppendInternalKey(&encoded, ParsedInternalKey("foo", 42, kTypeValue));
  ParsedInternalKey decoded;
  ASSERT_TRUE(ParseInternalKey(encoded, &decoded));
  EXPECT_EQ("foo", decoded.user_key.ToString());
  EXPECT_EQ(42u, decoded.sequence);
  EXPECT_EQ(kTypeValue, decoded.type);
}

TEST(DbFormatTest, ParseRejectsGarbage) {
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(Slice("short"), &parsed));
  std::string bad;
  AppendInternalKey(&bad, ParsedInternalKey("k", 1, kTypeValue));
  bad[bad.size() - 8] = 0x7f;  // the type byte is the low byte of the tag
  EXPECT_FALSE(ParseInternalKey(bad, &parsed));
}

TEST(DbFormatTest, ComparatorOrdersUserKeyThenSeqDesc) {
  InternalKeyComparator cmp;
  auto ik = [](const char* k, SequenceNumber s, ValueType t) {
    std::string r;
    AppendInternalKey(&r, ParsedInternalKey(k, s, t));
    return r;
  };
  // Different user keys: bytewise order.
  EXPECT_LT(cmp.Compare(ik("a", 1, kTypeValue), ik("b", 100, kTypeValue)), 0);
  // Same user key: higher sequence first.
  EXPECT_LT(cmp.Compare(ik("a", 10, kTypeValue), ik("a", 5, kTypeValue)), 0);
  // Same user key + sequence: value before deletion.
  EXPECT_LT(cmp.Compare(ik("a", 5, kTypeValue), ik("a", 5, kTypeDeletion)), 0);
}

TEST(DbFormatTest, FindShortestSeparatorStaysBetween) {
  InternalKeyComparator cmp;
  auto ik = [](const std::string& k) {
    std::string r;
    AppendInternalKey(&r, ParsedInternalKey(k, 100, kTypeValue));
    return r;
  };
  std::string start = ik("abcdefghij");
  std::string limit = ik("abzzz");
  std::string sep = start;
  cmp.FindShortestSeparator(&sep, limit);
  EXPECT_GE(cmp.Compare(sep, start), 0);
  EXPECT_LT(cmp.Compare(sep, limit), 0);
  EXPECT_LE(sep.size(), start.size());
}

TEST(DbFormatTest, LookupKeyViews) {
  LookupKey lk("user_key", 77);
  EXPECT_EQ("user_key", lk.user_key().ToString());
  EXPECT_EQ(ExtractUserKey(lk.internal_key()).ToString(), "user_key");
  EXPECT_EQ(77u, ExtractSequence(lk.internal_key()));
}

TEST(DbFormatTest, LookupKeyLongKeyHeapPath) {
  std::string long_key(5000, 'k');
  LookupKey lk(long_key, 1);
  EXPECT_EQ(long_key, lk.user_key().ToString());
}

// ---------------------------------------------------------------------------
// SkipList directly (integer keys, simple comparator).

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, InsertContainsIterate) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::set<uint64_t> model;
  Random rnd(7);
  for (int i = 0; i < 3000; i++) {
    uint64_t v = rnd.Next() % 100000;
    if (model.insert(v).second) list.Insert(v);
  }
  for (uint64_t probe = 0; probe < 100000; probe += 777) {
    EXPECT_EQ(model.count(probe) > 0, list.Contains(probe)) << probe;
  }

  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  auto it = model.begin();
  for (iter.SeekToFirst(); iter.Valid(); iter.Next(), ++it) {
    ASSERT_NE(model.end(), it);
    EXPECT_EQ(*it, iter.key());
  }
  EXPECT_EQ(model.end(), it);
}

TEST(SkipListTest, SeekAndBackward) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t v = 0; v < 1000; v += 10) list.Insert(v);

  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.Seek(105);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(110u, iter.key());
  iter.Prev();
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(100u, iter.key());
  iter.SeekToLast();
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(990u, iter.key());
  iter.SeekToFirst();
  iter.Prev();
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, ConcurrentReadersDuringInsert) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::atomic<uint64_t> published{0};
  std::atomic<bool> failed{false};

  std::thread reader([&] {
    while (published.load(std::memory_order_acquire) < 20000) {
      uint64_t upto = published.load(std::memory_order_acquire);
      // Every published key must be findable (single writer publishes
      // in increasing order with release stores inside Insert).
      uint64_t probe = upto == 0 ? 0 : upto - 1;
      if (upto > 0 && !list.Contains(probe * 7)) {
        failed = true;
        return;
      }
    }
  });
  for (uint64_t i = 0; i < 20000; i++) {
    list.Insert(i * 7);
    published.store(i + 1, std::memory_order_release);
  }
  reader.join();
  EXPECT_FALSE(failed);
}

class MemTableTest : public testing::Test {
 protected:
  void SetUp() override {
    mem_ = new MemTable();
    mem_->Ref();
  }
  void TearDown() override { mem_->Unref(); }

  std::string Get(const std::string& key, SequenceNumber seq,
                  bool* found = nullptr, bool* deleted = nullptr) {
    LookupKey lk(key, seq);
    std::string value;
    Status s;
    bool hit = mem_->Get(lk, &value, &s);
    if (found != nullptr) *found = hit;
    if (deleted != nullptr) *deleted = hit && s.IsNotFound();
    return hit && s.ok() ? value : "";
  }

  MemTable* mem_;
};

TEST_F(MemTableTest, AddThenGet) {
  mem_->Add(1, kTypeValue, "key", "value");
  bool found;
  EXPECT_EQ("value", Get("key", 10, &found));
  EXPECT_TRUE(found);
}

TEST_F(MemTableTest, SnapshotVisibility) {
  mem_->Add(5, kTypeValue, "k", "v5");
  mem_->Add(10, kTypeValue, "k", "v10");
  mem_->Add(15, kTypeValue, "k", "v15");

  EXPECT_EQ("v15", Get("k", 100));
  EXPECT_EQ("v15", Get("k", 15));
  EXPECT_EQ("v10", Get("k", 14));
  EXPECT_EQ("v10", Get("k", 10));
  EXPECT_EQ("v5", Get("k", 9));
  bool found;
  Get("k", 4, &found);
  EXPECT_FALSE(found);  // no version visible below seq 5
}

TEST_F(MemTableTest, DeletionShadowsValue) {
  mem_->Add(1, kTypeValue, "k", "v");
  mem_->Add(2, kTypeDeletion, "k", "");
  bool found, deleted;
  Get("k", 100, &found, &deleted);
  EXPECT_TRUE(found);
  EXPECT_TRUE(deleted);
  // Older snapshot still sees the value.
  EXPECT_EQ("v", Get("k", 1, &found, &deleted));
  EXPECT_FALSE(deleted);
}

TEST_F(MemTableTest, MissingKeyNotFound) {
  mem_->Add(1, kTypeValue, "a", "1");
  mem_->Add(1, kTypeValue, "c", "3");
  bool found;
  Get("b", 100, &found);
  EXPECT_FALSE(found);
}

TEST_F(MemTableTest, IteratorYieldsInternalKeyOrder) {
  mem_->Add(3, kTypeValue, "b", "b3");
  mem_->Add(1, kTypeValue, "a", "a1");
  mem_->Add(2, kTypeValue, "b", "b2");
  mem_->Add(4, kTypeDeletion, "c", "");

  std::unique_ptr<Iterator> iter(mem_->NewIterator());
  iter->SeekToFirst();
  std::vector<std::pair<std::string, SequenceNumber>> seen;
  while (iter->Valid()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    seen.emplace_back(parsed.user_key.ToString(), parsed.sequence);
    iter->Next();
  }
  ASSERT_EQ(4u, seen.size());
  EXPECT_EQ(std::make_pair(std::string("a"), SequenceNumber{1}), seen[0]);
  EXPECT_EQ(std::make_pair(std::string("b"), SequenceNumber{3}), seen[1]);
  EXPECT_EQ(std::make_pair(std::string("b"), SequenceNumber{2}), seen[2]);
  EXPECT_EQ(std::make_pair(std::string("c"), SequenceNumber{4}), seen[3]);
}

TEST_F(MemTableTest, IteratorSeek) {
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%03d", i);
    mem_->Add(i + 1, kTypeValue, key, "v");
  }
  std::unique_ptr<Iterator> iter(mem_->NewIterator());
  LookupKey lk("key050", kMaxSequenceNumber);
  iter->Seek(lk.internal_key());
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key050", ExtractUserKey(iter->key()).ToString());

  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key099", ExtractUserKey(iter->key()).ToString());
}

TEST_F(MemTableTest, MemoryUsageGrows) {
  size_t before = mem_->ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    mem_->Add(i + 1, kTypeValue, test::StrCat("key", i),
              std::string(100, 'v'));
  }
  EXPECT_GT(mem_->ApproximateMemoryUsage(), before + 100 * 1000);
  EXPECT_EQ(1000u, mem_->num_entries());
}

TEST_F(MemTableTest, RandomizedAgainstReferenceModel) {
  Random rnd(42);
  std::map<std::string, std::string> model;
  SequenceNumber seq = 1;
  for (int i = 0; i < 5000; i++) {
    std::string key = test::StrCat("k", rnd.Uniform(500));
    if (rnd.OneIn(4)) {
      mem_->Add(seq++, kTypeDeletion, key, "");
      model.erase(key);
    } else {
      std::string value = test::StrCat("v", rnd.Next());
      mem_->Add(seq++, kTypeValue, key, value);
      model[key] = value;
    }
  }
  for (int k = 0; k < 500; k++) {
    std::string key = test::StrCat("k", k);
    bool found, deleted;
    std::string value = Get(key, seq, &found, &deleted);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(!found || deleted) << key;
    } else {
      ASSERT_TRUE(found) << key;
      EXPECT_FALSE(deleted) << key;
      EXPECT_EQ(it->second, value) << key;
    }
  }
}

TEST(WriteBatchTest, EmptyBatch) {
  WriteBatch b;
  EXPECT_EQ(0, b.Count());
  EXPECT_EQ(0u, WriteBatchInternal::UserBytes(&b));
}

TEST(WriteBatchTest, PutDeleteCount) {
  WriteBatch b;
  b.Put("a", "1");
  b.Delete("b");
  b.Put("c", "33");
  EXPECT_EQ(3, b.Count());
  EXPECT_EQ(1u + 1 + 1 + 1 + 2, WriteBatchInternal::UserBytes(&b));
}

TEST(WriteBatchTest, InsertIntoMemTable) {
  WriteBatch b;
  b.Put("k1", "v1");
  b.Put("k2", "v2");
  b.Delete("k1");
  WriteBatchInternal::SetSequence(&b, 100);

  MemTable* mem = new MemTable();
  mem->Ref();
  ASSERT_TRUE(WriteBatchInternal::InsertInto(&b, mem).ok());

  LookupKey lk1("k1", 200);
  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(lk1, &value, &s));
  EXPECT_TRUE(s.IsNotFound());  // deleted at seq 102

  LookupKey lk2("k2", 200);
  ASSERT_TRUE(mem->Get(lk2, &value, &s));
  EXPECT_EQ("v2", value);

  // Snapshot before the delete sees the value.
  LookupKey lk3("k1", 100);
  ASSERT_TRUE(mem->Get(lk3, &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ("v1", value);
  mem->Unref();
}

TEST(WriteBatchTest, AppendMergesBatches) {
  WriteBatch a, b;
  a.Put("x", "1");
  b.Put("y", "2");
  b.Delete("z");
  WriteBatchInternal::Append(&a, &b);
  EXPECT_EQ(3, a.Count());

  struct Collector : WriteBatch::Handler {
    std::vector<std::string> ops;
    void Put(const Slice& k, const Slice& v) override {
      ops.push_back("put:" + k.ToString() + "=" + v.ToString());
    }
    void Delete(const Slice& k) override {
      ops.push_back("del:" + k.ToString());
    }
  } collector;
  ASSERT_TRUE(a.Iterate(&collector).ok());
  ASSERT_EQ(3u, collector.ops.size());
  EXPECT_EQ("put:x=1", collector.ops[0]);
  EXPECT_EQ("put:y=2", collector.ops[1]);
  EXPECT_EQ("del:z", collector.ops[2]);
}

TEST(WriteBatchTest, CorruptionDetected) {
  WriteBatch b;
  b.Put("k", "v");
  std::string contents = WriteBatchInternal::Contents(&b).ToString();
  contents.resize(contents.size() - 1);  // chop the value
  WriteBatch broken;
  WriteBatchInternal::SetContents(&broken, contents);
  struct NullHandler : WriteBatch::Handler {
    void Put(const Slice&, const Slice&) override {}
    void Delete(const Slice&) override {}
  } handler;
  EXPECT_TRUE(broken.Iterate(&handler).IsCorruption());
}

TEST(WriteBatchTest, SequenceRoundTrip) {
  WriteBatch b;
  WriteBatchInternal::SetSequence(&b, 0xdeadbeefcafe);
  EXPECT_EQ(0xdeadbeefcafeull, WriteBatchInternal::Sequence(&b));
}

}  // namespace
}  // namespace iamdb
