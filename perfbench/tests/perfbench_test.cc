// Unit tests for the benchmark's own code: the forwarding wrappers, the
// percentile helper, span self-time and matching, and the answer checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "trace.h"
#include "workload.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using iamdb::DB;
using iamdb::Slice;
using iamdb::Status;

iamdb::Options SmallOptions(iamdb::Env* env) {
  iamdb::Options o;
  o.env = env;
  o.node_capacity = 64 << 10;  // many flushes and merges from little data
  o.block_cache_capacity = 64 << 10;
  o.background_threads = 1;
  return o;
}

// The same seeded operations against a plain DB and against a TracingDB
// over a DB on a TracingEnv must give byte-identical answers.
TEST(WrappersTest, ForwardingMatchesUnwrappedDb) {
  iamdb::MemEnv plain_env, base_env;
  Tracer tracer;
  tracer.set_enabled(true);
  TracingEnv traced_env(&base_env, &tracer);
  std::unique_ptr<DB> plain, inner;
  ASSERT_TRUE(DB::Open(SmallOptions(&plain_env), "/db", &plain).ok());
  ASSERT_TRUE(DB::Open(SmallOptions(&traced_env), "/db", &inner).ok());
  TracingDB traced(inner.get(), &tracer);

  KeySpace keys(7);
  const uint64_t n = 600;
  Rng rng(11);
  for (int i = 0; i < 3000; i++) {
    uint64_t k = rng.Uniform(n);
    std::string value = MakeValue(keys, k, i + 1);
    ASSERT_TRUE(plain->Put({}, keys.Key(k), value).ok());
    ASSERT_TRUE(traced.Put({}, keys.Key(k), value).ok());
  }
  ASSERT_TRUE(plain->FlushAll().ok());
  ASSERT_TRUE(traced.FlushAll().ok());

  for (uint64_t k = 0; k < n + 50; k++) {
    std::string a, b;
    Status sa = plain->Get({}, keys.Key(k), &a);
    Status sb = traced.Get({}, keys.Key(k), &b);
    ASSERT_EQ(sa.ToString(), sb.ToString());
    ASSERT_EQ(a, b);
  }

  std::vector<std::string> mkeys;
  for (int i = 0; i < 40; i++) mkeys.push_back(keys.Key(rng.Uniform(n + 20)));
  std::vector<Slice> slices(mkeys.begin(), mkeys.end());
  std::vector<std::string> va(mkeys.size()), vb(mkeys.size());
  std::vector<Status> sa(mkeys.size()), sb(mkeys.size());
  plain->MultiGet({}, mkeys.size(), slices.data(), va.data(), sa.data());
  traced.MultiGet({}, mkeys.size(), slices.data(), vb.data(), sb.data());
  for (size_t i = 0; i < mkeys.size(); i++) {
    EXPECT_EQ(sa[i].ToString(), sb[i].ToString());
    EXPECT_EQ(va[i], vb[i]);
  }

  std::unique_ptr<iamdb::Iterator> ia(plain->NewIterator({}));
  std::unique_ptr<iamdb::Iterator> ib(traced.NewIterator({}));
  ia->Seek(keys.Key(3));
  ib->Seek(keys.Key(3));
  int entries = 0;
  for (; ia->Valid(); ia->Next(), ib->Next(), entries++) {
    ASSERT_TRUE(ib->Valid());
    ASSERT_EQ(ia->key().ToString(), ib->key().ToString());
    ASSERT_EQ(ia->value().ToString(), ib->value().ToString());
  }
  EXPECT_FALSE(ib->Valid());
  EXPECT_GT(entries, 0);
  ia.reset();
  ib.reset();

  // Every DB call above became a span, and the table reads under the Gets
  // were attributed to them as foreground env spans.
  traced.GetStats();
  inner.reset();
  tracer.set_enabled(false);
  std::vector<Span> spans = tracer.Collect();
  size_t db_gets = 0, fg_reads = 0;
  for (const Span& s : spans) {
    if (s.layer == Layer::kDb && s.op == Op::kGet) db_gets++;
    if (s.layer == Layer::kEnv && s.parent != 0 &&
        (s.op == Op::kRead || s.op == Op::kReadV)) {
      fg_reads++;
    }
  }
  EXPECT_EQ(db_gets, n + 50);
  EXPECT_GT(fg_reads, 0u);
  EXPECT_GT(traced_env.totals().table_bytes_written.load(), 0u);
  EXPECT_GT(traced_env.totals().bg_write_bytes.load(), 0u);
}

TEST(SummaryTest, NearestRankPercentilesAndCount) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; i--) v.push_back(i);
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.max, 1000);

  Summary one = Summarize({42});
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.p50, 42);
  EXPECT_EQ(one.p99, 42);

  Summary none = Summarize({});
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.p99, 0);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t start, uint64_t end,
              Layer layer = Layer::kEnv) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.layer = layer;
  return s;
}

TEST(SelfTimeTest, SubtractsUnionOfChildrenClippedToParent) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),     // root
      MakeSpan(2, 1, 10, 30),     // overlapping children: [10,40) counts once
      MakeSpan(3, 1, 20, 40),
      MakeSpan(4, 1, 90, 120),    // clipped to [90,100)
      MakeSpan(5, 2, 12, 18),     // grandchild: only reduces span 2
      MakeSpan(6, 99, 0, 50),     // unknown parent: ignored
  };
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 30 - 10);
  EXPECT_EQ(self[1], 20u - 6);
  EXPECT_EQ(self[2], 20u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
  EXPECT_EQ(self[5], 50u);
}

TEST(SelfTimeTest, MatchesDbSpansToContainingClientRequest) {
  std::vector<Span> spans;
  auto client = [&](uint64_t id, uint64_t match, uint64_t start, uint64_t end) {
    Span s = MakeSpan(id, 0, start, end, Layer::kClient);
    s.request = id;
    s.match = match;
    spans.push_back(s);
  };
  auto db = [&](uint64_t id, uint64_t match, uint64_t start, uint64_t end) {
    Span s = MakeSpan(id, 0, start, end, Layer::kDb);
    s.match = match;
    spans.push_back(s);
  };
  client(1, 7, 0, 100);   // same key twice, overlapping in time
  client(2, 7, 50, 200);
  client(3, 8, 0, 100);   // other key
  db(10, 7, 20, 40);      // only request 1 contains it
  db(11, 7, 120, 150);    // only request 2 contains it
  db(12, 8, 10, 20);
  db(13, 9, 10, 20);      // no such request
  spans.push_back(MakeSpan(20, 10, 25, 30));  // env call under DB span 10
  EXPECT_EQ(MatchDbSpans(&spans), 3u);
  EXPECT_EQ(spans[7].request, 1u);
  EXPECT_EQ(spans[3].parent, 1u);
  EXPECT_EQ(spans[4].parent, 2u);
  EXPECT_EQ(spans[4].request, 2u);
  EXPECT_EQ(spans[5].parent, 3u);
  EXPECT_EQ(spans[6].parent, 0u);

  // Client self time is the request's time outside its DB call.
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 20);
}

TEST(CheckerTest, AcceptsFreshValueRejectsCorruptStaleAndWrongKey) {
  KeySpace keys(3);
  VersionTable versions(10);
  for (int v = 0; v < 3; v++) versions.NextVersion(4);  // issued = 3
  versions.Ack(4, 2);
  EXPECT_EQ(keys.Key(4).size(), kKeySize);
  EXPECT_NE(keys.Key(4), keys.Key(5));

  std::string v2 = MakeValue(keys, 4, 2);
  std::string v3 = MakeValue(keys, 4, 3);
  ASSERT_EQ(v2.size(), kValueSize);
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, true, v2), Verdict::kOk);
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, true, v3), Verdict::kOk);

  std::string corrupt = v2;
  corrupt[500] ^= 1;
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, true, corrupt), Verdict::kCorrupt);
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, true, v2.substr(1)),
            Verdict::kCorrupt);

  std::string v1 = MakeValue(keys, 4, 1);
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, true, v1), Verdict::kStale);
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, true, MakeValue(keys, 4, 9)),
            Verdict::kFuture);
  EXPECT_EQ(CheckValue(keys, versions, 5, 0, true, v2), Verdict::kWrongKey);
  EXPECT_EQ(CheckValue(keys, versions, 4, 2, false, ""), Verdict::kMissing);
  EXPECT_EQ(CheckValue(keys, versions, 6, 0, false, ""), Verdict::kOk);

  // A value from another seed's key space does not verify.
  EXPECT_EQ(CheckValue(KeySpace(4), versions, 4, 2, true, v2),
            Verdict::kCorrupt);
}

TEST(GeneratorTest, ZipfianStaysInRangeAndIsSkewed) {
  ScrambledZipfian z(1000);
  Rng rng(5);
  std::vector<int> hits(1000);
  for (int i = 0; i < 100000; i++) {
    uint64_t k = z.Next(rng.NextDouble());
    ASSERT_LT(k, 1000u);
    hits[k]++;
  }
  int max = *std::max_element(hits.begin(), hits.end());
  EXPECT_GT(max, 100000 / 1000 * 20);  // the hottest key is far above uniform
}

}  // namespace
}  // namespace perfbench
