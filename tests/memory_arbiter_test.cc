// Memory-arbiter tests (core/memory_arbiter.h): the pure control law, the
// step/clamp mechanics and cache eviction on re-division, Open-time budget
// validation, the write quota driving memtable rotation, and the headline
// equivalence property — a DB retuned online through forced arbiter steps
// installs the same logical tree as a fresh Open with the final division,
// for all three engines.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/memory_arbiter.h"
#include "env/mem_env.h"
#include "shard/sharded_db.h"
#include "table/cache.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/rate_limiter.h"
#include "str_cat.h"

namespace iamdb {
namespace {

// Deterministic clock: time moves only when the test advances it.
class ManualClock : public RateClock {
 public:
  uint64_t NowMicros() override { return now_; }
  void WaitFor(std::condition_variable&, std::unique_lock<std::mutex>&,
               uint64_t micros) override {
    now_ += micros;
  }
  void Advance(uint64_t micros) { now_ += micros; }

 private:
  uint64_t now_ = 1;
};

Options ArbiterOnlyOptions() {
  // Standalone arbiter (no DB): 16MB pool over a 1MB memtable and both
  // cache tiers weighted 3:1.
  Options options;
  options.memory_budget_bytes = 16 << 20;
  options.node_capacity = 1 << 20;
  options.block_cache_capacity = 48 << 20;
  options.compressed_cache_capacity = 16 << 20;
  return options;
}

TEST(MemoryArbiterTest, InitialDivisionRespectsFloorsAndRatio) {
  Options options = ArbiterOnlyOptions();
  MemoryArbiter arbiter(options);
  // initial_write_fraction 0.25 of 16MB = 4MB, within [1MB, 14MB].
  EXPECT_EQ(arbiter.write_quota(), 4u << 20);
  EXPECT_EQ(arbiter.read_target(), 12u << 20);
  // Tiers split the read share 3:1 (the configured capacity ratio) and
  // always sum to it exactly.
  EXPECT_EQ(arbiter.uncompressed_target() + arbiter.compressed_target(),
            arbiter.read_target());
  EXPECT_EQ(arbiter.uncompressed_target(), 9u << 20);
  EXPECT_EQ(arbiter.compressed_target(), 3u << 20);
}

TEST(MemoryArbiterTest, DecideControlLaw) {
  Options options = ArbiterOnlyOptions();
  MemoryArbiter arbiter(options);
  const uint64_t high_debt = options.pacing.debt_high_bytes;
  using Shift = MemoryArbiter::Shift;
  // Stalls past the threshold pull budget to the write side...
  EXPECT_EQ(arbiter.Decide(60, 0, 0), Shift::kToWrite);
  // ...and win over a simultaneous read signal (a stalled writer is the
  // sharper starvation)...
  EXPECT_EQ(arbiter.Decide(60, 500, 0), Shift::kToWrite);
  // ...unless compaction debt is past the pacing watermark: the stall is
  // merge-bound, growing the memtable would not help.
  EXPECT_EQ(arbiter.Decide(60, 0, high_debt), Shift::kNone);
  EXPECT_EQ(arbiter.Decide(60, 500, high_debt), Shift::kNone);
  // Misses past the threshold (stalls quiet) push budget to the caches.
  EXPECT_EQ(arbiter.Decide(0, 250, 0), Shift::kToRead);
  EXPECT_EQ(arbiter.Decide(10, 250, high_debt), Shift::kToRead);
  // Both quiet: hold.
  EXPECT_EQ(arbiter.Decide(10, 100, 0), Shift::kNone);
}

TEST(MemoryArbiterTest, ForceStepClampsAtFloors) {
  Options options = ArbiterOnlyOptions();
  MemoryArbiter arbiter(options);
  // Walk to the write ceiling: budget minus the two tier minimums.
  int steps = 0;
  while (arbiter.ForceStep(MemoryArbiter::Shift::kToWrite)) steps++;
  EXPECT_GT(steps, 0);
  EXPECT_EQ(arbiter.write_quota(),
            options.memory_budget_bytes -
                2 * MemoryArbiter::MinReadBytesPerTier());
  // Each tier keeps its minimum allotment even at the ceiling.
  EXPECT_GE(arbiter.uncompressed_target(),
            MemoryArbiter::MinReadBytesPerTier());
  EXPECT_GE(arbiter.compressed_target(),
            MemoryArbiter::MinReadBytesPerTier());
  // Walk back to the floor: one memtable.
  while (arbiter.ForceStep(MemoryArbiter::Shift::kToRead)) steps++;
  EXPECT_EQ(arbiter.write_quota(), options.node_capacity);
  EXPECT_EQ(arbiter.shifts(), static_cast<uint64_t>(steps));
  EXPECT_FALSE(arbiter.ForceStep(MemoryArbiter::Shift::kNone));
}

TEST(MemoryArbiterTest, StepTowardWriteEvictsCaches) {
  Options options = ArbiterOnlyOptions();
  MemoryArbiter arbiter(options);
  LruCache block_cache(arbiter.uncompressed_target());
  LruCache compressed_cache(arbiter.compressed_target());
  arbiter.AttachCaches(&block_cache, &compressed_cache);

  // Fill the uncompressed tier near capacity.
  for (uint64_t i = 0; i < 1000; i++) {
    block_cache.Insert(BlockCacheKey{i, 0},
                       std::make_shared<const int>(static_cast<int>(i)),
                       8 << 10);
  }
  ASSERT_GT(block_cache.usage(), (4u << 20));

  // One step toward the write side: both tiers must adopt the new targets
  // and the over-budget tier must evict immediately.
  ASSERT_TRUE(arbiter.ForceStep(MemoryArbiter::Shift::kToWrite));
  EXPECT_EQ(block_cache.capacity(), arbiter.uncompressed_target());
  EXPECT_EQ(compressed_cache.capacity(), arbiter.compressed_target());
  EXPECT_LE(block_cache.usage(), block_cache.capacity());
}

TEST(MemoryArbiterTest, RebalanceFoldsSignalsAndMoves) {
  Options options = ArbiterOnlyOptions();
  ManualClock clock;
  MemoryArbiter arbiter(options, &clock);
  LruCache block_cache(arbiter.uncompressed_target());
  LruCache compressed_cache(arbiter.compressed_target());
  arbiter.AttachCaches(&block_cache, &compressed_cache);
  const uint64_t interval = options.arbiter.retune_interval_micros;
  const uint64_t start_quota = arbiter.write_quota();

  // Before the interval elapses: no rebalance.
  EXPECT_FALSE(arbiter.RetuneDue());
  EXPECT_FALSE(arbiter.MaybeRebalance(0, 0));

  // A fully stalled interval: stall EWMA jumps to 500 per mille, well past
  // the threshold — the split moves toward the write side.
  clock.Advance(interval + 1);
  ASSERT_TRUE(arbiter.RetuneDue());
  EXPECT_TRUE(arbiter.MaybeRebalance(/*stall_micros_total=*/interval,
                                     /*debt_bytes=*/0));
  EXPECT_GT(arbiter.write_quota(), start_quota);

  // Stall-free intervals decay the stall EWMA (500 -> 250 -> 125 -> 62 ->
  // 31); the early ones may still step toward write until it crosses back
  // under the threshold.
  for (int i = 0; i < 4; i++) {
    clock.Advance(interval + 1);
    arbiter.MaybeRebalance(interval, 0);
  }

  // Now a miss storm with stalls quiet: every lookup misses, the miss
  // EWMA jumps past the threshold, the split moves back toward the reads.
  const uint64_t grown_quota = arbiter.write_quota();
  for (uint64_t i = 0; i < 200; i++) {
    block_cache.Lookup(BlockCacheKey{i, 4096});
  }
  clock.Advance(interval + 1);
  EXPECT_TRUE(arbiter.MaybeRebalance(interval, 0));
  EXPECT_LT(arbiter.write_quota(), grown_quota);

  // Hit traffic decays the miss EWMA (500 -> 250 -> 125); once both
  // signals are under their thresholds the split holds.  (Intervals with
  // NO lookups would hold the miss EWMA instead — a write-only lull must
  // not erase the evidence that reads were starved.)
  block_cache.Insert(BlockCacheKey{1, 1}, std::make_shared<const int>(1), 64);
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 200; j++) block_cache.Lookup(BlockCacheKey{1, 1});
    clock.Advance(interval + 1);
    arbiter.MaybeRebalance(interval, 0);
  }
  const uint64_t settled = arbiter.write_quota();
  for (int j = 0; j < 200; j++) block_cache.Lookup(BlockCacheKey{1, 1});
  clock.Advance(interval + 1);
  EXPECT_FALSE(arbiter.MaybeRebalance(interval, 0));
  EXPECT_EQ(arbiter.write_quota(), settled);
  EXPECT_GE(arbiter.retunes(), arbiter.shifts());
}

// ---- Open-time validation ----

TEST(MemoryArbiterTest, OpenRejectsInvalidBudgets) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.node_capacity = 1 << 20;
  std::unique_ptr<DB> db;

  // Below the floor: one memtable + 1MB for the single cache tier.
  options.memory_budget_bytes = (1 << 20) + (1 << 19);
  Status s = DB::Open(options, "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // With the compressed tier on, the floor grows by another tier minimum.
  options.memory_budget_bytes = (1 << 20) + (1 << 20) + (1 << 19);
  options.compressed_cache_capacity = 8 << 20;
  s = DB::Open(options, "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  options.compressed_cache_capacity = 0;

  // Knob sanity.
  options.memory_budget_bytes = 64 << 20;
  options.arbiter.initial_write_fraction = 0;
  EXPECT_TRUE(DB::Open(options, "/db", &db).IsInvalidArgument());
  options.arbiter.initial_write_fraction = 1.0;
  EXPECT_TRUE(DB::Open(options, "/db", &db).IsInvalidArgument());
  options.arbiter.initial_write_fraction = 0.25;
  options.arbiter.step_fraction = 0;
  EXPECT_TRUE(DB::Open(options, "/db", &db).IsInvalidArgument());
  options.arbiter.step_fraction = 1.0 / 16;
  options.arbiter.retune_interval_micros = 0;
  EXPECT_TRUE(DB::Open(options, "/db", &db).IsInvalidArgument());
  options.arbiter.retune_interval_micros = 50 * 1000;

  // The AMT tuner's budget fraction must be a usable fraction.
  options.engine = EngineType::kAmt;
  options.amt.memory_budget_fraction = 0;
  EXPECT_TRUE(DB::Open(options, "/db", &db).IsInvalidArgument());
  options.amt.memory_budget_fraction = 1.5;
  EXPECT_TRUE(DB::Open(options, "/db", &db).IsInvalidArgument());
  options.amt.memory_budget_fraction = 0.5;

  // And the repaired configuration opens.
  EXPECT_TRUE(DB::Open(options, "/db", &db).ok());
}

// ---- DB-level behaviour ----

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

TEST(MemoryArbiterTest, WriteQuotaControlsRotation) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.node_capacity = 32 << 10;
  options.memory_budget_bytes = 2 << 20;
  options.arbiter.initial_write_fraction = 0.5;  // 1MB quota
  // Keep the arbiter from retuning on its own: only forced steps move.
  options.arbiter.retune_interval_micros = 1ull << 40;
  options.background_threads = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  // 200KB of writes: far past node_capacity, but under the 1MB quota — the
  // memtable must NOT rotate (nothing reaches disk tables).
  std::string value(1000, 'v');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_EQ(db->GetStats().space_used_bytes, 0u)
      << "rotated below the write quota";

  // Shrink the write side to the floor; the oversized memtable now rotates
  // on the next write.
  auto* impl = static_cast<DBImpl*>(db.get());
  while (impl->ForceMemoryStep(MemoryArbiter::Shift::kToRead)) {
  }
  DbStats stats = db->GetStats();
  EXPECT_EQ(stats.arbiter_write_bytes, options.node_capacity);
  ASSERT_TRUE(db->Put(WriteOptions(), Key(999), value).ok());
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_GT(db->GetStats().space_used_bytes, 0u);

  // Gauges: budget conserved, split sums, steps counted, property line on.
  stats = db->GetStats();
  EXPECT_EQ(stats.arbiter_budget_bytes, options.memory_budget_bytes);
  EXPECT_EQ(stats.arbiter_write_bytes + stats.arbiter_read_bytes,
            stats.arbiter_budget_bytes);
  EXPECT_GT(stats.arbiter_shifts, 0u);
  std::string text;
  ASSERT_TRUE(db->GetProperty("iamdb.stats", &text));
  EXPECT_NE(text.find("arbiter"), std::string::npos);
}

// ---- Online retuning vs fresh-open equivalence ----

struct EngineConfig {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

// Seeded history in rounds small enough to stay under the floor quota, a
// full drain after each — flush boundaries depend only on the FlushAll
// barriers, which both DBs share (subcompaction_test uses the same
// construction for its determinism argument).
void ApplyRounds(DB* db, uint64_t seed, int rounds, int keyspace) {
  Random64 rnd(seed);
  for (int r = 0; r < rounds; r++) {
    for (int i = 0; i < 80; i++) {
      int k = static_cast<int>(rnd.Next() % keyspace);
      if (rnd.Next() % 8 == 0) {
        ASSERT_TRUE(db->Delete(WriteOptions(), Key(k)).ok());
      } else {
        std::string value = test::StrCat("v", rnd.Next() % 1000, "-") +
                            std::string(1 + rnd.Next() % 100, 'x');
        ASSERT_TRUE(db->Put(WriteOptions(), Key(k), value).ok());
      }
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForQuiescence().ok());
  }
}

std::string StreamLines(const std::string& digest) {
  std::istringstream in(digest);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.find(" stream ") != std::string::npos) out += line + "\n";
  }
  return out;
}

std::string Scan(DB* db) {
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  std::string out;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out += it->key().ToString() + "=" + it->value().ToString() + ";";
  }
  EXPECT_TRUE(it->status().ok());
  return out;
}

class ArbiterEquivalenceTest : public testing::TestWithParam<EngineConfig> {};

// A DB whose memory division was retuned online (quota walked from 50% of
// the pool down to the floor, with the engine re-running its (m,k) tuner
// after every step) must end with the same logical tree as a control DB
// opened fresh with the final division — the ISSUE's acceptance property:
// live retuning converges to exactly the state it would have been
// configured into.
TEST_P(ArbiterEquivalenceTest, OnlineRetuneMatchesFreshOpenWithFinalSplit) {
  const uint64_t seed = test::TestSeed(20260807);
  SCOPED_TRACE(test::SeedTrace(seed));

  const uint64_t kNodeCapacity = 24 << 10;
  const uint64_t kBudget = (4ull << 20) + kNodeCapacity;

  auto base_options = [&](Env* env) {
    Options options;
    options.env = env;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = kNodeCapacity;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 96 << 10;
    options.leveled.target_file_size = 12 << 10;
    options.table.compression = test::TestCompression();
    options.background_threads = 1;
    options.max_subcompactions = 1;
    return options;
  };

  // Live DB: pooled budget, quota starts at ~50%.  A huge retune interval
  // pins the division between the deterministic forced steps.
  MemEnv live_env;
  Options live_options = base_options(&live_env);
  live_options.memory_budget_bytes = kBudget;
  live_options.arbiter.initial_write_fraction = 0.5;
  live_options.arbiter.retune_interval_micros = 1ull << 40;
  std::unique_ptr<DB> live;
  ASSERT_TRUE(DB::Open(live_options, "/live", &live).ok());

  // Phase A: a little data, all below even the floor quota — no rotation
  // anywhere, so the retunes below happen against identical (empty) trees.
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(live->Put(WriteOptions(), Key(2000 + i),
                          "a" + std::string(100, 'p'))
                    .ok());
  }

  // Walk the split to its final division: write floor (one memtable), the
  // whole remainder to the cache.  Each step re-runs the engine's tuner.
  auto* impl = static_cast<DBImpl*>(live.get());
  int steps = 0;
  while (impl->ForceMemoryStep(MemoryArbiter::Shift::kToRead)) steps++;
  EXPECT_GE(steps, 2);
  DbStats mid = live->GetStats();
  ASSERT_EQ(mid.arbiter_write_bytes, kNodeCapacity);
  ASSERT_EQ(mid.arbiter_read_bytes, kBudget - kNodeCapacity);

  // Phase B: grow a real tree through the final division.
  ApplyRounds(live.get(), seed, 60, 900);
  ASSERT_TRUE(live->CheckInvariants(true).ok());

  // Control: fresh DB configured directly with the final division — same
  // rotation threshold, same cache capacity, no arbiter.
  MemEnv control_env;
  Options control_options = base_options(&control_env);
  control_options.block_cache_capacity = kBudget - kNodeCapacity;
  std::unique_ptr<DB> control;
  ASSERT_TRUE(DB::Open(control_options, "/control", &control).ok());
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(control
                    ->Put(WriteOptions(), Key(2000 + i),
                          "a" + std::string(100, 'p'))
                    .ok());
  }
  ApplyRounds(control.get(), seed, 60, 900);
  ASSERT_TRUE(control->CheckInvariants(true).ok());

  // Same visible contents and the same physical tree.
  EXPECT_EQ(Scan(live.get()), Scan(control.get()));
  std::string live_digest, control_digest;
  ASSERT_TRUE(live->GetProperty("iamdb.tree-digest", &live_digest));
  ASSERT_TRUE(control->GetProperty("iamdb.tree-digest", &control_digest));
  ASSERT_FALSE(live_digest.empty());
  if (GetParam().engine == EngineType::kAmt) {
    EXPECT_EQ(live_digest, control_digest);
  } else {
    EXPECT_EQ(StreamLines(live_digest), StreamLines(control_digest));
  }

  // The AMT engines must have lived through real (m,k) changes — the test
  // is vacuous if the mixed level never moved — and still agree with the
  // control's final choice.
  DbStats live_stats = live->GetStats();
  DbStats control_stats = control->GetStats();
  if (GetParam().engine == EngineType::kAmt) {
    EXPECT_GE(live_stats.mixed_level_retunes, 2u) << GetParam().name;
    EXPECT_EQ(live_stats.mixed_level, control_stats.mixed_level);
    EXPECT_EQ(live_stats.mixed_level_k, control_stats.mixed_level_k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ArbiterEquivalenceTest,
    testing::Values(EngineConfig{EngineType::kLeveled, AmtPolicy::kLsa,
                                 "leveled"},
                    EngineConfig{EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
                    EngineConfig{EngineType::kAmt, AmtPolicy::kIam, "iam"}),
    [](const testing::TestParamInfo<EngineConfig>& info) {
      return info.param.name;
    });

// ---- ShardedDB ----

TEST(MemoryArbiterTest, ShardedOpenDividesBudget) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.node_capacity = 256 << 10;
  options.memory_budget_bytes = 16 << 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/sharded", 4, &db).ok());

  std::string value(100, 's');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  for (int i = 0; i < 200; i++) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &got).ok());
    EXPECT_EQ(got, value);
  }
  // Aggregated stats: each shard arbitrates a quarter of the pool, so the
  // summed budget reconstructs the configured total.
  DbStats stats = db->GetStats();
  EXPECT_EQ(stats.arbiter_budget_bytes, options.memory_budget_bytes);
  EXPECT_EQ(stats.arbiter_write_bytes + stats.arbiter_read_bytes,
            stats.arbiter_budget_bytes);
}

}  // namespace
}  // namespace iamdb
