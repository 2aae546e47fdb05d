// Tests for PublishedPtr, the epoch-reclaimed published pointer behind the
// lock-free read path (DBImpl::read_view_, the engines' current_), and for
// ReadHorizon, the in-flight-read floor of compaction's GC horizon; both
// are built on EpochBanks.
#include "util/published_ptr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "test_seed.h"
#include "util/epoch_banks.h"

namespace iamdb {
namespace {

struct Tracked {
  explicit Tracked(uint64_t v) : value(v) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
  uint64_t value;
  static std::atomic<int> live;
};
std::atomic<int> Tracked::live{0};

TEST(PublishedPtrTest, InitialValueAndStore) {
  PublishedPtr<Tracked> p(std::make_shared<Tracked>(1));
  EXPECT_EQ(p.Acquire()->value, 1u);
  EXPECT_EQ(p.Snapshot()->value, 1u);
  p.Store(std::make_shared<Tracked>(2));
  EXPECT_EQ(p.Acquire()->value, 2u);
}

TEST(PublishedPtrTest, NullInitial) {
  PublishedPtr<Tracked> p;
  EXPECT_EQ(p.Acquire().get(), nullptr);
  EXPECT_EQ(p.Snapshot(), nullptr);
  p.Store(std::make_shared<Tracked>(7));
  EXPECT_EQ(p.Acquire()->value, 7u);
}

TEST(PublishedPtrTest, SnapshotOutlivesStore) {
  PublishedPtr<Tracked> p(std::make_shared<Tracked>(1));
  std::shared_ptr<Tracked> pinned = p.Snapshot();
  for (uint64_t i = 2; i < 10; i++) p.Store(std::make_shared<Tracked>(i));
  EXPECT_EQ(pinned->value, 1u);  // real refcount: survives any reclamation
  EXPECT_EQ(p.Acquire()->value, 9u);
}

TEST(PublishedPtrTest, QuiescentStoresReclaimEagerly) {
  {
    PublishedPtr<Tracked> p(std::make_shared<Tracked>(0));
    // With no readers in any epoch, each Store can prove both banks
    // drained and free the superseded value after at most one extra round.
    for (uint64_t i = 1; i <= 100; i++) {
      p.Store(std::make_shared<Tracked>(i));
      EXPECT_LE(p.retired_count(), 1u);
      EXPECT_LE(Tracked::live.load(), 2);
    }
  }
  EXPECT_EQ(Tracked::live.load(), 0);  // destructor frees everything
}

TEST(PublishedPtrTest, GuardBlocksReclamation) {
  PublishedPtr<Tracked> p(std::make_shared<Tracked>(1));
  // A reader parked in an epoch pins every value retired after it entered.
  std::atomic<bool> entered{false}, release{false};
  std::atomic<uint64_t> seen{0};
  std::thread reader([&] {
    auto g = p.Acquire();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    seen.store(g->value);  // still valid despite concurrent stores
  });
  while (!entered.load()) std::this_thread::yield();
  for (uint64_t i = 2; i <= 5; i++) p.Store(std::make_shared<Tracked>(i));
  EXPECT_GE(Tracked::live.load(), 2);  // reader's value not freed
  release.store(true);
  reader.join();
  EXPECT_EQ(seen.load(), 1u);
  p.Store(std::make_shared<Tracked>(6));  // collect now that banks drain
  p.Store(std::make_shared<Tracked>(7));
  EXPECT_LE(p.retired_count(), 1u);
}

// Readers hammer Acquire/Snapshot while a writer stores a monotonically
// increasing sequence of values; every observed value must be one the
// writer actually published (no torn/posthumous reads) and per-thread
// observations must be monotone (publication order is respected).
TEST(PublishedPtrTest, ConcurrentReadersSeeMonotonePublishedValues) {
  const uint64_t seed = test::TestSeed(0xEB0C);
  SCOPED_TRACE(test::SeedTrace(seed));
  const int kReaders = 4;
  const uint64_t kStores = 20000;

  PublishedPtr<Tracked> p(std::make_shared<Tracked>(0));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      uint64_t last = 0;
      uint64_t iters = 0;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t v;
        if (((r + iters++) & 1) == 0) {
          v = p.Acquire()->value;
        } else {
          v = p.Snapshot()->value;
        }
        ASSERT_LE(v, kStores);   // never a value the writer hasn't made
        ASSERT_GE(v, last);      // publication order, per thread
        last = v;
      }
    });
  }
  for (uint64_t i = 1; i <= kStores; i++) {
    p.Store(std::make_shared<Tracked>(i));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(p.Acquire()->value, kStores);
  // All readers gone: one more pair of stores proves both banks empty and
  // drains the retired list to at most the immediately superseded value.
  p.Store(std::make_shared<Tracked>(kStores));
  p.Store(std::make_shared<Tracked>(kStores));
  EXPECT_LE(p.retired_count(), 1u);
  EXPECT_LE(Tracked::live.load(), 2);
}

// A reader keeps every horizon computed while it is in flight at or below
// the sequence it loaded after entering, however many epochs pass; so does
// a second reader that enters later.
TEST(ReadHorizonTest, NeverAboveAnInFlightReadersSequence) {
  ReadHorizon horizon;
  EXPECT_EQ(10u, horizon.Advance(10));
  {
    ReadHorizon::Guard first = horizon.Enter();
    const uint64_t first_sequence = 12;  // loaded after entering
    for (uint64_t committed = 20; committed <= 60; committed += 10) {
      EXPECT_LE(horizon.Advance(committed), first_sequence);
    }
    ReadHorizon::Guard second = horizon.Enter();
    const uint64_t second_sequence = 65;
    const uint64_t h = horizon.Advance(70);
    EXPECT_LE(h, first_sequence);
    EXPECT_LE(h, second_sequence);
  }
}

// Once the readers leave, the next Advance sees both banks empty, retires
// every pending floor and is back at the committed sequence; so is every
// Advance with no reader at all.
TEST(ReadHorizonTest, ReturnsToCommittedOnceBothBanksDrain) {
  ReadHorizon horizon;
  for (uint64_t committed = 0; committed < 5; committed++) {
    EXPECT_EQ(committed, horizon.Advance(committed));
  }
  {
    ReadHorizon::Guard a = horizon.Enter();
    EXPECT_EQ(4u, horizon.Advance(10));
    ReadHorizon::Guard b = horizon.Enter();  // the other bank
    EXPECT_EQ(4u, horizon.Advance(20));
    EXPECT_EQ(4u, horizon.Advance(30));
  }
  EXPECT_EQ(40u, horizon.Advance(40));
  EXPECT_EQ(50u, horizon.Advance(50));
}

// Readers enter, load the committed sequence, read the latest published
// horizon and leave, while a writer advances both.  Any horizon a reader
// can see while it is in flight is at or below its sequence, and the
// horizon never moves backwards.  Run under TSan in CI.
TEST(ReadHorizonTest, ConcurrentEnterLeaveAndAdvance) {
  const int kReaders = 4;
  const uint64_t kAdvances = 20000;
  ReadHorizon horizon;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ReadHorizon::Guard guard = horizon.Enter();
        const uint64_t sequence = committed.load(std::memory_order_acquire);
        std::this_thread::yield();
        if (published.load(std::memory_order_acquire) > sequence) {
          violations.fetch_add(1);
        }
      }
    });
  }
  uint64_t last = 0;
  bool monotone = true;
  for (uint64_t i = 1; i <= kAdvances; i++) {
    committed.store(i, std::memory_order_release);
    const uint64_t h = horizon.Advance(i);
    monotone = monotone && last <= h && h <= i;
    last = h;
    published.store(h, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(0, violations.load());
  EXPECT_TRUE(monotone);
  EXPECT_EQ(kAdvances, horizon.Advance(kAdvances));
}

}  // namespace
}  // namespace iamdb
