// DBImpl: the shared half of the database — WAL + group commit, memtable
// rotation, snapshots, stall control, background scheduling, recovery and
// file garbage collection.  The on-disk half is a TreeEngine.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/compaction_pacer.h"
#include "core/db.h"
#include "core/memory_arbiter.h"
#include "core/dbformat.h"
#include "core/manifest.h"
#include "core/snapshot.h"
#include "core/tree_engine.h"
#include "env/counting_env.h"
#include "memtable/memtable.h"
#include "table/cache.h"
#include "table/compressor.h"
#include "util/epoch_banks.h"
#include "util/published_ptr.h"
#include "util/rate_limiter.h"
#include "util/thread_pool.h"
#include "wal/log_writer.h"

namespace iamdb {

struct WriterItem;

// Immutable snapshot of the in-memory read state, swapped atomically so the
// read hot path never touches the write mutex (mirrors how engines publish
// TreeVersionPtr).  Holds memtable references for its whole lifetime, so a
// reader that loaded a view can keep using `mem`/`imm` after rotation or
// flush retires them.
struct ReadView {
  ReadView(MemTable* m, MemTable* i);
  ~ReadView();

  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;

  MemTable* const mem;
  MemTable* const imm;  // may be null
};

class DBImpl final : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);
  ~DBImpl() override;

  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  void MultiGet(const ReadOptions& options, size_t count, const Slice* keys,
                std::string* values, Status* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status WaitForQuiescence() override;
  Status FlushAll() override;
  DbStats GetStats() override;
  const AmpStats& amp_stats() const override { return amp_stats_; }
  Status CheckInvariants(bool quiescent) override {
    return engine_->CheckInvariants(quiescent);
  }
  bool GetProperty(const Slice& property, std::string* value) override;

  // ---- Engine-facing surface (engines run under mutex_ unless noted) ----

  Env* env() { return counting_env_.get(); }
  const Options& options() const { return options_; }
  const std::string& dbname() const { return dbname_; }
  const InternalKeyComparator* icmp() const { return &icmp_; }
  AmpStats* amp_stats_mutable() { return &amp_stats_; }
  LruCache* block_cache() { return block_cache_.get(); }
  // Compressed-block tier; nullptr when compressed_cache_capacity == 0.
  LruCache* compressed_block_cache() { return compressed_block_cache_.get(); }

  std::mutex& mutex() { return mutex_; }
  MemTable* imm() { return imm_; }

  uint64_t NewFileNumber() { return next_file_number_++; }   // mutex held
  uint64_t NewNodeId() { return next_node_id_++; }           // mutex held

  // Compaction's GC horizon: the oldest sequence a registered snapshot or
  // an in-flight read may observe (docs/CONCURRENCY.md).  Callers hold
  // mutex_, which serializes read_horizon_; takes snapshots_mu_ inside.
  SequenceNumber SmallestSnapshot() {
    const SequenceNumber horizon =
        read_horizon_.Advance(last_sequence_.load(std::memory_order_acquire));
    std::lock_guard<std::mutex> l(snapshots_mu_);
    return snapshots_.empty()
               ? horizon
               : std::min(horizon, snapshots_.oldest()->sequence());
  }

  // Durably apply an edit (mutex held).  Counters are stamped in.
  Status LogEdit(VersionEdit* edit);

  // Called by the engine after the imm flush edit is applied (mutex held):
  // releases the immutable memtable and obsolete WAL files.
  void ImmFlushed();

  uint64_t CurrentLogNumber() const { return log_number_; }  // mutex held

  // Shared background pool (engines fan subcompaction shards out on it; see
  // util/task_group.h for why that can't deadlock) and the background I/O
  // budget (null unless pacing.adaptive).  No mutex needed.
  ThreadPool* pool() { return pool_.get(); }
  RateLimiter* rate_limiter() { return rate_limiter_.get(); }

  // Counts subcompaction shards fanned out by engines (no mutex).
  void RecordSubcompactions(uint64_t n) {
    subcompactions_.fetch_add(n, std::memory_order_relaxed);
  }

  // Unified memory arbiter; nullptr when memory_budget_bytes == 0.
  MemoryArbiter* memory_arbiter() { return arbiter_.get(); }

  // Applies one arbiter step immediately (ops/test hook; takes the
  // mutex and re-runs the engine's memory-dependent decisions).  Returns
  // false when the arbiter is off or the step was already clamped.
  bool ForceMemoryStep(MemoryArbiter::Shift direction);

 private:
  friend class DB;

  Status Recover();
  Status Initialize();  // Recover + engine construction; called by Open
  Status WriteSnapshotManifest();  // fresh MANIFEST with full state
  Status ReplayWal(uint64_t log_number, SequenceNumber* max_sequence);
  Status SwitchMemTable();  // mutex held
  void PublishReadView();   // mutex held; release-installs {mem_, imm_}
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock);
  WriteBatch* BuildBatchGroup(WriterItem** last_writer);
  void MaybeScheduleBackgroundWork();  // mutex held
  void MaybeRebalanceMemory();         // mutex held
  void MaybeRebalanceMemoryFromRead();  // no mutex; try-locks
  void BackgroundCall(TreeEngine::WorkLane lane);
  void RemoveObsoleteFiles();  // mutex held (open/flush time)
  // The read point of every read: options.snapshot's sequence, or else the
  // committed sequence, loaded after entering read_horizon_ (members
  // initialize in declaration order), which keeps every compaction that
  // starts before the ReadPoint is destroyed from collecting below it.
  class ReadPoint {
   public:
    ReadPoint(const DBImpl* db, const ReadOptions& options)
        : horizon_(db->read_horizon_.Enter()),
          sequence_(options.snapshot != nullptr
                        ? static_cast<const SnapshotImpl*>(options.snapshot)
                              ->sequence()
                        : db->last_sequence_.load(std::memory_order_acquire)) {}
    SequenceNumber sequence() const { return sequence_; }

   private:
    const ReadHorizon::Guard horizon_;
    const SequenceNumber sequence_;
  };

  // The one point-read path: Get is a batch of one, MultiGet of `count`.
  // Fills statuses[i]/values[i] for keys[i], all at one read point.
  void Lookup(const ReadOptions& options, size_t count, const Slice* keys,
              std::string* values, Status* statuses);
  Iterator* NewInternalIterator(const ReadOptions& options);

  Options options_;
  std::string dbname_;
  IoStats io_stats_;
  std::unique_ptr<CountingEnv> counting_env_;
  AmpStats amp_stats_;
  std::unique_ptr<LruCache> block_cache_;
  std::unique_ptr<LruCache> compressed_block_cache_;  // tier 2; may be null
  CompressionStats compression_stats_;
  InternalKeyComparator icmp_;

  // mutex_ serializes the WRITE side only: the writer queue, memtable
  // rotation, background scheduling, and manifest edits.  The read hot path
  // (Get / MultiGet / NewIterator) never acquires it — readers load
  // read_view_ and last_sequence_ with acquire semantics
  // (docs/CONCURRENCY.md).
  std::mutex mutex_;
  std::condition_variable bg_cv_;
  std::atomic<bool> shutting_down_{false};

  MemTable* mem_ = nullptr;   // mutated under mutex_; readers use read_view_
  MemTable* imm_ = nullptr;
  std::unique_ptr<WritableFile> log_file_;
  std::unique_ptr<log::Writer> log_;
  uint64_t log_number_ = 0;
  std::set<uint64_t> old_log_numbers_;  // released once imm flushes

  // Lock-free read-path state.  read_view_ is installed under mutex_ (by
  // rotation and imm release) and read without any lock via epoch guards
  // (PublishedPtr, util/published_ptr.h); last_sequence_ is
  // release-published by the front writer after the memtable insert, so an
  // acquire load observes every entry at or below the loaded sequence.
  PublishedPtr<const ReadView> read_view_;
  std::atomic<SequenceNumber> last_sequence_{0};
  // Lock-free reads in flight, for SmallestSnapshot().  Its own banks, not
  // read_view_'s: a read holds this epoch across device I/O, which must
  // never delay view (and memtable) reclamation.
  ReadHorizon read_horizon_;

  uint64_t next_file_number_ = 2;
  uint64_t next_node_id_ = 1;

  std::deque<WriterItem*> writers_;
  WriteBatch group_batch_;

  // Snapshot bookkeeping has its own small lock so GetSnapshot /
  // ReleaseSnapshot (and server SCAN setup) never contend with writers.
  // Lock order: mutex_ before snapshots_mu_ (SmallestSnapshot is called by
  // engines holding mutex_); never the reverse.
  mutable std::mutex snapshots_mu_;
  SnapshotList snapshots_;

  std::unique_ptr<ManifestWriter> manifest_;
  std::unique_ptr<TreeEngine> engine_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<RateLimiter> rate_limiter_;
  // Non-null iff options.pacing.adaptive: retunes rate_limiter_ from the
  // measured ingest rate and the engine's compaction debt (see
  // core/compaction_pacer.h).
  std::unique_ptr<CompactionPacer> pacer_;
  // Non-null iff options.memory_budget_bytes > 0: re-divides the pooled
  // budget between the memtable quota and the cache tiers (see
  // core/memory_arbiter.h).  Constructed before the caches, which are
  // sized from its initial division.
  std::unique_ptr<MemoryArbiter> arbiter_;
  // Two-lane scheduling accounting (mutex_): at most one flush worker —
  // flushes serialize on the single imm anyway — plus one compaction
  // worker per job the engine says is runnable right now.
  bool flush_scheduled_ = false;
  int compactions_scheduled_ = 0;
  int ScheduledWorkers() const {  // mutex held
    return (flush_scheduled_ ? 1 : 0) + compactions_scheduled_;
  }
  Status bg_error_;
  std::atomic<uint64_t> stall_micros_{0};
  std::atomic<uint64_t> subcompactions_{0};
  // Batched-read accounting (DbStats multiget gauges; no mutex).
  std::atomic<uint64_t> multiget_batches_{0};
  std::atomic<uint64_t> multiget_keys_{0};
  std::atomic<uint64_t> multiget_coalesced_reads_{0};
  std::atomic<uint64_t> multiget_coalesced_blocks_{0};
  RecoveredState recovered_;  // staging between Recover and engine init
};

}  // namespace iamdb
