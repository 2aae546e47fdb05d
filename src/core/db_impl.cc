#include "core/db_impl.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory_resource>
#include <optional>

#include "core/amt/amt_engine.h"
#include "core/db_iter.h"
#include "core/filename.h"
#include "core/leveled/leveled_engine.h"
#include "table/merging_iterator.h"
#include "util/crc32c.h"
#include "util/sync_point.h"
#include "wal/log_reader.h"

namespace iamdb {

ReadView::ReadView(MemTable* m, MemTable* i, SequenceNumber seq)
    : mem(m), imm(i), last_sequence(seq) {
  mem->Ref();
  if (imm != nullptr) imm->Ref();
}

ReadView::~ReadView() {
  mem->Unref();
  if (imm != nullptr) imm->Unref();
}

// Group-commit queue entry.
struct WriterItem {
  Status status;
  WriteBatch* batch = nullptr;
  bool sync = false;
  bool done = false;
  std::condition_variable cv;
};

// ---------------------------------------------------------------------------
// Construction / destruction / open

DBImpl::DBImpl(const Options& options, const std::string& dbname)
    : options_(options), dbname_(dbname) {
  counting_env_ = std::make_unique<CountingEnv>(options.env, &io_stats_);
  // With a pooled budget the arbiter decides the initial cache sizes; the
  // configured capacities only set the uncompressed:compressed ratio.
  if (options.memory_budget_bytes > 0) {
    arbiter_ = std::make_unique<MemoryArbiter>(options_);
  }
  uint64_t block_cache_bytes = arbiter_ != nullptr
                                   ? arbiter_->uncompressed_target()
                                   : options.block_cache_capacity;
  block_cache_ = std::make_unique<LruCache>(block_cache_bytes);
  options_.table.block_cache = block_cache_.get();
  if (options.compressed_cache_capacity > 0) {
    compressed_block_cache_ = std::make_unique<LruCache>(
        arbiter_ != nullptr ? arbiter_->compressed_target()
                            : options.compressed_cache_capacity);
    options_.table.compressed_block_cache = compressed_block_cache_.get();
  }
  if (arbiter_ != nullptr) {
    arbiter_->AttachCaches(block_cache_.get(), compressed_block_cache_.get());
  }
  options_.table.compression_stats = &compression_stats_;
  pool_ = std::make_unique<ThreadPool>(std::max(1, options.background_threads));
  if (options.pacing.adaptive) {
    // Adaptive pacing owns the budget: start with the bucket open (the
    // unpaced behaviour) and let the controller pace it down as it learns
    // the workload — converging down from max is a couple of retune
    // intervals, whereas ramping up from the floor would throttle the
    // first seconds of a write burst behind an unwarmed estimate.
    rate_limiter_ =
        std::make_unique<RateLimiter>(options.pacing.max_bytes_per_sec);
    pacer_ = std::make_unique<CompactionPacer>(options.pacing,
                                               rate_limiter_.get());
    options_.table.rate_limiter = rate_limiter_.get();
  } else if (options.compaction_rate_limit > 0) {
    rate_limiter_ = std::make_unique<RateLimiter>(options.compaction_rate_limit);
    // Table builds during flush/merge pace their block writes; user writes
    // go through the WAL + memtable and are never paced.
    options_.table.rate_limiter = rate_limiter_.get();
  }
}

DBImpl::~DBImpl() {
  {
    std::unique_lock<std::mutex> l(mutex_);
    shutting_down_.store(true, std::memory_order_release);
    while (ScheduledWorkers() > 0) bg_cv_.wait(l);
  }
  pool_.reset();  // joins workers
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
}

namespace {

// Reject configurations that cannot work rather than failing obscurely
// later (I.29-style precondition checking at the API boundary).
Status ValidateOptions(const Options& options) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("Options::env is required");
  }
  if (options.node_capacity < (4u << 10)) {
    return Status::InvalidArgument(
        "Options::node_capacity must be at least 4KB");
  }
  if (options.table.block_size < 128 || options.table.block_size > (4u << 20)) {
    return Status::InvalidArgument(
        "Options::table.block_size must be in [128B, 4MB]");
  }
  if (options.table.bloom_bits_per_key < 0 ||
      options.table.bloom_bits_per_key > 64) {
    return Status::InvalidArgument("bloom_bits_per_key must be in [0, 64]");
  }
  if (options.background_threads < 1 || options.background_threads > 64) {
    return Status::InvalidArgument("background_threads must be in [1, 64]");
  }
  if (options.max_subcompactions < 0 || options.max_subcompactions > 64) {
    return Status::InvalidArgument("max_subcompactions must be in [0, 64]");
  }
  if (options.table.compression_max_stored_fraction <= 0 ||
      options.table.compression_max_stored_fraction > 1.0) {
    return Status::InvalidArgument(
        "table.compression_max_stored_fraction must be in (0, 1]");
  }
  if (options.pacing.adaptive) {
    const PacingOptions& p = options.pacing;
    if (p.min_bytes_per_sec == 0 || p.max_bytes_per_sec < p.min_bytes_per_sec) {
      return Status::InvalidArgument(
          "pacing requires 0 < min_bytes_per_sec <= max_bytes_per_sec");
    }
    if (p.debt_low_bytes >= p.debt_high_bytes) {
      return Status::InvalidArgument(
          "pacing.debt_low_bytes must be below debt_high_bytes");
    }
    if (p.retune_interval_micros == 0) {
      return Status::InvalidArgument(
          "pacing.retune_interval_micros must be positive");
    }
    if (p.headroom < 1.0) {
      return Status::InvalidArgument("pacing.headroom must be at least 1");
    }
  }
  if (options.memory_budget_bytes > 0) {
    const uint64_t floor = MemoryArbiter::MinBudgetBytes(options);
    if (options.memory_budget_bytes < floor) {
      return Status::InvalidArgument(
          "memory_budget_bytes below minimum (one memtable at node_capacity "
          "plus 1MB per cache tier)");
    }
    const ArbiterOptions& a = options.arbiter;
    if (a.initial_write_fraction <= 0 || a.initial_write_fraction >= 1.0) {
      return Status::InvalidArgument(
          "arbiter.initial_write_fraction must be in (0, 1)");
    }
    if (a.step_fraction <= 0 || a.step_fraction >= 1.0) {
      return Status::InvalidArgument(
          "arbiter.step_fraction must be in (0, 1)");
    }
    if (a.retune_interval_micros == 0) {
      return Status::InvalidArgument(
          "arbiter.retune_interval_micros must be positive");
    }
  }
  if (options.engine == EngineType::kAmt) {
    if (options.amt.fanout < 2) {
      return Status::InvalidArgument("amt.fanout (t) must be at least 2");
    }
    if (options.amt.memory_budget_fraction <= 0 ||
        options.amt.memory_budget_fraction > 1.0) {
      return Status::InvalidArgument(
          "amt.memory_budget_fraction must be in (0, 1]");
    }
    if (options.amt.k < 1) {
      return Status::InvalidArgument("amt.k must be at least 1");
    }
    if (options.amt.leaf_merge_split_factor < 1) {
      return Status::InvalidArgument(
          "amt.leaf_merge_split_factor must be at least 1");
    }
    if (options.amt.split_child_factor <= 1.0) {
      return Status::InvalidArgument(
          "amt.split_child_factor must exceed 1 (children per node)");
    }
  } else {
    if (options.leveled.target_file_size < (1u << 10)) {
      return Status::InvalidArgument("leveled.target_file_size too small");
    }
    if (options.leveled.level_multiplier < 2) {
      return Status::InvalidArgument("leveled.level_multiplier must be >= 2");
    }
    if (options.leveled.l0_compaction_trigger < 1) {
      return Status::InvalidArgument("l0_compaction_trigger must be >= 1");
    }
  }
  return Status::OK();
}

}  // namespace

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  Status validation = ValidateOptions(options);
  if (!validation.ok()) return validation;
  auto impl = std::make_unique<DBImpl>(options, name);
  Status s = impl->Initialize();
  if (!s.ok()) return s;
  *dbptr = std::move(impl);
  return Status::OK();
}

Status DBImpl::Initialize() {
  Env* env = counting_env_.get();
  env->CreateDir(dbname_);

  Status s = Recover();
  if (!s.ok()) return s;

  // Construct the engine over the recovered node sets.
  switch (options_.engine) {
    case EngineType::kLeveled:
      engine_ = std::make_unique<LeveledEngine>(this);
      break;
    case EngineType::kAmt:
      engine_ = std::make_unique<AmtEngine>(this);
      break;
  }
  s = engine_->Recover(recovered_);
  if (!s.ok()) return s;
  recovered_ = RecoveredState();  // release staging memory

  // Fresh WAL + fresh manifest snapshot; then GC leftovers.  Replayed WALs
  // stay in old_log_numbers_ until the recovered memtable flushes.
  std::unique_lock<std::mutex> l(mutex_);
  s = SwitchMemTable();
  if (!s.ok()) return s;
  s = WriteSnapshotManifest();
  if (!s.ok()) return s;
  RemoveObsoleteFiles();
  MaybeScheduleBackgroundWork();
  return Status::OK();
}

Status DBImpl::Recover() {
  Env* env = counting_env_.get();
  const std::string current = CurrentFileName(dbname_);

  if (!env->FileExists(current)) {
    if (!options_.create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist");
    }
    // Fresh database: empty state.
    recovered_ = RecoveredState();
    mem_ = new MemTable();
    mem_->Ref();
    return Status::OK();
  }
  if (options_.error_if_exists) {
    return Status::InvalidArgument(dbname_, "exists (error_if_exists)");
  }

  Status s = RecoverManifest(env, dbname_, &recovered_);
  if (!s.ok()) return s;
  next_file_number_ = recovered_.next_file_number;
  next_node_id_ = recovered_.next_node_id;
  last_sequence_.store(recovered_.last_sequence, std::memory_order_relaxed);

  // Replay WALs at or after the recorded log number, oldest first.
  std::vector<std::string> children;
  env->GetChildren(dbname_, &children);
  std::vector<uint64_t> logs;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kLogFile &&
        number >= recovered_.log_number) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());

  mem_ = new MemTable();
  mem_->Ref();
  SequenceNumber max_sequence = last_sequence_.load(std::memory_order_relaxed);
  for (uint64_t log_number : logs) {
    s = ReplayWal(log_number, &max_sequence);
    if (!s.ok()) return s;
    next_file_number_ = std::max(next_file_number_, log_number + 1);
    // Keep replayed WALs until the recovered data is flushed.
    old_log_numbers_.insert(log_number);
  }
  if (max_sequence > last_sequence_.load(std::memory_order_relaxed)) {
    last_sequence_.store(max_sequence, std::memory_order_relaxed);
  }
  return Status::OK();
}

namespace {
struct WalRecoveryReporter : public log::Reader::Reporter {
  Status* status;
  bool paranoid;
  void Corruption(size_t, const Status& s) override {
    if (paranoid && status->ok()) *status = s;
  }
};
}  // namespace

Status DBImpl::ReplayWal(uint64_t log_number, SequenceNumber* max_sequence) {
  Env* env = counting_env_.get();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(LogFileName(dbname_, log_number), &file);
  if (!s.ok()) return s;

  Status wal_status;
  WalRecoveryReporter reporter;
  reporter.status = &wal_status;
  reporter.paranoid = options_.paranoid_checks;
  log::Reader reader(file.get(), &reporter, true);

  Slice record;
  std::string scratch;
  WriteBatch batch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) continue;  // malformed header
    WriteBatchInternal::SetContents(&batch, record);
    s = WriteBatchInternal::InsertInto(&batch, mem_);
    if (!s.ok()) return s;
    SequenceNumber last = WriteBatchInternal::Sequence(&batch) +
                          WriteBatchInternal::Count(&batch) - 1;
    *max_sequence = std::max(*max_sequence, last);
  }
  return wal_status;
}

Status DBImpl::WriteSnapshotManifest() {
  // Full-state base edit from the engine's current version.  The recorded
  // log number is the OLDEST log still carrying unflushed data.
  VersionEdit base;
  uint64_t oldest_live_log =
      old_log_numbers_.empty() ? log_number_ : *old_log_numbers_.begin();
  base.SetLogNumber(oldest_live_log);
  base.SetNextFileNumber(next_file_number_ + 1);  // reserve manifest number
  base.SetNextNodeId(next_node_id_);
  base.SetLastSequence(last_sequence_.load(std::memory_order_relaxed));
  TreeVersionPtr version = engine_->current_version();
  base.SetNumLevels(version->num_levels());
  for (int level = 0; level < version->num_levels(); level++) {
    for (const auto& node : version->level(level)) {
      NodeEdit ne;
      ne.level = level;
      ne.node_id = node->node_id;
      ne.file_number = node->file_number;
      ne.meta_end = node->meta_end;
      ne.data_bytes = node->data_bytes;
      ne.num_entries = node->num_entries;
      ne.seq_count = node->seq_count;
      ne.range_lo = node->range_lo;
      ne.range_hi = node->range_hi;
      ne.smallest_ikey = node->smallest_ikey;
      ne.largest_ikey = node->largest_ikey;
      base.AddNode(ne);
    }
  }
  uint64_t manifest_number = next_file_number_++;
  IAMDB_SYNC_POINT("DBImpl::WriteSnapshotManifest:BeforeCreate");
  manifest_ = std::make_unique<ManifestWriter>(counting_env_.get(), dbname_);
  return manifest_->Create(manifest_number, base);
}

void DBImpl::RemoveObsoleteFiles() {
  IAMDB_SYNC_POINT("DBImpl::RemoveObsoleteFiles:Start");
  // Live set: current log(s), current manifest, files referenced by the
  // engine's current version or pinned by FileLifetime refs elsewhere.
  std::set<uint64_t> live_tables;
  TreeVersionPtr version = engine_->current_version();
  for (int level = 0; level < version->num_levels(); level++) {
    for (const auto& node : version->level(level)) {
      if (node->file_number != 0) live_tables.insert(node->file_number);
    }
  }

  std::vector<std::string> children;
  counting_env_->GetChildren(dbname_, &children);
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    bool keep = true;
    switch (type) {
      case FileType::kLogFile:
        keep = (number >= log_number_) ||
               (old_log_numbers_.count(number) > 0);
        break;
      case FileType::kManifestFile:
        keep = (manifest_ != nullptr && number == manifest_->manifest_number());
        break;
      case FileType::kTableFile:
        keep = live_tables.count(number) > 0;
        break;
      case FileType::kTempFile:
        keep = false;
        break;
      case FileType::kCurrentFile:
      case FileType::kUnknown:
        keep = true;
        break;
    }
    if (!keep) {
      counting_env_->RemoveFile(dbname_ + "/" + child);
    }
  }
}

Status DestroyDB(const std::string& name, const Options& options) {
  Env* env = options.env;
  std::vector<std::string> children;
  Status s = env->GetChildren(name, &children);
  if (!s.ok()) return Status::OK();  // nothing to destroy
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type)) {
      env->RemoveFile(name + "/" + child);
    }
  }
  env->RemoveDir(name);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path

Status DB::Put(const WriteOptions& options, const Slice& key,
               const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::SwitchMemTable() {
  // Seal the outgoing WAL.  Every non-current WAL must be fully durable:
  // otherwise a later sync-acknowledged write in the new WAL could survive
  // a crash while earlier unsynced records in the old one are lost,
  // leaving a hole in the recovered history.
  if (log_file_ != nullptr) {
    Status sync_status = log_file_->Sync();
    if (!sync_status.ok()) return sync_status;
  }
  IAMDB_SYNC_POINT("DBImpl::SwitchMemTable:AfterOldWalSeal");
  uint64_t new_log_number = next_file_number_++;
  std::unique_ptr<WritableFile> lfile;
  Status s = counting_env_->NewWritableFile(
      LogFileName(dbname_, new_log_number), &lfile);
  if (!s.ok()) return s;
  IAMDB_SYNC_POINT("DBImpl::SwitchMemTable:AfterNewWal");

  if (log_number_ != 0) old_log_numbers_.insert(log_number_);
  log_file_ = std::move(lfile);
  log_ = std::make_unique<log::Writer>(log_file_.get());
  log_number_ = new_log_number;

  if (mem_ != nullptr) {
    if (mem_->num_entries() > 0) {
      assert(imm_ == nullptr);
      imm_ = mem_;
    } else {
      mem_->Unref();  // nothing to flush; don't cycle an empty imm
    }
  }
  mem_ = new MemTable();
  mem_->Ref();
  PublishReadView();
  return Status::OK();
}

void DBImpl::PublishReadView() {
  // mutex_ held (which is what serializes PublishedPtr::Store callers).
  // The release pointer swap inside Store makes the new memtable pointers
  // visible to any reader whose Acquire observes this view; superseded
  // views are reclaimed by epoch, never under a reader.
  read_view_.Store(std::make_shared<const ReadView>(
      mem_, imm_, last_sequence_.load(std::memory_order_relaxed)));
}

Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock) {
  bool allow_delay = true;
  while (true) {
    if (!bg_error_.ok()) return bg_error_;

    TreeEngine::WritePressure pressure = engine_->GetWritePressure();
    if (allow_delay && pressure == TreeEngine::WritePressure::kSlowdown) {
      // Shed 1ms to give compaction a chance (LevelDB's soft limit).
      lock.unlock();
      uint64_t t0 = counting_env_->NowMicros();
      options_.env->SleepForMicroseconds(1000);
      uint64_t waited = counting_env_->NowMicros() - t0;
      stall_micros_.fetch_add(waited, std::memory_order_relaxed);
      OpIoScope::RecordStall(waited);
      allow_delay = false;
      lock.lock();
      continue;
    }

    // Rotation threshold: the arbiter's write quota when a pooled budget is
    // configured (re-read every iteration — a rebalance may move it while
    // this writer stalls), otherwise the static node capacity.
    const uint64_t write_quota =
        arbiter_ != nullptr ? arbiter_->write_quota() : options_.node_capacity;
    if (mem_->data_bytes() < write_quota) {
      return Status::OK();
    }

    if (imm_ != nullptr || pressure == TreeEngine::WritePressure::kStop) {
      // Hard stall: wait for background progress.
      MaybeScheduleBackgroundWork();
      uint64_t t0 = counting_env_->NowMicros();
      bg_cv_.wait(lock);
      uint64_t waited = counting_env_->NowMicros() - t0;
      stall_micros_.fetch_add(waited, std::memory_order_relaxed);
      OpIoScope::RecordStall(waited);
      continue;
    }

    Status s = SwitchMemTable();
    if (!s.ok()) return s;
    MaybeScheduleBackgroundWork();
  }
}

WriteBatch* DBImpl::BuildBatchGroup(WriterItem** last_writer) {
  assert(!writers_.empty());
  WriterItem* first = writers_.front();
  WriteBatch* result = first->batch;
  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Cap group size; small writes get a smaller cap to bound their latency.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) max_size = size + (128 << 10);
  // Under a pooled budget, never build a group larger than the write quota:
  // a group that overshoots a small quota would blow the memtable well past
  // the arbiter's division before the next rotation check.
  if (arbiter_ != nullptr) {
    max_size = std::min<size_t>(max_size, arbiter_->write_quota());
  }

  *last_writer = first;
  auto iter = writers_.begin();
  ++iter;
  for (; iter != writers_.end(); ++iter) {
    WriterItem* w = *iter;
    if (w->sync && !first->sync) break;  // don't promote to sync
    if (w->batch == nullptr) continue;
    size += WriteBatchInternal::ByteSize(w->batch);
    if (size > max_size) break;
    if (result == first->batch) {
      result = &group_batch_;
      assert(WriteBatchInternal::Count(result) == 0);
      WriteBatchInternal::Append(result, first->batch);
    }
    WriteBatchInternal::Append(result, w->batch);
    *last_writer = w;
  }
  return result;
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  WriterItem w;
  w.batch = updates;
  w.sync = options.sync || options_.sync_wal;

  std::unique_lock<std::mutex> l(mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(l);
  }
  if (w.done) return w.status;

  Status status = MakeRoomForWrite(l);
  // Only the front writer (under mutex_) mutates last_sequence_, so a
  // relaxed load here sees the latest value.
  SequenceNumber last_sequence =
      last_sequence_.load(std::memory_order_relaxed);
  WriterItem* last_writer = &w;
  if (status.ok()) {
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    last_sequence += WriteBatchInternal::Count(write_batch);

    {
      // The front writer owns the log and memtable while unlocked; later
      // writers queue behind it.
      l.unlock();
      Slice contents = WriteBatchInternal::Contents(write_batch);
      IAMDB_SYNC_POINT("DBImpl::Write:BeforeWalAppend");
      status = log_->AddRecord(contents);
      IAMDB_SYNC_POINT("DBImpl::Write:AfterWalAppend");
      if (status.ok() && w.sync) {
        status = log_file_->Sync();
        IAMDB_SYNC_POINT("DBImpl::Write:AfterWalSync");
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(write_batch, mem_);
      }
      amp_stats_.RecordUserWrite(WriteBatchInternal::UserBytes(write_batch));
      if (pacer_ != nullptr) {
        pacer_->RecordIngest(WriteBatchInternal::UserBytes(write_batch));
      }
      amp_stats_.RecordWal(contents.size());
      l.lock();
    }
    if (write_batch == &group_batch_) group_batch_.Clear();
    // Release-publish AFTER the memtable insert: a reader that acquires a
    // sequence S from last_sequence_ is guaranteed to find every entry at
    // or below S in the (view's) memtables or the engine.
    last_sequence_.store(last_sequence, std::memory_order_release);
  }

  while (true) {
    WriterItem* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
  return status;
}

// ---------------------------------------------------------------------------
// Read path

DBImpl::ReadPoint::ReadPoint(const DBImpl* db, const ReadOptions& options)
    : engine_(options.snapshot == nullptr ? db->engine_.get() : nullptr) {
  if (engine_ == nullptr) {
    sequence_ = static_cast<const SnapshotImpl*>(options.snapshot)->sequence();
    return;
  }
  stamp_ = engine_->version_stamp();
  sequence_ = db->last_sequence_.load(std::memory_order_acquire);
}

bool DBImpl::ReadPoint::Stable() const {
  return engine_ == nullptr || engine_->version_stamp() == stamp_;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  Status s;
  Lookup(options, 1, &key, value, &s);
  return s;
}

void DBImpl::MultiGet(const ReadOptions& options, size_t count,
                      const Slice* keys, std::string* values,
                      Status* statuses) {
  multiget_batches_.fetch_add(1, std::memory_order_relaxed);
  multiget_keys_.fetch_add(count, std::memory_order_relaxed);
  Lookup(options, count, keys, values, statuses);
}

// Lock-free: acquires no lock the write path takes.  Ordering contract
// (docs/CONCURRENCY.md): load the snapshot sequence FIRST, the view second.
// Data only ever moves "down" (mem -> imm -> engine version), and each stage
// is installed before the previous one is retired, so consulting stages in
// the order mem, imm, engine — each loaded at or after the sequence load —
// can never miss an entry at or below the loaded sequence.  A pass loads
// the sequence once and acquires the view once for all its mem/imm probes;
// the engine sees the survivors sorted, so per-table metadata and block I/O
// coalesce across the batch.
void DBImpl::Lookup(const ReadOptions& options, size_t count,
                    const Slice* keys, std::string* values,
                    Status* statuses) {
  // A request and the key it looks up; the key is rebuilt at each pass's
  // sequence (LookupKey can be neither moved nor assigned).
  struct Slot {
    // User-provided, so the vector's value-initialization does not
    // zero-fill the key buffer first.
    Slot() {}
    std::optional<LookupKey> lkey;
    MultiGetRequest req;
  };
  // Every Get and most MultiGets keep their slots on the stack; a larger
  // batch spills to the heap.
  constexpr size_t kInlineKeys = 16;
  alignas(Slot) std::byte
      arena[kInlineKeys * (sizeof(Slot) + sizeof(MultiGetRequest*))];
  std::pmr::monotonic_buffer_resource memory(arena, sizeof(arena));
  std::pmr::vector<Slot> slots(count, &memory);
  std::pmr::vector<MultiGetRequest*> pending(&memory);
  pending.reserve(count);
  MultiGetContext batch;
  ReadOptions batch_options = options;
  batch_options.batch = &batch;

  for (;;) {
    const ReadPoint read_point(this, options);
    pending.clear();
    {
      // Epoch guard, not a refcount: the view (and the memtable references
      // it pins) stays alive while the guard is held.  Dropped before the
      // engine probe so block I/O never delays view reclamation.
      auto view = read_view_.Acquire();
      for (size_t i = 0; i < count; ++i) {
        // Every pass resolves every key afresh, so the whole batch is read
        // at this pass's one read point.
        MultiGetRequest& req = slots[i].req;
        req = MultiGetRequest();
        slots[i].lkey.emplace(keys[i], read_point.sequence());
        req.lkey = &*slots[i].lkey;
        req.value = &values[i];
        Status s;
        if (view->mem->Get(*req.lkey, req.value, &s) ||
            (view->imm != nullptr &&
             view->imm->Get(*req.lkey, req.value, &s))) {
          req.state = s.ok() ? MultiGetRequest::State::kFound
                             : MultiGetRequest::State::kDeleted;
        } else {
          pending.push_back(&req);
        }
      }
    }

    if (!pending.empty()) {
      // Engine contract: requests sorted by internal key.  Every key
      // carries the same snapshot sequence, so user-key order suffices
      // (and keeps duplicate keys adjacent).
      std::sort(pending.begin(), pending.end(),
                [](const MultiGetRequest* a, const MultiGetRequest* b) {
                  return a->lkey->user_key().compare(b->lkey->user_key()) < 0;
                });
      engine_->MultiGet(batch_options, pending.data(), pending.size());
    }

    IAMDB_SYNC_POINT("DBImpl::Lookup:BeforeStampCheck");
    // Optimistic validation against compaction GC: a compaction that STARTS
    // after the sequence load may capture a larger smallest-snapshot and
    // drop the newest entry at or below that sequence (its shadower being
    // above it).  A found value or tombstone is always genuine; a key found
    // nowhere needs a stable read point, else the batch takes another pass
    // at a fresh sequence — all of it, so no answer mixes two read points.
    if (!AnyPending(pending.data(), pending.size()) || read_point.Stable()) {
      break;
    }
    // A cache-only read stays bounded: the retry belongs to the full read
    // its caller falls back to.
    if (options.cache_only) {
      for (MultiGetRequest* r : pending) {
        if (!r->resolved()) {
          r->status = Status::Incomplete("version changed during read");
        }
      }
      break;
    }
  }

  if (batch.coalesced_reads > 0) {
    multiget_coalesced_reads_.fetch_add(batch.coalesced_reads,
                                        std::memory_order_relaxed);
    multiget_coalesced_blocks_.fetch_add(batch.coalesced_blocks,
                                         std::memory_order_relaxed);
  }
  for (size_t i = 0; i < count; ++i) {
    const MultiGetRequest& req = slots[i].req;
    if (!req.status.ok()) {
      statuses[i] = req.status;
    } else if (req.state == MultiGetRequest::State::kFound) {
      statuses[i] = Status::OK();
    } else {  // deleted, or absent everywhere
      statuses[i] = Status::NotFound(Slice());
    }
  }

  // Arbiter heartbeat for read-dominated workloads (one clock read when
  // due-check fails; try-lock when due, so the hot path never blocks).
  // Cache-only reads leave it to the full reads, so no retune runs on a
  // serving thread that must not stall.
  if (!options.cache_only && arbiter_ != nullptr && arbiter_->RetuneDue()) {
    MaybeRebalanceMemoryFromRead();
  }
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options) {
  std::vector<Iterator*> iters;
  {
    // The guard only needs to outlive iterator construction: each
    // MemTableIterator takes its own reference on the table.
    auto view = read_view_.Acquire();
    iters.push_back(view->mem->NewIterator());
    if (view->imm != nullptr) {
      iters.push_back(view->imm->NewIterator());
    }
  }
  engine_->AddIterators(options, &iters);
  return NewMergingIterator(&icmp_, iters.data(),
                            static_cast<int>(iters.size()));
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  // Same ordering and compaction-GC hazard as Lookup: a version installed
  // between the sequence load and AddIterators may already have dropped
  // entries at or below that sequence.  Once assembled at a stable read
  // point the iterator pins its version, so the hazard is construction-only.
  for (;;) {
    const ReadPoint read_point(this, options);
    Iterator* internal_iter = NewInternalIterator(options);
    if (read_point.Stable()) {
      return NewDBIterator(internal_iter, read_point.sequence());
    }
    delete internal_iter;
  }
}

const Snapshot* DBImpl::GetSnapshot() {
  // snapshots_mu_ only: snapshot creation/release never contends with the
  // writer queue.  The sequence is loaded inside the lock so concurrent
  // GetSnapshot calls insert in monotone order (SnapshotList requires it).
  std::lock_guard<std::mutex> l(snapshots_mu_);
  return snapshots_.New(last_sequence_.load(std::memory_order_acquire));
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  std::lock_guard<std::mutex> l(snapshots_mu_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

// ---------------------------------------------------------------------------
// Background work

void DBImpl::MaybeScheduleBackgroundWork() {
  if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
    return;
  }
  // Adaptive pacing: every scheduling pass is a chance to retune — this is
  // where debt changes (rotations, job completions).  RetuneDue() keeps the
  // off-interval cost to one clock read; MaybeRetune is non-blocking (the
  // limiter mutex is a leaf lock), so holding mutex_ here is fine.
  if (pacer_ != nullptr && pacer_->RetuneDue()) {
    pacer_->MaybeRetune(engine_->CompactionDebtBytes());
  }
  // Memory arbiter rides the same piggyback: scheduling passes happen on
  // every write-side event that could move its signals (rotations, stalls,
  // job completions).  Cache SetCapacity only takes shard (leaf) locks.
  MaybeRebalanceMemory();
  // Flush lane: one dedicated high-lane worker whenever an imm is pending.
  // Flushes serialize on the single imm slot, so one worker is always
  // enough — and the high lane guarantees it never queues behind merges.
  if (imm_ != nullptr && !flush_scheduled_) {
    flush_scheduled_ = true;
    if (!pool_->Schedule(ThreadPool::Lane::kHigh, [this] {
          BackgroundCall(TreeEngine::WorkLane::kFlush);
        })) {
      // Pool already shutting down (DB teardown): drop the slot; the
      // destructor drains outstanding work itself.
      flush_scheduled_ = false;
      return;
    }
  }
  // Compaction lane: exactly one worker per job the engine could start
  // right now given what is already running (busy-marking simulated by
  // RunnableCompactions) — not one per pool slot, which used to wake
  // workers that immediately found every job conflicted and exited.
  int slots = pool_->num_threads() - compactions_scheduled_;
  if (slots <= 0) return;
  int runnable = engine_->RunnableCompactions(slots);
  for (int i = 0; i < runnable; i++) {
    compactions_scheduled_++;
    if (!pool_->Schedule(ThreadPool::Lane::kLow, [this] {
          BackgroundCall(TreeEngine::WorkLane::kCompaction);
        })) {
      compactions_scheduled_--;
      break;
    }
  }
}

void DBImpl::MaybeRebalanceMemory() {
  // mutex_ held.  OnMemoryRetune only fires when the division actually
  // moved — the AMT tuner re-run reads the new cache capacity.
  if (arbiter_ == nullptr || !arbiter_->RetuneDue()) return;
  if (arbiter_->MaybeRebalance(stall_micros_.load(std::memory_order_relaxed),
                               engine_->CompactionDebtBytes())) {
    engine_->OnMemoryRetune();
  }
}

void DBImpl::MaybeRebalanceMemoryFromRead() {
  // Read-only workloads never enter MaybeScheduleBackgroundWork, so the
  // read path gives the arbiter a heartbeat.  Get stays lock-free: this is
  // only called after a cheap RetuneDue clock check, and backs off rather
  // than blocking when writers hold the mutex (they will retune anyway).
  std::unique_lock<std::mutex> l(mutex_, std::try_to_lock);
  if (!l.owns_lock()) return;
  MaybeRebalanceMemory();
}

bool DBImpl::ForceMemoryStep(MemoryArbiter::Shift direction) {
  if (arbiter_ == nullptr) return false;
  std::lock_guard<std::mutex> l(mutex_);
  bool moved = arbiter_->ForceStep(direction);
  if (moved) engine_->OnMemoryRetune();
  return moved;
}

void DBImpl::BackgroundCall(TreeEngine::WorkLane lane) {
  std::unique_lock<std::mutex> l(mutex_);
  while (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok()) {
    bool did_work = false;
    Status s = engine_->BackgroundWork(lane, &did_work);
    if (!s.ok()) {
      bg_error_ = s;
      break;
    }
    if (!did_work) break;
    bg_cv_.notify_all();
    // One flush per wakeup: the next imm (if any) gets a fresh worker from
    // the rescheduling pass below, keeping the accounting one-to-one.
    if (lane == TreeEngine::WorkLane::kFlush) break;
  }
  if (lane == TreeEngine::WorkLane::kFlush) {
    flush_scheduled_ = false;
  } else {
    compactions_scheduled_--;
  }
  // Defense in depth: if runnable work appeared while this worker was
  // deciding to exit (e.g. it skipped jobs that were busy on another
  // thread), hand it to a fresh worker rather than waiting for the next
  // write to schedule one.
  if (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok()) {
    MaybeScheduleBackgroundWork();
  }
  bg_cv_.notify_all();
}

void DBImpl::ImmFlushed() {
  // Mutex held by caller (engine).  The engine has already installed the
  // tree version containing the imm's data, so the view published here
  // (without the imm) still lets readers find everything: a reader that
  // sees the new view synchronizes with this thread and therefore also
  // sees the new engine version.
  if (imm_ != nullptr) {
    imm_->Unref();
    imm_ = nullptr;
  }
  PublishReadView();
  IAMDB_SYNC_POINT("DBImpl::ImmFlushed:BeforeWalRemove");
  // WALs older than the current log are covered by flushed data.
  for (uint64_t old : old_log_numbers_) {
    counting_env_->RemoveFile(LogFileName(dbname_, old));
  }
  old_log_numbers_.clear();
  bg_cv_.notify_all();
}

Status DBImpl::LogEdit(VersionEdit* edit) {
  edit->SetNextFileNumber(next_file_number_);
  edit->SetNextNodeId(next_node_id_);
  edit->SetLastSequence(last_sequence_.load(std::memory_order_relaxed));
  IAMDB_SYNC_POINT("DBImpl::LogEdit:BeforeManifestAppend");
  // Always synced: edits gate the deletion of the WALs and input tables
  // that carry the same data, so an unsynced edit could lose acknowledged
  // writes across a crash (sync_wal only governs per-write WAL syncs).
  Status s = manifest_->Append(*edit, true);
  IAMDB_SYNC_POINT("DBImpl::LogEdit:AfterManifestAppend");
  return s;
}

Status DBImpl::WaitForQuiescence() {
  std::unique_lock<std::mutex> l(mutex_);
  while (bg_error_.ok() && (imm_ != nullptr || engine_->NeedsCompaction() ||
                            ScheduledWorkers() > 0)) {
    MaybeScheduleBackgroundWork();
    bg_cv_.wait(l);
  }
  return bg_error_;
}

Status DBImpl::FlushAll() {
  {
    std::unique_lock<std::mutex> l(mutex_);
    if (mem_->num_entries() > 0) {
      while (imm_ != nullptr && bg_error_.ok()) {
        MaybeScheduleBackgroundWork();
        bg_cv_.wait(l);
      }
      if (!bg_error_.ok()) return bg_error_;
      Status s = SwitchMemTable();
      if (!s.ok()) return s;
      MaybeScheduleBackgroundWork();
    }
  }
  return WaitForQuiescence();
}

// ---------------------------------------------------------------------------
// Stats

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  char buf[160];
  if (property == Slice("iamdb.stats")) {
    *value = amp_stats_.ToString();
    DbStats stats = GetStats();
    std::snprintf(buf, sizeof(buf),
                  "space=%.1fMB cache=%.1f/%.1fMB hit-rate=%.1f%% "
                  "stalls=%.1fs\n",
                  stats.space_used_bytes / 1048576.0,
                  stats.cache_usage / 1048576.0,
                  options_.block_cache_capacity / 1048576.0,
                  100.0 * stats.cache_hits /
                      std::max<uint64_t>(1, stats.cache_hits +
                                                stats.cache_misses),
                  stats.stall_micros / 1e6);
    value->append(buf);
    if (stats.arbiter_budget_bytes > 0) {
      std::snprintf(buf, sizeof(buf),
                    "arbiter budget=%.1fMB write=%.1fMB read=%.1fMB "
                    "retunes=%llu shifts=%llu\n",
                    stats.arbiter_budget_bytes / 1048576.0,
                    stats.arbiter_write_bytes / 1048576.0,
                    stats.arbiter_read_bytes / 1048576.0,
                    static_cast<unsigned long long>(stats.arbiter_retunes),
                    static_cast<unsigned long long>(stats.arbiter_shifts));
      value->append(buf);
    }
    if (stats.compress_input_bytes > 0) {
      std::snprintf(buf, sizeof(buf),
                    "compression=%s ratio=%.2fx stored=%.1fMB "
                    "(columnar=%llu lz=%llu raw=%llu blocks)\n",
                    CompressionTypeName(options_.table.compression),
                    static_cast<double>(stats.compress_input_bytes) /
                        std::max<uint64_t>(1, stats.compress_stored_bytes),
                    stats.compress_stored_bytes / 1048576.0,
                    static_cast<unsigned long long>(
                        stats.compress_columnar_blocks),
                    static_cast<unsigned long long>(stats.compress_lz_blocks),
                    static_cast<unsigned long long>(
                        stats.compress_raw_fallback_blocks));
      value->append(buf);
    }
    return true;
  }
  if (property == Slice("iamdb.levels")) {
    TreeVersionPtr version = engine_->current_version();
    for (int level = 0; level < version->num_levels(); level++) {
      uint64_t sequences = 0, bytes = 0;
      for (const auto& node : version->level(level)) {
        sequences += node->seq_count;
        bytes += node->data_bytes;
      }
      std::snprintf(buf, sizeof(buf), "L%d: %zu nodes %.1fMB %llu sequences\n",
                    level + (options_.engine == EngineType::kAmt ? 1 : 0),
                    version->level(level).size(), bytes / 1048576.0,
                    static_cast<unsigned long long>(sequences));
      value->append(buf);
    }
    DbStats stats = GetStats();
    if (stats.mixed_level > 0) {
      std::snprintf(buf, sizeof(buf), "mixed level m=%d k=%d\n",
                    stats.mixed_level, stats.mixed_level_k);
      value->append(buf);
    }
    return true;
  }
  if (property == Slice("iamdb.tree-digest")) {
    // Deterministic content digest of the published tree, independent of
    // node ids, file numbers and file layout: per node, its shape and a
    // CRC of its merged record stream; per level, a CRC of the level's
    // concatenated record stream (in node order).  subcompaction_test
    // compares digests across different max_subcompactions settings —
    // node-level lines for the AMT engine (sharding preserves node
    // boundaries), "stream" lines for the leveled engine (sharding only
    // moves file cuts).
    TreeVersionPtr version = engine_->current_version();
    ReadOptions digest_read;
    digest_read.fill_cache = false;
    for (int level = 0; level < version->num_levels(); level++) {
      uint32_t level_crc = 0;
      uint64_t level_entries = 0;
      for (const auto& node : version->level(level)) {
        uint32_t node_crc = 0;
        uint64_t node_entries = 0;
        if (!node->empty()) {
          std::shared_ptr<MSTableReader> reader;
          Status s = node->OpenReader(counting_env_.get(), options_.table,
                                      &icmp_, dbname_, &reader);
          if (!s.ok()) return false;
          std::vector<Iterator*> iters;
          reader->AddSequenceIterators(digest_read, &iters);
          std::unique_ptr<Iterator> merged(NewMergingIterator(
              &icmp_, iters.data(), static_cast<int>(iters.size())));
          for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
            node_crc = crc32c::Extend(node_crc, merged->key().data(),
                                      merged->key().size());
            node_crc = crc32c::Extend(node_crc, merged->value().data(),
                                      merged->value().size());
            level_crc = crc32c::Extend(level_crc, merged->key().data(),
                                       merged->key().size());
            level_crc = crc32c::Extend(level_crc, merged->value().data(),
                                       merged->value().size());
            node_entries++;
          }
          if (!merged->status().ok()) return false;
        }
        std::snprintf(buf, sizeof(buf),
                      "L%d node lo=%s hi=%s entries=%llu seqs=%u crc=%08x\n",
                      level, node->range_lo.c_str(), node->range_hi.c_str(),
                      static_cast<unsigned long long>(node_entries),
                      node->seq_count, node_crc);
        value->append(buf);
        level_entries += node_entries;
      }
      std::snprintf(buf, sizeof(buf), "L%d stream entries=%llu crc=%08x\n",
                    level, static_cast<unsigned long long>(level_entries),
                    level_crc);
      value->append(buf);
    }
    return true;
  }
  if (property == Slice("iamdb.approximate-memory-usage")) {
    uint64_t total = block_cache_->usage();
    if (compressed_block_cache_ != nullptr) {
      total += compressed_block_cache_->usage();
    }
    {
      auto view = read_view_.Acquire();
      total += view->mem->ApproximateMemoryUsage();
      if (view->imm != nullptr) total += view->imm->ApproximateMemoryUsage();
    }
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(total));
    *value = buf;
    return true;
  }
  return false;
}

DbStats DBImpl::GetStats() {
  DbStats stats;
  stats.total_write_amp = amp_stats_.TotalWriteAmp();
  stats.user_bytes = amp_stats_.user_bytes();
  int max_level = amp_stats_.MaxRecordedLevel();
  for (int i = 0; i <= max_level; i++) {
    stats.level_write_amp.push_back(amp_stats_.LevelWriteAmp(i));
  }

  TreeVersionPtr version = engine_->current_version();
  uint64_t space = 0;
  for (int level = 0; level < version->num_levels(); level++) {
    stats.level_bytes.push_back(version->LevelBytes(level));
    stats.level_node_counts.push_back(
        static_cast<int>(version->level(level).size()));
    for (const auto& node : version->level(level)) {
      // Physical footprint: the whole valid file including dead zones.
      space += node->meta_end;
    }
  }
  stats.space_used_bytes = space;
  stats.cache_usage = block_cache_->usage();
  stats.cache_hits = block_cache_->hits();
  stats.cache_misses = block_cache_->misses();
  stats.compress_input_bytes =
      compression_stats_.input_bytes.load(std::memory_order_relaxed);
  stats.compress_stored_bytes =
      compression_stats_.stored_bytes.load(std::memory_order_relaxed);
  stats.compress_columnar_blocks =
      compression_stats_.columnar_blocks.load(std::memory_order_relaxed);
  stats.compress_lz_blocks =
      compression_stats_.lz_blocks.load(std::memory_order_relaxed);
  stats.compress_raw_fallback_blocks =
      compression_stats_.raw_fallback_blocks.load(std::memory_order_relaxed);
  stats.decompressed_blocks =
      compression_stats_.decompressed_blocks.load(std::memory_order_relaxed);
  stats.decompress_micros =
      compression_stats_.decompress_micros.load(std::memory_order_relaxed);
  if (compressed_block_cache_ != nullptr) {
    stats.compressed_cache_usage = compressed_block_cache_->usage();
    stats.compressed_cache_hits = compressed_block_cache_->hits();
    stats.compressed_cache_misses = compressed_block_cache_->misses();
  }
  stats.stall_micros = stall_micros_.load(std::memory_order_relaxed);
  stats.io = io_stats_.Snapshot();
  stats.flush_queue_depth = pool_->QueueDepth(ThreadPool::Lane::kHigh);
  stats.compact_queue_depth = pool_->QueueDepth(ThreadPool::Lane::kLow);
  stats.subcompactions_run = subcompactions_.load(std::memory_order_relaxed);
  if (rate_limiter_ != nullptr) {
    stats.rate_limiter_wait_micros = rate_limiter_->total_wait_micros();
    stats.rate_limiter_paced_wall_micros =
        rate_limiter_->total_paced_wall_micros();
    stats.pacer_rate_bytes_per_sec = rate_limiter_->bytes_per_second();
  }
  if (pacer_ != nullptr) {
    stats.pacer_ingest_bytes_per_sec = pacer_->ingest_rate();
    stats.pacer_retunes = pacer_->retunes();
  }
  if (arbiter_ != nullptr) {
    stats.arbiter_budget_bytes = arbiter_->budget();
    stats.arbiter_write_bytes = arbiter_->write_quota();
    stats.arbiter_read_bytes = arbiter_->read_target();
    stats.arbiter_retunes = arbiter_->retunes();
    stats.arbiter_shifts = arbiter_->shifts();
  }
  stats.multiget_batches = multiget_batches_.load(std::memory_order_relaxed);
  stats.multiget_keys = multiget_keys_.load(std::memory_order_relaxed);
  stats.multiget_coalesced_reads =
      multiget_coalesced_reads_.load(std::memory_order_relaxed);
  stats.multiget_coalesced_blocks =
      multiget_coalesced_blocks_.load(std::memory_order_relaxed);
  engine_->FillStats(&stats);
  return stats;
}

}  // namespace iamdb
