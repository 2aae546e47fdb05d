// Public API of IamDB — a persistent, crash-recovering, MVCC key-value
// store whose on-disk organisation is selected by Options::engine:
// a leveled LSM (the paper's LevelDB/RocksDB baseline), the LSA-tree, or
// the IAM-tree.
//
//   iamdb::Options options;
//   options.env = iamdb::Env::Default();
//   options.engine = iamdb::EngineType::kAmt;      // IAM by default
//   std::unique_ptr<iamdb::DB> db;
//   auto s = iamdb::DB::Open(options, "/tmp/mydb", &db);
//   db->Put({}, "key", "value");
//   std::string v;
//   db->Get({}, "key", &v);
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/db_stats.h"
#include "core/options.h"
#include "memtable/write_batch.h"
#include "stats/amp_stats.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace iamdb {

class Snapshot;

// Aggregation across DB instances (ShardedDB sums its shards' stats): each
// metric combines by the StatMerge its line in IAMDB_DB_STATS
// (core/db_stats.h) gives it.  Adding a metric is that one list line plus
// its fill in DBImpl::GetStats; this operator, the wire codec, the CLI and
// tests/db_stats_test.cc all follow the list.
DbStats& operator+=(DbStats& lhs, const DbStats& rhs);

class DB {
 public:
  // Opens (creating if allowed) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  DB() = default;
  virtual ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value);
  virtual Status Delete(const WriteOptions& options, const Slice& key);
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  // NotFound if the key is absent (or deleted) at the read point.
  // Incomplete if options.cache_only and the answer needs the device.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Batched point lookup: fills statuses[i]/values[i] for keys[i], each
  // exactly what Get(options, keys[i], &values[i]) would return at the
  // same read point.  All keys are read at ONE snapshot (options.snapshot
  // if set, else the committed state when the batch starts); the read view
  // is acquired once and table I/O coalesces across the batch.  With
  // options.cache_only each key that needs the device is Incomplete, the
  // others are answered as usual.
  virtual void MultiGet(const ReadOptions& options, size_t count,
                        const Slice* keys, std::string* values,
                        Status* statuses) = 0;

  // Bidirectional iterator over user keys (forward range scans are the
  // paper's workloads; reverse iteration is supported too).  Caller
  // deletes the iterator before the DB is closed.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // Blocks until all pending flushes/compactions are complete (benchmark
  // settling; the paper's "stable performance" measurements).
  virtual Status WaitForQuiescence() = 0;

  // Forces the immutable memtable (if any) plus current memtable contents
  // to be flushed and compactions drained.
  virtual Status FlushAll() = 0;

  virtual DbStats GetStats() = 0;
  virtual const AmpStats& amp_stats() const = 0;

  // Human-readable introspection (LevelDB-style).  Supported properties:
  //   "iamdb.stats"   — amplification summary (per level / per reason)
  //   "iamdb.levels"  — node count, bytes and sequences per level
  //   "iamdb.approximate-memory-usage" — memtable + cache bytes
  // Returns false for unknown properties.
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Validates the engine's structural invariants (testing hook).  Pass
  // quiescent=true only after WaitForQuiescence.
  virtual Status CheckInvariants(bool quiescent) = 0;

  // ---- sharding surface (ShardedDB overrides; docs/SHARDING.md) ----
  // Hash-partition fan-out of this instance: 1 for a plain DBImpl, N for a
  // ShardedDB.  Shard-scoped SCAN requests on the wire use these so a
  // cluster-aware client can stream one shard at a time and merge
  // client-side.
  virtual int NumShards() const { return 1; }
  // Iterator over just one shard's keys (shard in [0, NumShards())).
  // For an unsharded DB, shard 0 is the whole keyspace.
  virtual Iterator* NewShardIterator(const ReadOptions& options, int shard) {
    if (shard != 0) {
      return NewErrorIterator(Status::InvalidArgument("shard out of range"));
    }
    return NewIterator(options);
  }
};

// Deletes all files of the named database.
Status DestroyDB(const std::string& name, const Options& options);

}  // namespace iamdb
