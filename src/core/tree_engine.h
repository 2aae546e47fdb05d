// TreeEngine: the on-disk organisation behind one DBImpl.  The write path,
// WAL, memtables, snapshots and group commit are shared (DBImpl); engines
// own structure, compaction policy and the disk read path:
//   LeveledEngine — classic leveled LSM (the paper's LevelDB/RocksDB
//                   baseline, with overflow/stall behaviour knobs), and
//   AmtEngine     — the LSA/IAM append-merge tree (the contribution).
#pragma once

#include <vector>

#include "core/dbformat.h"
#include "core/manifest.h"
#include "core/multiget.h"
#include "core/options.h"
#include "core/version.h"
#include "table/iterator.h"
#include "util/status.h"

namespace iamdb {

struct DbStats;
class DBImpl;

class TreeEngine {
 public:
  enum class WritePressure { kNone, kSlowdown, kStop };

  // Which scheduler lane a background worker serves.  kFlush work is what
  // the write path hard-stalls on (imm flushes, plus any structural job
  // that must run first to unblock one); kCompaction is everything else.
  // DBImpl keeps one dedicated kFlush worker so a flush never queues
  // behind merges (docs/CONCURRENCY.md, "Two-lane background scheduling").
  enum class WorkLane { kFlush, kCompaction };

  virtual ~TreeEngine() = default;

  // Build the in-memory tree from recovered manifest state (open time; no
  // locking concerns).
  virtual Status Recover(const RecoveredState& state) = 0;

  // Whether background work beyond an immutable-memtable flush is pending.
  // Called with the DB mutex held.
  virtual bool NeedsCompaction() const = 0;

  // How many compaction-lane jobs could run RIGHT NOW without conflicting
  // with each other or with running jobs (busy-marking simulated), capped
  // at `max`.  DBImpl schedules exactly this many compaction workers
  // instead of blindly filling the pool.  DB mutex held.
  virtual int RunnableCompactions(int max) const = 0;

  // Perform one unit of background work on the given lane: kFlush runs an
  // imm flush (or a prerequisite that unblocks one), kCompaction runs one
  // compaction step.  Called with the DB mutex HELD; the implementation
  // unlocks around I/O.  *did_work=false when there was nothing runnable
  // on that lane (everything pending is busy on other threads).
  virtual Status BackgroundWork(WorkLane lane, bool* did_work) = 0;

  // Lock-free point read (no DB mutex) of a published tree version: `reqs`
  // are still-pending requests sorted by internal key, all at one snapshot
  // sequence (DBImpl::Get sends a batch of one).  Each key visits levels
  // newest first and, per level, its covering node; keys are grouped by
  // covering node so each table's bloom/index is consulted once per group
  // and cache-missing data blocks coalesce into vectored device reads.
  // Outcomes land in each request's state/status; keys absent everywhere
  // stay pending (the caller maps those to NotFound).  The caller's read
  // point keeps merges from dropping an entry the batch can see.
  virtual void MultiGet(const ReadOptions& options,
                        MultiGetRequest* const* reqs, size_t count) = 0;

  // Appends internal-key iterators covering the whole tree (no DB mutex).
  // Iterators pin the version they read.
  virtual void AddIterators(const ReadOptions& options,
                            std::vector<Iterator*>* iters) = 0;

  // Write-throttling decision (DB mutex held).
  virtual WritePressure GetWritePressure() const = 0;

  // Bytes of merge work the published version owes before the tree is back
  // within its shape thresholds (over-limit level bytes, full nodes).  The
  // adaptive pacer's feedback signal, and DbStats.pending_debt_bytes.
  // Lock-free: reads the published version, so callers may hold the DB
  // mutex or nothing at all.
  virtual uint64_t CompactionDebtBytes() const = 0;

  // Engine-specific statistics (no DB mutex; reads the published version).
  virtual void FillStats(DbStats* stats) const = 0;

  // Called after the memory arbiter re-divides the budget (DB mutex
  // held): re-derive any cached decisions that depend on memory
  // capacities.  The AMT engine re-runs the (m,k) tuner against the new
  // cache capacity; the changed mixed level takes effect at the next
  // flush/merge boundary.  Default: nothing is capacity-dependent.
  virtual void OnMemoryRetune() {}

  // Current published tree version (lock-free).
  virtual TreeVersionPtr current_version() const = 0;

  // Validates structural invariants of the published version (range
  // disjointness, node-count thresholds, node size budgets).  Counts are
  // only guaranteed at quiescence; `quiescent` enables those checks.
  virtual Status CheckInvariants(bool quiescent) const = 0;
};

}  // namespace iamdb
