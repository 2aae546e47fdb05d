// AmtEngine: the Log-Structured Append-tree (LSA) and the Integrated
// Append/Merge-tree (IAM) — the paper's contribution.
//
// Structure (Sec 4.1): the memtable is L0; on-disk levels L1..Ln hold
// disjoint-range MSTable nodes, at most t^i nodes in Li (internal), fewer
// than t^n at the leaf.  A node holds up to Ct bytes across one or more
// sorted sequences.
//
// Operations (Sec 4.2):
//  * flush   — a full node's data is merged in memory, partitioned by the
//              key ranges of the overlapping children, and appended to (or
//              merged with) them; the node itself remains as an empty
//              range placeholder.  A node with no children moves down by a
//              metadata-only edit (free sequential loads).
//  * split   — a full node with >= 2t children rewrites itself into two
//              nodes with half the children each (bounds the worst write
//              case).
//  * combine — when Ni > t^i, the node with the smallest Tcn (children
//              covered by it and its two neighbours, <= 3t) flushes all its
//              data down and disappears, restoring Ni = t^i.
//
// Append-vs-merge policy (Sec 5.1):
//  * LSA: append unless the child is full (leaf children merge when full).
//  * IAM: levels above the mixed level m append; the mixed level appends
//    until a child holds k sequences, then merges; levels below m always
//    merge.  (m, k) auto-tunes to the cache budget per Eq. 1-2.
//
// Parallelism: a flush job's per-child work is independent — the partition
// step assigns each record to exactly one child — so FlushInto shards the
// non-empty children across the thread pool (partitioned subcompactions)
// and installs every shard's output in ONE VersionEdit.  Job-level
// conflicts are prevented by busy-marking node ids under the DB mutex;
// shard-level conflicts cannot exist because shards own disjoint children.
#pragma once

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/amt/amt_tuner.h"
#include "core/compaction_stream.h"
#include "core/tree_engine.h"
#include "stats/amp_stats.h"
#include "util/published_ptr.h"

namespace iamdb {

class DBImpl;

class AmtEngine final : public TreeEngine {
 public:
  explicit AmtEngine(DBImpl* db);

  Status Recover(const RecoveredState& state) override;
  bool NeedsCompaction() const override;
  int RunnableCompactions(int max) const override;
  Status BackgroundWork(WorkLane lane, bool* did_work) override;
  void MultiGet(const ReadOptions& options, MultiGetRequest* const* reqs,
                size_t count) override;
  void AddIterators(const ReadOptions& options,
                    std::vector<Iterator*>* iters) override;
  WritePressure GetWritePressure() const override;
  uint64_t CompactionDebtBytes() const override;
  void FillStats(DbStats* stats) const override;
  void OnMemoryRetune() override { RecomputeMixedLevel(); }
  TreeVersionPtr current_version() const override {
    return current_.Snapshot();
  }
  Status CheckInvariants(bool quiescent) const override;

  // Current mixed-level decision (recomputed when the version changes).
  MixedLevelChoice mixed_level() const {
    return mixed_.load(std::memory_order_acquire);
  }

 private:
  struct Job {
    enum class Type { kGrow, kFlushImm, kFlushNode, kSplit, kCombine } type;
    int level = -1;  // version index of `node` (paper level - 1)
    NodePtr node;
    std::vector<NodePtr> targets;  // overlapping children (next level)
  };

  // Structural changes accumulated while flushing into a target set.
  // Subcompaction shards fill per-shard deltas (removed/added/obsolete
  // only); FlushInto merges them in child order and builds the edit, so
  // the installed VersionEdit is identical however shards interleave.
  struct FlushDelta {
    std::vector<std::pair<int, uint64_t>> removed;
    std::vector<std::pair<int, NodePtr>> added;
    std::vector<std::shared_ptr<FileLifetime>> obsolete;
    VersionEdit edit;
    int new_num_levels = 0;
  };

  using RecordBuffer = std::vector<std::pair<std::string, std::string>>;

  // Paper-level (1-based) classification.
  bool IsAppendLevel(int paper_level) const;
  bool IsMixedLevel(int paper_level) const;

  int Fanout() const;
  uint64_t NodeCapacity() const;
  uint64_t LevelNodeLimit(int version_index) const;  // t^(index+1)

  // Pickers (mutex held).  Compaction lane: deepest structural violation
  // first (grow, combine, full-node flush/split), skipping jobs whose
  // nodes appear in `busy`.  Flush lane: the imm flush, or — when a full
  // internal L1 child blocks it (Sec 4.2.1 precondition) — that child's
  // flush job, run with flush priority so the stalled writer never waits
  // behind the merge queue.
  bool PickCompactionJob(const TreeVersion& version,
                         const std::set<uint64_t>& busy, Job* job) const;
  bool PickFlushJob(const TreeVersion& version, Job* job);
  // A full node flushes into its children, or splits once it has
  // split_child_factor * fanout of them (Sec 4.2.2).
  Job::Type FlushOrSplit(const std::vector<NodePtr>& children) const;

  static bool AnyBusy(const Job& job, const std::set<uint64_t>& busy);
  static void MarkBusyIn(const Job& job, std::set<uint64_t>* busy);
  void MarkBusy(const Job& job);
  void ClearBusy(const Job& job);

  // Children of `node` (at version index `level`) = next-level nodes whose
  // range overlaps the node's range.
  std::vector<NodePtr> Children(const TreeVersion& version, int level,
                                const NodeMeta& node) const;

  // Executors (mutex held on entry/exit, unlocked around I/O).  `lane` is
  // the scheduler lane the job runs on: it selects the fan-out lane for
  // subcompaction shards and the rate-limiter priority of the job's I/O.
  Status RunGrow();
  Status RunFlushImm(const Job& job, WorkLane lane);
  Status RunFlushNode(const Job& job, bool destroy_parent, WorkLane lane);
  Status RunSplit(const Job& job);

  // Drains a visibility-filtered record stream into the range-sorted
  // targets at version index `tlevel`, appending or merging per policy.
  // Shards non-empty targets across the pool when max_subcompactions
  // allows.  Mutex NOT held.
  Status FlushInto(CompactionStream* source, int tlevel,
                   const std::vector<NodePtr>& targets, bool is_leaf,
                   WriteReason append_reason, WorkLane lane,
                   FlushDelta* delta);

  // One target's append-or-merge step (one subcompaction unit).  Runs on
  // pool helpers or the job thread; touches only its own target/records/
  // fragment, allocates file/node numbers under short mutex sections.
  Status FlushOneTarget(const NodePtr& target, const RecordBuffer& records,
                        int tlevel, bool is_leaf, WriteReason append_reason,
                        SequenceNumber smallest_snapshot, FlushDelta* frag);

  // Apply a structural delta to the latest version and publish.
  void ApplyToVersion(
      const std::vector<std::pair<int, uint64_t>>& removed,
      const std::vector<std::pair<int, NodePtr>>& added, int new_num_levels);

  void RecomputeMixedLevel();

  NodePtr MakeEmptyNode(uint64_t node_id, const std::string& lo,
                        const std::string& hi) const;

  DBImpl* db_;
  // Stores happen at open time or under the DB mutex (ApplyToVersion) —
  // the serialization PublishedPtr requires.  Reads take an epoch guard.
  PublishedPtr<const TreeVersion> current_;
  std::set<uint64_t> busy_nodes_;  // node ids owned by running jobs
  bool imm_flush_running_ = false;
  // Written under the DB mutex; read lock-free from reads/stats/flushes.
  std::atomic<MixedLevelChoice> mixed_{MixedLevelChoice{}};
  // Times the stored (m,k) changed after open — tree growth or an arbiter
  // re-division moving the tuner's budget.  Recover zeroes it so the
  // initial computation over recovered state does not count.
  std::atomic<uint64_t> mk_retunes_{0};
};

}  // namespace iamdb
