// LeveledEngine: classic leveled LSM compaction — the paper's baseline.
//
// L0 holds whole-memtable files with overlapping ranges; L1..L6 hold
// disjoint single-sequence nodes.  Compaction picks the level with the
// highest fullness score and merges one file (all files for L0) with the
// overlapping files one level down.
//
// Two behaviour profiles, per the paper's evaluation:
//  * LevelDB-flavour (strict_level_limits=false): stalls only on L0 file
//    count, so deeper levels overflow under write-heavy load (Sec 6.2's
//    "serious data overflows" and long tuning phases).
//  * RocksDB-flavour (strict_level_limits=true): adds pending-compaction-
//    debt slowdown/stop thresholds, preventing overflow at the price of
//    write stalls; combine with background_threads > 1 for "R-4t".
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/tree_engine.h"
#include "util/published_ptr.h"

namespace iamdb {

class DBImpl;

class LeveledEngine final : public TreeEngine {
 public:
  static constexpr int kNumLevels = 7;

  explicit LeveledEngine(DBImpl* db);

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
  TreeVersionPtr current_version() const override {
    return current_.Snapshot();
  }
  Status CheckInvariants(bool quiescent) const override;

 private:
  uint64_t MaxBytesForLevel(int level) const;
  // Debt a compaction of `level` would retire: L0 excess files (in
  // target_file_size units), L1+ bytes over the level limit.  0 when the
  // level is within shape.
  uint64_t LevelDebtBytes(const TreeVersion& version, int level) const;
  // Compactable level whose input+output levels are not in `busy`; -1 if
  // none qualifies.  Greedy mode (options.greedy_compaction) picks the
  // level owing the most debt bytes; classic mode the best fullness ratio.
  int PickCompactionLevel(const std::set<int>& busy) const;
  uint64_t PendingCompactionDebt() const;

  // I/O steps; called with the DB mutex held, unlock around file writes.
  Status FlushImm();
  Status CompactLevel(int level);

  // One key-range shard of a partitioned compaction: merges all of
  // `inputs0` with `inputs1_group` over the user-key span
  // [*start, *stop) — null bounds mean open-ended — cutting outputs at
  // target_file_size.  Runs on pool helpers; appends to *outputs and the
  // byte counters only (the caller owns the VersionEdit).  Mutex NOT held.
  Status CompactSubrange(const std::vector<NodePtr>& inputs0,
                         const std::vector<NodePtr>& inputs1_group,
                         const std::string* start, const std::string* stop,
                         SequenceNumber smallest_snapshot, bool bottommost,
                         std::vector<NodePtr>* outputs,
                         uint64_t* written_bytes, uint64_t* meta_bytes);

  // Mutex held: apply removed/added to the current version and publish.
  void ApplyToVersion(const std::vector<NodePtr>& removed,
                      const std::vector<NodePtr>& added, int add_level);

  std::vector<NodePtr> OverlappingInputs(const TreeVersion& version, int level,
                                         const Slice& lo_user,
                                         const Slice& hi_user) const;

  DBImpl* db_;
  // Stores happen at open time or under the DB mutex (ApplyToVersion) —
  // the serialization PublishedPtr requires.  Reads take an epoch guard.
  PublishedPtr<const TreeVersion> current_;
  std::set<int> busy_levels_;       // input+output levels of running jobs
  bool imm_flush_running_ = false;
  std::vector<std::string> compact_pointer_;  // round-robin cursor per level
};

}  // namespace iamdb
