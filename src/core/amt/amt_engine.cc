#include "core/amt/amt_engine.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>

#include "core/compaction_stream.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "core/level_iters.h"
#include "core/node_writer.h"
#include "util/rate_limiter.h"
#include "util/task_group.h"

namespace iamdb {

namespace {

// Sorted in-memory record buffer exposed as an Iterator (forward-only use
// inside merges).
using RecordVec = std::vector<std::pair<std::string, std::string>>;

class VectorIterator final : public Iterator {
 public:
  explicit VectorIterator(const RecordVec* records)
      : records_(records), index_(records->size()) {}

  bool Valid() const override { return index_ < records_->size(); }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = records_->empty() ? 0 : records_->size() - 1;
  }
  void Seek(const Slice& target) override {
    InternalKeyComparator cmp;
    size_t lo = 0, hi = records_->size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cmp.Compare(Slice((*records_)[mid].first), target) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    index_ = lo;
  }
  void Next() override { index_++; }
  void Prev() override {
    if (index_ == 0) {
      index_ = records_->size();
    } else {
      index_--;
    }
  }
  Slice key() const override { return Slice((*records_)[index_].first); }
  Slice value() const override { return Slice((*records_)[index_].second); }
  Status status() const override { return Status::OK(); }

 private:
  const RecordVec* records_;
  size_t index_;
};

void SortByRange(std::vector<NodePtr>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const NodePtr& a, const NodePtr& b) {
              return a->range_lo < b->range_lo;
            });
}

}  // namespace

AmtEngine::AmtEngine(DBImpl* db) : db_(db) {
  current_.Store(
      std::make_shared<const TreeVersion>(std::vector<std::vector<NodePtr>>()));
  RecomputeMixedLevel();
}

Status AmtEngine::Recover(const RecoveredState& state) {
  std::vector<std::vector<NodePtr>> levels(state.num_levels);
  for (int level = 0; level < static_cast<int>(state.nodes.size()); level++) {
    for (const NodeEdit& e : state.nodes[level]) {
      levels[level].push_back(NodeFromEdit(e, db_->env(), db_->dbname()));
    }
    SortByRange(&levels[level]);
  }
  current_.Store(std::make_shared<const TreeVersion>(std::move(levels)));
  RecomputeMixedLevel();
  // The recovered-state computation above is the baseline, not a retune.
  mk_retunes_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

int AmtEngine::Fanout() const { return db_->options().amt.fanout; }
uint64_t AmtEngine::NodeCapacity() const {
  return db_->options().node_capacity;
}

uint64_t AmtEngine::LevelNodeLimit(int version_index) const {
  uint64_t limit = 1;
  for (int i = 0; i <= version_index; i++) {
    limit *= static_cast<uint64_t>(Fanout());
  }
  return limit;
}

void AmtEngine::RecomputeMixedLevel() {
  const AmtOptions& amt = db_->options().amt;
  TreeVersionPtr version = current_version();
  const int n = version->num_levels();

  MixedLevelChoice choice;
  if (amt.policy == AmtPolicy::kLsa) {
    choice = MixedLevelChoice{n + 1, amt.k};
  } else if (!amt.auto_tune_mk) {
    int m = amt.fixed_mixed_level;
    choice = MixedLevelChoice{m <= 0 ? n + 1 : m, amt.k};
  } else {
    std::vector<uint64_t> level_bytes;
    level_bytes.reserve(n);
    for (int i = 0; i < n; i++) level_bytes.push_back(version->LevelBytes(i));
    // The tuner's M: an explicit override, else the live cache capacity —
    // which the memory arbiter moves online, so a re-division here picks
    // up the new read share (with fixed sizing it equals
    // block_cache_capacity and this is the historical behaviour).
    uint64_t budget = amt.memory_budget_bytes != 0
                          ? amt.memory_budget_bytes
                          : db_->block_cache()->capacity();
    budget = static_cast<uint64_t>(budget * amt.memory_budget_fraction);
    choice = ChooseMixedLevel(level_bytes, amt.fanout, amt.k, budget);
  }
  MixedLevelChoice old = mixed_.load(std::memory_order_relaxed);
  if (old.m != 0 && (old.m != choice.m || old.k != choice.k)) {
    mk_retunes_.fetch_add(1, std::memory_order_relaxed);
  }
  mixed_.store(choice, std::memory_order_release);
}

bool AmtEngine::IsAppendLevel(int paper_level) const {
  return paper_level < mixed_level().m;
}
bool AmtEngine::IsMixedLevel(int paper_level) const {
  return paper_level == mixed_level().m;
}

std::vector<NodePtr> AmtEngine::Children(const TreeVersion& version, int level,
                                         const NodeMeta& node) const {
  std::vector<NodePtr> result;
  if (level + 1 >= version.num_levels()) return result;
  const auto& next = version.level(level + 1);
  // Binary search the first child whose range can overlap (range-sorted,
  // disjoint): first child with range_hi >= node.range_lo.  range_hi is
  // also sorted because ranges are disjoint.
  size_t lo = 0, hi = next.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (next[mid]->range_hi < node.range_lo) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (size_t i = lo; i < next.size(); i++) {
    if (next[i]->range_lo > node.range_hi) break;
    result.push_back(next[i]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Picking

bool AmtEngine::AnyBusy(const Job& job, const std::set<uint64_t>& busy) {
  if (job.node != nullptr && busy.count(job.node->node_id)) return true;
  for (const auto& t : job.targets) {
    if (busy.count(t->node_id)) return true;
  }
  return false;
}

void AmtEngine::MarkBusyIn(const Job& job, std::set<uint64_t>* busy) {
  if (job.node != nullptr) busy->insert(job.node->node_id);
  for (const auto& t : job.targets) busy->insert(t->node_id);
}

void AmtEngine::MarkBusy(const Job& job) { MarkBusyIn(job, &busy_nodes_); }

void AmtEngine::ClearBusy(const Job& job) {
  if (job.node != nullptr) busy_nodes_.erase(job.node->node_id);
  for (const auto& t : job.targets) busy_nodes_.erase(t->node_id);
}

bool AmtEngine::PickCompactionJob(const TreeVersion& version,
                                  const std::set<uint64_t>& busy,
                                  Job* job) const {
  const int n = version.num_levels();
  const uint64_t capacity = NodeCapacity();

  // 1. Grow: the leaf level reached its node-count threshold (Sec 4.2.3
  //    pre-processing: n increases, a fresh empty leaf level appears).
  if (n > 0 &&
      version.level(n - 1).size() >= LevelNodeLimit(n - 1)) {
    job->type = Job::Type::kGrow;
    return true;
  }

  // 2. Combine: deepest internal level with too many nodes.
  for (int level = n - 2; level >= 0; level--) {
    const auto& nodes = version.level(level);
    if (nodes.size() <= LevelNodeLimit(level)) continue;
    // Candidates: nodes with two adjacent siblings and Tcn <= 3t; pick the
    // smallest Tcn (Sec 4.2.3).
    int t = Fanout();
    const bool min_tcn = db_->options().amt.combine_min_tcn;
    size_t best = SIZE_MAX;
    size_t best_tcn = SIZE_MAX;
    for (size_t i = 1; i + 1 < nodes.size(); i++) {
      NodeMeta combined;
      combined.range_lo = nodes[i - 1]->range_lo;
      combined.range_hi = nodes[i + 1]->range_hi;
      size_t tcn =
          min_tcn ? Children(version, level, combined).size() : i;
      if (tcn < best_tcn) {
        Job probe;
        probe.node = nodes[i];
        probe.targets = Children(version, level, *nodes[i]);
        if (AnyBusy(probe, busy)) continue;
        best_tcn = tcn;
        best = i;
        if (!min_tcn) break;  // naive: first available candidate
      }
    }
    if (best == SIZE_MAX) continue;  // everything busy; try other levels
    // Paper: candidates must satisfy Tcn <= 3t and the set is non-empty on
    // average; under extreme skew we still take the global minimum so the
    // node-count invariant is always restored.
    (void)t;
    job->type = Job::Type::kCombine;
    job->level = level;
    job->node = nodes[best];
    job->targets = Children(version, level, *job->node);
    return true;
  }

  // 3. Full internal nodes; split at >= 2t children.  Take the fullest
  //    node anywhere in the tree (most debt bytes retired per job).
  Job best;
  for (int level = n - 2; level >= 0; level--) {
    for (const auto& node : version.level(level)) {
      if (node->data_bytes < capacity) continue;
      if (best.node != nullptr && node->data_bytes <= best.node->data_bytes) {
        continue;
      }
      Job probe;
      probe.node = node;
      probe.targets = Children(version, level, *node);
      if (AnyBusy(probe, busy)) continue;
      // Precondition (Sec 4.2.1): an internal child that is itself full
      // must be flushed first.  The pick compares across levels, so a
      // shallow node could otherwise be chosen over its own full child.
      // Skip such nodes; the child is a candidate itself, so progress is
      // preserved.
      if (level < n - 2) {
        bool full_internal_child = false;
        for (const auto& t : probe.targets) {
          if (t->data_bytes >= capacity) {
            full_internal_child = true;
            break;
          }
        }
        if (full_internal_child) continue;
      }
      probe.level = level;
      probe.type = FlushOrSplit(probe.targets);
      best = probe;
    }
  }
  if (best.node == nullptr) return false;
  *job = best;
  return true;
}

AmtEngine::Job::Type AmtEngine::FlushOrSplit(
    const std::vector<NodePtr>& children) const {
  const double split_at = db_->options().amt.split_child_factor * Fanout();
  return children.size() >= static_cast<size_t>(split_at) &&
                 children.size() >= 2
             ? Job::Type::kSplit
             : Job::Type::kFlushNode;
}

bool AmtEngine::PickFlushJob(const TreeVersion& version, Job* job) {
  if (db_->imm() == nullptr || imm_flush_running_) return false;
  const int n = version.num_levels();
  const uint64_t capacity = NodeCapacity();

  // Targets are the L1 nodes whose ranges overlap the memtable's key span —
  // when none do (sequential loads), the memtable becomes a brand-new node
  // written exactly once.
  Job probe;
  probe.type = Job::Type::kFlushImm;
  probe.level = -1;
  if (n > 0) {
    std::string imm_lo, imm_hi;
    {
      std::unique_ptr<Iterator> it(db_->imm()->NewIterator());
      it->SeekToFirst();
      if (it->Valid()) imm_lo = ExtractUserKey(it->key()).ToString();
      it->SeekToLast();
      if (it->Valid()) imm_hi = ExtractUserKey(it->key()).ToString();
    }
    for (const auto& node : version.level(0)) {
      if (node->range_hi < imm_lo || node->range_lo > imm_hi) continue;
      if (n > 1 && node->data_bytes >= capacity) {
        // A full internal L1 child blocks the memtable flush
        // (precondition 2, Sec 4.2.1).  Run that child's own flush here on
        // the flush lane — with flush priority — instead of waiting for
        // the compaction queue to reach it, so the stalled writer is
        // unblocked as fast as the prerequisite allows.
        Job pre;
        pre.level = 0;
        pre.node = node;
        pre.targets = Children(version, 0, *node);
        if (AnyBusy(pre, busy_nodes_)) return false;  // being handled now
        pre.type = FlushOrSplit(pre.targets);
        *job = pre;
        return true;
      }
      probe.targets.push_back(node);
    }
  }
  if (AnyBusy(probe, busy_nodes_)) return false;
  *job = probe;
  return true;
}

bool AmtEngine::NeedsCompaction() const {
  return RunnableCompactions(1) > 0;
}

int AmtEngine::RunnableCompactions(int max) const {
  if (max <= 0) return 0;
  TreeVersionPtr version = current_version();
  // Simulate the scheduler: pick, busy-mark, repeat.  Every non-grow pick
  // marks at least its own node busy, so the loop terminates.
  std::set<uint64_t> busy = busy_nodes_;
  int count = 0;
  while (count < max) {
    Job job;
    if (!PickCompactionJob(*version, busy, &job)) break;
    count++;
    // Grow mutates the level count under the mutex and serializes with
    // everything; it marks nothing busy, so stop simulating past it.
    if (job.type == Job::Type::kGrow) break;
    MarkBusyIn(job, &busy);
  }
  return count;
}

TreeEngine::WritePressure AmtEngine::GetWritePressure() const {
  // IamDB relies on the natural imm backpressure (the paper adds no extra
  // stall control; Sec 6.2 contrasts this with RocksDB's).
  return WritePressure::kNone;
}

Status AmtEngine::BackgroundWork(WorkLane lane, bool* did_work) {
  *did_work = false;
  TreeVersionPtr version = current_version();
  Job job;
  if (lane == WorkLane::kFlush) {
    if (!PickFlushJob(*version, &job)) return Status::OK();
  } else {
    if (!PickCompactionJob(*version, busy_nodes_, &job)) return Status::OK();
  }
  *did_work = true;

  if (job.type == Job::Type::kGrow) return RunGrow();

  // Flush-lane I/O outranks merge I/O at the rate limiter for the whole
  // job on this thread; subcompaction shards re-establish the scope on
  // their own threads (FlushInto).
  RateLimiter::ScopedPriority prio(lane == WorkLane::kFlush
                                       ? RateLimiter::IoPriority::kHigh
                                       : RateLimiter::IoPriority::kLow);

  MarkBusy(job);
  if (job.type == Job::Type::kFlushImm) imm_flush_running_ = true;
  Status s;
  switch (job.type) {
    case Job::Type::kFlushImm:
      s = RunFlushImm(job, lane);
      break;
    case Job::Type::kFlushNode:
      s = RunFlushNode(job, /*destroy_parent=*/false, lane);
      break;
    case Job::Type::kCombine:
      s = RunFlushNode(job, /*destroy_parent=*/true, lane);
      break;
    case Job::Type::kSplit:
      s = RunSplit(job);
      break;
    case Job::Type::kGrow:
      break;
  }
  if (job.type == Job::Type::kFlushImm) imm_flush_running_ = false;
  ClearBusy(job);
  return s;
}

// ---------------------------------------------------------------------------
// Version application

void AmtEngine::ApplyToVersion(
    const std::vector<std::pair<int, uint64_t>>& removed,
    const std::vector<std::pair<int, NodePtr>>& added, int new_num_levels) {
  TreeVersionPtr base = current_version();
  std::vector<std::vector<NodePtr>> levels = base->levels();
  if (new_num_levels > static_cast<int>(levels.size())) {
    levels.resize(new_num_levels);
  }
  for (const auto& [level, node_id] : removed) {
    auto& nodes = levels[level];
    nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                               [&, id = node_id](const NodePtr& node) {
                                 return node->node_id == id;
                               }),
                nodes.end());
  }
  for (const auto& [level, node] : added) {
    levels[level].push_back(node);
  }
  for (auto& nodes : levels) SortByRange(&nodes);
  current_.Store(std::make_shared<const TreeVersion>(std::move(levels)));
  RecomputeMixedLevel();
}

NodePtr AmtEngine::MakeEmptyNode(uint64_t node_id, const std::string& lo,
                                 const std::string& hi) const {
  auto node = std::make_shared<NodeMeta>();
  node->node_id = node_id;
  node->range_lo = lo;
  node->range_hi = hi;
  return node;
}

Status AmtEngine::RunGrow() {
  TreeVersionPtr version = current_version();
  int new_count = version->num_levels() + 1;
  VersionEdit edit;
  edit.SetNumLevels(new_count);
  Status s = db_->LogEdit(&edit);
  if (!s.ok()) return s;
  ApplyToVersion({}, {}, new_count);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The flush executor (Sec 4.2.1 / 5.1): shared by memtable flushes, node
// flushes and combines.  Drains `source` (already visibility-filtered,
// internal-key order) into the targets at version index `tlevel`; the
// parent node's own removal is handled by the caller.

Status AmtEngine::FlushOneTarget(const NodePtr& target,
                                 const RecordBuffer& records, int tlevel,
                                 bool is_leaf, WriteReason append_reason,
                                 SequenceNumber smallest_snapshot,
                                 FlushDelta* frag) {
  const Options& options = db_->options();
  const uint64_t capacity = NodeCapacity();
  const int paper_level = tlevel + 1;
  const bool lsa = options.amt.policy == AmtPolicy::kLsa;
  const MixedLevelChoice mixed = mixed_level();
  const int k = mixed.k;

  // Policy (Sec 5.1): merge a full leaf child; IAM merges below m and at
  // m once a child holds k sequences; everything else appends.
  bool do_merge = false;
  if (!target->empty()) {
    if (is_leaf && target->data_bytes >= capacity) {
      do_merge = true;
    } else if (!lsa) {
      if (paper_level > mixed.m) {
        do_merge = true;
      } else if (IsMixedLevel(paper_level) &&
                 target->seq_count >= static_cast<uint32_t>(k)) {
        do_merge = true;
      }
    }
  }

  const std::string data_lo = ExtractUserKey(records.front().first).ToString();
  const std::string data_hi = ExtractUserKey(records.back().first).ToString();

  frag->removed.emplace_back(tlevel, target->node_id);
  if (!do_merge && target->file_number != 0) {
    // ---- Append path ----
    std::shared_ptr<MSTableReader> reader;
    Status s = target->OpenReader(db_->env(), options.table, db_->icmp(),
                                  db_->dbname(), &reader);
    if (!s.ok()) return s;
    MSTableAppender appender(db_->env(), options.table,
                             TableFileName(db_->dbname(), target->file_number),
                             *reader);
    s = appender.Open();
    for (const auto& [ik, v] : records) {
      if (!s.ok()) break;
      s = appender.Add(ik, v);
    }
    MSTableBuildResult result;
    if (s.ok()) s = appender.Finish(/*sync=*/true, &result);
    if (!s.ok()) return s;

    NodePtr updated =
        NodeFromBuild(target->node_id, target->file_number, result);
    updated->range_lo = std::min(target->range_lo, data_lo);
    updated->range_hi = std::max(target->range_hi, data_hi);
    updated->lifetime = target->lifetime;

    db_->amp_stats_mutable()->RecordLevelWrite(paper_level, append_reason,
                                               result.new_data_bytes);
    db_->amp_stats_mutable()->RecordLevelWrite(
        paper_level, WriteReason::kMetadata, result.meta_bytes);
    frag->added.emplace_back(tlevel, updated);
    return Status::OK();
  }

  // An empty placeholder's first file, or a merge.  Leaf merges shatter
  // into fresh nodes of Cts = Ct/split_factor (Sec 4.2.1, Fig. 4);
  // internal merges produce one single-sequence node (Sec 5.1.1).
  const uint64_t cut_bytes =
      do_merge && is_leaf ? capacity / options.amt.leaf_merge_split_factor
                          : UINT64_MAX;
  NodeWriter writer(db_, cut_bytes);
  Status s;
  if (!do_merge) {
    // The placeholder keeps its node id; the records go in as they are.
    writer.set_first_node_id(target->node_id);
    for (const auto& [ik, v] : records) {
      s = writer.Add(ik, v);
      if (!s.ok()) return s;
    }
  } else {
    Iterator* merged;
    s = NewCompactionInput(db_, {target}, {new VectorIterator(&records)},
                           &merged);
    if (!s.ok()) return s;
    CompactionStream stream(merged, smallest_snapshot,
                            /*bottommost=*/is_leaf);
    s = writer.AddStream(&stream);
  }
  if (s.ok()) s = writer.Finish();
  if (!s.ok()) return s;

  // Preserve the child's range coverage on the outer outputs.
  const std::vector<NodePtr>& outputs = writer.outputs();
  if (!outputs.empty()) {
    outputs.front()->range_lo = std::min(
        outputs.front()->range_lo, std::min(target->range_lo, data_lo));
    outputs.back()->range_hi = std::max(
        outputs.back()->range_hi, std::max(target->range_hi, data_hi));
  }

  db_->amp_stats_mutable()->RecordLevelWrite(
      paper_level, do_merge ? WriteReason::kMerge : append_reason,
      writer.data_bytes());
  db_->amp_stats_mutable()->RecordLevelWrite(
      paper_level, WriteReason::kMetadata, writer.meta_bytes());

  if (target->lifetime) frag->obsolete.push_back(target->lifetime);
  for (const auto& node : outputs) frag->added.emplace_back(tlevel, node);
  return Status::OK();
}

Status AmtEngine::FlushInto(CompactionStream* source, int tlevel,
                            const std::vector<NodePtr>& targets, bool is_leaf,
                            WriteReason append_reason, WorkLane lane,
                            FlushDelta* delta) {
  const Options& options = db_->options();

  // Partition the source into per-target buffers.  Targets are
  // range-sorted; a record goes to the last target whose range_lo is <=
  // its user key (left-biased gap assignment; see DESIGN.md).
  std::vector<RecordBuffer> partitions(targets.size());
  {
    size_t idx = 0;
    while (source->Valid()) {
      Slice user_key = ExtractUserKey(source->key());
      while (idx + 1 < targets.size() &&
             Slice(targets[idx + 1]->range_lo).compare(user_key) <= 0) {
        idx++;
      }
      // A record before the first target's range belongs to the first.
      partitions[idx].emplace_back(source->key().ToString(),
                                   source->value().ToString());
      source->Next();
    }
    Status s = source->status();
    if (!s.ok()) return s;
  }

  SequenceNumber smallest_snapshot;
  {
    std::lock_guard<std::mutex> l(db_->mutex());
    smallest_snapshot = db_->SmallestSnapshot();
  }

  // Each non-empty target is an independent subcompaction unit: the
  // partition step put every record in exactly one child, so shards touch
  // disjoint key ranges and disjoint files.  Results are collected in
  // per-target fragments and merged in child order below — the final edit
  // is byte-identical to the single-threaded execution regardless of how
  // many shards ran or how they interleaved (subcompaction_test asserts
  // this across engines).
  std::vector<FlushDelta> fragments(targets.size());
  std::vector<size_t> work;
  for (size_t i = 0; i < targets.size(); i++) {
    if (!partitions[i].empty()) work.push_back(i);
  }

  int fan = options.max_subcompactions > 0 ? options.max_subcompactions
                                           : options.background_threads;
  fan = std::min<int>(fan, static_cast<int>(work.size()));

  Status s;
  if (fan <= 1) {
    for (size_t i : work) {
      s = FlushOneTarget(targets[i], partitions[i], tlevel, is_leaf,
                         append_reason, smallest_snapshot, &fragments[i]);
      if (!s.ok()) break;
    }
  } else {
    // Contiguous groups balanced by partition bytes: each group is one
    // pool task, so a skewed partition doesn't serialize behind one shard.
    const std::vector<std::vector<size_t>> groups =
        BalancedGroups(work, fan, [&partitions](size_t i) {
          uint64_t bytes = 0;
          for (const auto& [ik, v] : partitions[i]) {
            bytes += ik.size() + v.size();
          }
          return bytes;
        });

    const RateLimiter::IoPriority prio = lane == WorkLane::kFlush
                                             ? RateLimiter::IoPriority::kHigh
                                             : RateLimiter::IoPriority::kLow;
    std::vector<std::function<Status()>> tasks;
    tasks.reserve(groups.size());
    for (const auto& group : groups) {
      tasks.push_back([this, &group, &targets, &partitions, &fragments,
                       tlevel, is_leaf, append_reason, smallest_snapshot,
                       prio]() -> Status {
        // Pool helpers carry no priority scope of their own.
        RateLimiter::ScopedPriority p(prio);
        for (size_t i : group) {
          Status ts =
              FlushOneTarget(targets[i], partitions[i], tlevel, is_leaf,
                             append_reason, smallest_snapshot, &fragments[i]);
          if (!ts.ok()) return ts;
        }
        return Status::OK();
      });
    }
    db_->RecordSubcompactions(tasks.size());
    s = TaskGroup::RunAll(db_->pool(),
                          lane == WorkLane::kFlush ? ThreadPool::Lane::kHigh
                                                   : ThreadPool::Lane::kLow,
                          std::move(tasks));
  }

  // The partitions held the whole source as separate heap strings, up to a
  // node's worth.  glibc keeps that freed space in this thread's arena,
  // beneath allocations that outlive it, so every background thread that
  // ever flushed would pin a node-sized hole in the process's memory.
  // Hand it back to the OS now.
  partitions.clear();
#ifdef __GLIBC__
  malloc_trim(0);
#endif

  if (!s.ok()) {
    // Shards that succeeded before the failure produced files that will
    // never be installed.  Merge outputs get fresh lifetimes — mark those
    // obsolete; append-path results share the target's own file (possibly
    // with trailing garbage past the recorded meta_end, which readers
    // never consult) and must be left alone.
    for (size_t i = 0; i < targets.size(); i++) {
      for (const auto& [lvl, node] : fragments[i].added) {
        (void)lvl;
        if (node->lifetime && node->lifetime != targets[i]->lifetime) {
          node->lifetime->MarkObsolete();
        }
      }
    }
    return s;
  }

  // Deterministic install order: child order, independent of shard timing.
  for (size_t i = 0; i < targets.size(); i++) {
    FlushDelta& frag = fragments[i];
    for (const auto& [lvl, node_id] : frag.removed) {
      delta->removed.emplace_back(lvl, node_id);
      delta->edit.RemoveNode(lvl, node_id);
    }
    for (const auto& [lvl, node] : frag.added) {
      delta->added.emplace_back(lvl, node);
      delta->edit.AddNode(ToEdit(*node, lvl));
    }
    for (auto& lifetime : frag.obsolete) {
      delta->obsolete.push_back(std::move(lifetime));
    }
  }
  return Status::OK();
}

Status AmtEngine::RunFlushImm(const Job& job, WorkLane lane) {
  // Mutex held on entry.
  MemTable* imm = db_->imm();
  assert(imm != nullptr);
  imm->Ref();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  TreeVersionPtr version = current_version();
  int n = version->num_levels();
  const uint64_t current_log = db_->CurrentLogNumber();

  db_->mutex().unlock();

  FlushDelta delta;
  delta.new_num_levels = std::max(n, 1);
  Status s;
  if (job.targets.empty()) {
    // No L1 nodes overlap (or none exist): the memtable becomes one new L1
    // node, written exactly once — the sequential-load fast path.  When
    // the bottommost stream elides every record there is no file at all;
    // the edit below still advances the log number so the WAL can go.
    NodeWriter writer(db_, /*cut_bytes=*/UINT64_MAX);
    CompactionStream stream(imm->NewIterator(), smallest_snapshot,
                            /*bottommost=*/n <= 1);
    s = writer.AddStream(&stream);
    if (s.ok()) s = writer.Finish();
    if (s.ok() && !writer.outputs().empty()) {
      for (const auto& node : writer.outputs()) {
        delta.added.emplace_back(0, node);
        delta.edit.AddNode(ToEdit(*node, 0));
      }
      db_->amp_stats_mutable()->RecordLevelWrite(1, WriteReason::kFlush,
                                                 writer.data_bytes());
      db_->amp_stats_mutable()->RecordLevelWrite(1, WriteReason::kMetadata,
                                                 writer.meta_bytes());
    }
  } else {
    CompactionStream stream(imm->NewIterator(), smallest_snapshot,
                            /*bottommost=*/false);
    s = FlushInto(&stream, 0, job.targets, /*is_leaf=*/n == 1,
                  WriteReason::kFlush, lane, &delta);
  }
  imm->Unref();

  db_->mutex().lock();
  if (!s.ok()) return s;
  delta.edit.SetLogNumber(current_log);
  if (delta.new_num_levels > n) delta.edit.SetNumLevels(delta.new_num_levels);
  s = db_->LogEdit(&delta.edit);
  if (!s.ok()) return s;
  ApplyToVersion(delta.removed, delta.added,
                 std::max(delta.new_num_levels, n));
  for (const auto& lifetime : delta.obsolete) lifetime->MarkObsolete();
  db_->ImmFlushed();
  return Status::OK();
}

Status AmtEngine::RunFlushNode(const Job& job, bool destroy_parent,
                               WorkLane lane) {
  // Mutex held on entry.
  const NodePtr& node = job.node;
  const int level = job.level;
  TreeVersionPtr version = current_version();
  const int n = version->num_levels();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  const bool rewrite = db_->options().amt.rewrite_on_flush;

  // An empty placeholder picked by a combine simply disappears: there is
  // no data to flush and dropping its range narrows nothing that the
  // partition rule can't reassign.
  if (node->empty()) {
    VersionEdit edit;
    edit.RemoveNode(level, node->node_id);
    Status s = db_->LogEdit(&edit);
    if (!s.ok()) return s;
    ApplyToVersion({{level, node->node_id}}, {}, n);
    return Status::OK();
  }

  // Metadata-only move: no overlapping children (Sec 4.2.1 "Without
  // children, the node is directly moved to the next level").
  if (job.targets.empty() && !rewrite) {
    VersionEdit edit;
    edit.RemoveNode(level, node->node_id);
    edit.AddNode(ToEdit(*node, level + 1));
    Status s = db_->LogEdit(&edit);
    if (!s.ok()) return s;
    ApplyToVersion({{level, node->node_id}}, {{level + 1, node}}, n);
    db_->amp_stats_mutable()->RecordLevelWrite(level + 2, WriteReason::kMove,
                                               0);
    return Status::OK();
  }

  db_->mutex().unlock();

  FlushDelta delta;
  delta.new_num_levels = n;
  // Load the node's records: merge its sequences in memory (Sec 4.2.1).
  Iterator* merged;
  Status s = NewCompactionInput(db_, {node}, {}, &merged);
  if (s.ok()) {
    CompactionStream stream(merged, smallest_snapshot, /*bottommost=*/false);
    if (job.targets.empty()) {
      // FLSM emulation: rewrite the records into a fresh node one level
      // down instead of moving metadata (Sec 6.8's comparison).
      NodeWriter writer(db_, /*cut_bytes=*/UINT64_MAX);
      s = writer.AddStream(&stream);
      if (s.ok()) s = writer.Finish();
      if (s.ok()) {
        for (const auto& out : writer.outputs()) {
          out->range_lo = std::min(node->range_lo, out->range_lo);
          out->range_hi = std::max(node->range_hi, out->range_hi);
          delta.added.emplace_back(level + 1, out);
          delta.edit.AddNode(ToEdit(*out, level + 1));
        }
        db_->amp_stats_mutable()->RecordLevelWrite(
            level + 2, WriteReason::kMerge, writer.data_bytes());
      }
      destroy_parent = true;  // the rewrite replaces the move
    } else {
      s = FlushInto(&stream, level + 1, job.targets,
                    /*is_leaf=*/(level + 1) == n - 1, WriteReason::kAppend,
                    lane, &delta);
    }
  }

  db_->mutex().lock();
  if (!s.ok()) return s;

  // The parent's data moved out.
  delta.edit.RemoveNode(level, node->node_id);
  delta.removed.emplace_back(level, node->node_id);
  if (node->lifetime) delta.obsolete.push_back(node->lifetime);
  if (!destroy_parent) {
    // Keep the node as an empty range placeholder (flushes preserve the
    // level's node count and range coverage; Sec 4.2.1).
    NodePtr placeholder =
        MakeEmptyNode(node->node_id, node->range_lo, node->range_hi);
    delta.added.emplace_back(level, placeholder);
    delta.edit.AddNode(ToEdit(*placeholder, level));
  }

  s = db_->LogEdit(&delta.edit);
  if (!s.ok()) return s;
  ApplyToVersion(delta.removed, delta.added, delta.new_num_levels);
  for (const auto& lifetime : delta.obsolete) lifetime->MarkObsolete();
  return Status::OK();
}

Status AmtEngine::RunSplit(const Job& job) {
  // Mutex held on entry.  Split the full node's records at the range_lo of
  // its middle child (Sec 4.2.2).
  const NodePtr& node = job.node;
  const int level = job.level;
  TreeVersionPtr version = current_version();
  const int n = version->num_levels();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  assert(job.targets.size() >= 2);
  std::string boundary = job.targets[job.targets.size() / 2]->range_lo;

  db_->mutex().unlock();

  // One file each side of the boundary.  The left one keeps the node's
  // lower bound, the right one its upper bound.
  FlushDelta delta;
  Iterator* merged;
  Status s = NewCompactionInput(db_, {node}, {}, &merged);
  if (s.ok()) {
    NodeWriter writer(db_, /*cut_bytes=*/UINT64_MAX);
    CompactionStream stream(merged, smallest_snapshot, /*bottommost=*/false);
    const Slice boundary_key(boundary);
    s = writer.AddStream(&stream, &boundary_key);
    if (s.ok()) s = writer.Cut();
    if (s.ok()) s = writer.AddStream(&stream);
    if (s.ok()) s = writer.Finish();
    if (s.ok()) {
      for (const auto& out : writer.outputs()) {
        if (out->range_lo < boundary) {
          out->range_lo = std::min(out->range_lo, node->range_lo);
        } else {
          out->range_hi = std::max(out->range_hi, node->range_hi);
        }
        delta.added.emplace_back(level, out);
        delta.edit.AddNode(ToEdit(*out, level));
      }
      db_->amp_stats_mutable()->RecordLevelWrite(
          level + 1, WriteReason::kSplit, writer.data_bytes());
      db_->amp_stats_mutable()->RecordLevelWrite(
          level + 1, WriteReason::kMetadata, writer.meta_bytes());
    }
  }

  db_->mutex().lock();
  if (!s.ok()) return s;

  delta.edit.RemoveNode(level, node->node_id);
  delta.removed.emplace_back(level, node->node_id);
  if (node->lifetime) delta.obsolete.push_back(node->lifetime);

  s = db_->LogEdit(&delta.edit);
  if (!s.ok()) return s;
  ApplyToVersion(delta.removed, delta.added, n);
  for (const auto& lifetime : delta.obsolete) lifetime->MarkObsolete();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads

void AmtEngine::MultiGet(const ReadOptions& options,
                         MultiGetRequest* const* reqs, size_t count) {
  TreeVersionPtr version = current_version();
  // Every AMT level holds disjoint sorted ranges, including the mixed
  // level, where a node's k appended sequences are probed newest first
  // inside MSTableReader::MultiGet.
  for (int level = 0;
       level < version->num_levels() && AnyPending(reqs, count); level++) {
    const auto& nodes = version->level(level);
    MultiGetLevel(nodes.data(), nodes.size(), db_->env(),
                  db_->options().table, db_->icmp(), db_->dbname(), options,
                  reqs, count);
  }
}

void AmtEngine::AddIterators(const ReadOptions& options,
                             std::vector<Iterator*>* iters) {
  TreeVersionPtr version = current_version();
  for (int level = 0; level < version->num_levels(); level++) {
    if (version->level(level).empty()) continue;
    auto nodes =
        std::make_shared<const std::vector<NodePtr>>(version->level(level));
    iters->push_back(NewLevelIterator(db_, version, nodes, options));
  }
}

uint64_t AmtEngine::CompactionDebtBytes() const {
  // Outstanding structural work: full internal nodes waiting to flush and
  // node-count excesses waiting to combine.
  TreeVersionPtr version = current_version();
  const uint64_t capacity = NodeCapacity();
  uint64_t debt = 0;
  const int n = version->num_levels();
  for (int level = 0; level < n; level++) {
    const auto& nodes = version->level(level);
    if (level < n - 1) {
      for (const auto& node : nodes) {
        if (node->data_bytes >= capacity) debt += node->data_bytes;
      }
    }
    uint64_t limit = LevelNodeLimit(level);
    if (nodes.size() > limit) {
      debt += (nodes.size() - limit) * (capacity / 2);
    }
  }
  return debt;
}

void AmtEngine::FillStats(DbStats* stats) const {
  MixedLevelChoice mixed = mixed_level();
  stats->mixed_level = mixed.m;
  stats->mixed_level_k = mixed.k;
  stats->mixed_level_retunes = mk_retunes_.load(std::memory_order_relaxed);
  stats->pending_debt_bytes = CompactionDebtBytes();
}

Status AmtEngine::CheckInvariants(bool quiescent) const {
  TreeVersionPtr version = current_version();
  const int n = version->num_levels();
  const uint64_t capacity = NodeCapacity();
  char msg[160];

  for (int level = 0; level < n; level++) {
    const auto& nodes = version->level(level);
    // Ranges sorted and disjoint within a level (Sec 4.1).
    for (size_t i = 0; i < nodes.size(); i++) {
      const NodePtr& node = nodes[i];
      if (node->range_lo > node->range_hi) {
        return Status::Corruption("node range inverted");
      }
      if (i > 0 && nodes[i - 1]->range_hi >= node->range_lo) {
        snprintf(msg, sizeof(msg), "L%d nodes %zu/%zu ranges overlap",
                 level + 1, i - 1, i);
        return Status::Corruption(msg);
      }
      // Data stays inside the covering range.
      if (!node->empty()) {
        if (ExtractUserKey(node->smallest_ikey).compare(node->range_lo) < 0 ||
            ExtractUserKey(node->largest_ikey).compare(node->range_hi) > 0) {
          return Status::Corruption("node data outside its range");
        }
      }
    }
    if (quiescent) {
      // Node-count thresholds: Ni <= t^i internal, < t^n leaf (Sec 4.1).
      if (nodes.size() > LevelNodeLimit(level)) {
        snprintf(msg, sizeof(msg), "L%d has %zu nodes (limit %llu)",
                 level + 1, nodes.size(),
                 static_cast<unsigned long long>(LevelNodeLimit(level)));
        return Status::Corruption(msg);
      }
      // No internal node left full at quiescence.
      if (level < n - 1) {
        for (const auto& node : nodes) {
          if (node->data_bytes >= capacity) {
            snprintf(msg, sizeof(msg), "full node left in internal L%d",
                     level + 1);
            return Status::Corruption(msg);
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace iamdb
