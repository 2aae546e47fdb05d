#include "core/leveled/leveled_engine.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "core/compaction_stream.h"
#include "core/db_impl.h"
#include "core/level_iters.h"
#include "core/node_writer.h"
#include "util/rate_limiter.h"
#include "util/task_group.h"

namespace iamdb {

namespace {

// Sort orders: L0 by age (node_id), deeper levels by key range.
void SortLevel(std::vector<NodePtr>* nodes, int level) {
  if (level == 0) {
    std::sort(nodes->begin(), nodes->end(),
              [](const NodePtr& a, const NodePtr& b) {
                return a->node_id < b->node_id;
              });
  } else {
    std::sort(nodes->begin(), nodes->end(),
              [](const NodePtr& a, const NodePtr& b) {
                return a->range_lo < b->range_lo;
              });
  }
}

}  // namespace

LeveledEngine::LeveledEngine(DBImpl* db)
    : db_(db), compact_pointer_(kNumLevels) {
  current_.Store(std::make_shared<const TreeVersion>(
      std::vector<std::vector<NodePtr>>(kNumLevels)));
}

Status LeveledEngine::Recover(const RecoveredState& state) {
  std::vector<std::vector<NodePtr>> levels(kNumLevels);
  for (int level = 0; level < static_cast<int>(state.nodes.size()); level++) {
    if (level >= kNumLevels) {
      return Status::Corruption("leveled manifest has too many levels");
    }
    for (const NodeEdit& e : state.nodes[level]) {
      levels[level].push_back(NodeFromEdit(e, db_->env(), db_->dbname()));
    }
    SortLevel(&levels[level], level);
  }
  current_.Store(std::make_shared<const TreeVersion>(std::move(levels)));
  return Status::OK();
}

uint64_t LeveledEngine::MaxBytesForLevel(int level) const {
  const LeveledOptions& opts = db_->options().leveled;
  double bytes = static_cast<double>(opts.max_bytes_level1);
  for (int i = 1; i < level; i++) bytes *= opts.level_multiplier;
  return static_cast<uint64_t>(bytes);
}

uint64_t LeveledEngine::LevelDebtBytes(const TreeVersion& version,
                                       int level) const {
  const LeveledOptions& opts = db_->options().leveled;
  if (level == 0) {
    size_t files = version.level(0).size();
    if (files < static_cast<size_t>(opts.l0_compaction_trigger)) return 0;
    // L0 files overlap, so bytes-over-limit does not apply; price the
    // excess (inclusive of the triggering file) in output-file units.
    return (files - opts.l0_compaction_trigger + 1) * opts.target_file_size;
  }
  uint64_t bytes = version.LevelBytes(level);
  uint64_t limit = MaxBytesForLevel(level);
  return bytes > limit ? bytes - limit : 0;
}

int LeveledEngine::PickCompactionLevel(const std::set<int>& busy) const {
  TreeVersionPtr version = current_version();
  const LeveledOptions& opts = db_->options().leveled;
  if (db_->options().greedy_compaction) {
    // Greedy debt scheduling: take the level owing the most bytes, not the
    // first or best-ratio one.  A level is eligible exactly when its debt
    // is positive, so the two modes agree on *whether* to compact and
    // differ only in pick order.  Ties break toward L0 — its buildup is
    // what stalls the write path.
    uint64_t best_debt = 0;
    int best_level = -1;
    for (int level = 0; level < kNumLevels - 1; level++) {
      if (busy.count(level) || busy.count(level + 1)) continue;
      uint64_t debt = LevelDebtBytes(*version, level);
      if (debt > best_debt) {
        best_debt = debt;
        best_level = level;
      }
    }
    return best_level;
  }
  double best_score = 1.0;
  int best_level = -1;
  // L0 score: file count.
  if (busy.count(0) == 0 && busy.count(1) == 0) {
    double score = version->level(0).size() /
                   static_cast<double>(opts.l0_compaction_trigger);
    if (score >= best_score) {
      best_score = score;
      best_level = 0;
    }
  }
  for (int level = 1; level < kNumLevels - 1; level++) {
    if (busy.count(level) || busy.count(level + 1)) continue;
    double score = static_cast<double>(version->LevelBytes(level)) /
                   MaxBytesForLevel(level);
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  return best_level;
}

uint64_t LeveledEngine::PendingCompactionDebt() const {
  TreeVersionPtr version = current_version();
  uint64_t debt = 0;
  for (int level = 1; level < kNumLevels; level++) {
    uint64_t bytes = version->LevelBytes(level);
    uint64_t limit = MaxBytesForLevel(level);
    if (bytes > limit) debt += bytes - limit;
  }
  return debt;
}

bool LeveledEngine::NeedsCompaction() const {
  return PickCompactionLevel(busy_levels_) >= 0;
}

int LeveledEngine::RunnableCompactions(int max) const {
  if (max <= 0) return 0;
  // Simulate the scheduler: each pick occupies its input and output
  // levels, so concurrent compactions operate on disjoint level pairs.
  std::set<int> busy = busy_levels_;
  int count = 0;
  while (count < max) {
    int level = PickCompactionLevel(busy);
    if (level < 0) break;
    busy.insert(level);
    busy.insert(level + 1);
    count++;
  }
  return count;
}

TreeEngine::WritePressure LeveledEngine::GetWritePressure() const {
  const LeveledOptions& opts = db_->options().leveled;
  TreeVersionPtr version = current_version();
  size_t l0_files = version->level(0).size();
  if (l0_files >= static_cast<size_t>(opts.l0_stop_trigger)) {
    return WritePressure::kStop;
  }
  if (opts.strict_level_limits) {
    uint64_t debt = PendingCompactionDebt();
    if (debt >= opts.hard_pending_bytes) return WritePressure::kStop;
    if (debt >= opts.soft_pending_bytes) return WritePressure::kSlowdown;
  }
  if (l0_files >= static_cast<size_t>(opts.l0_slowdown_trigger)) {
    return WritePressure::kSlowdown;
  }
  return WritePressure::kNone;
}

Status LeveledEngine::BackgroundWork(WorkLane lane, bool* did_work) {
  *did_work = false;
  if (lane == WorkLane::kFlush) {
    if (db_->imm() == nullptr || imm_flush_running_) return Status::OK();
    RateLimiter::ScopedPriority prio(RateLimiter::IoPriority::kHigh);
    imm_flush_running_ = true;
    Status s = FlushImm();
    imm_flush_running_ = false;
    *did_work = true;
    return s;
  }
  int level = PickCompactionLevel(busy_levels_);
  if (level < 0) return Status::OK();
  *did_work = true;
  RateLimiter::ScopedPriority prio(RateLimiter::IoPriority::kLow);
  busy_levels_.insert(level);
  busy_levels_.insert(level + 1);
  Status s = CompactLevel(level);
  busy_levels_.erase(level);
  busy_levels_.erase(level + 1);
  return s;
}

void LeveledEngine::ApplyToVersion(const std::vector<NodePtr>& removed,
                                   const std::vector<NodePtr>& added,
                                   int add_level) {
  TreeVersionPtr base = current_version();
  std::vector<std::vector<NodePtr>> levels = base->levels();
  for (const auto& victim : removed) {
    for (auto& level_nodes : levels) {
      level_nodes.erase(
          std::remove_if(level_nodes.begin(), level_nodes.end(),
                         [&](const NodePtr& n) {
                           return n->node_id == victim->node_id;
                         }),
          level_nodes.end());
    }
  }
  for (const auto& node : added) {
    levels[add_level].push_back(node);
  }
  SortLevel(&levels[add_level], add_level);
  current_.Store(std::make_shared<const TreeVersion>(std::move(levels)));
}

Status LeveledEngine::FlushImm() {
  // Mutex held on entry.
  MemTable* imm = db_->imm();
  assert(imm != nullptr);
  imm->Ref();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();

  db_->mutex().unlock();
  // Build one L0 table from the whole memtable.  Flushes run one at a
  // time, so L0 node ids increase in flush order (SortLevel).
  Status s;
  std::vector<NodePtr> outputs;
  {
    NodeWriter writer(db_, /*cut_bytes=*/UINT64_MAX);
    CompactionStream stream(imm->NewIterator(), smallest_snapshot,
                            /*bottommost=*/false);
    s = writer.AddStream(&stream);
    if (s.ok()) s = writer.Finish();
    if (s.ok()) {
      outputs = writer.outputs();
      db_->amp_stats_mutable()->RecordLevelWrite(0, WriteReason::kFlush,
                                                 writer.data_bytes());
      db_->amp_stats_mutable()->RecordLevelWrite(0, WriteReason::kMetadata,
                                                 writer.meta_bytes());
    }
  }
  imm->Unref();
  db_->mutex().lock();
  if (!s.ok()) return s;

  VersionEdit edit;
  for (const auto& node : outputs) edit.AddNode(ToEdit(*node, 0));
  edit.SetLogNumber(db_->CurrentLogNumber());
  s = db_->LogEdit(&edit);
  if (!s.ok()) return s;
  ApplyToVersion({}, outputs, 0);
  db_->ImmFlushed();
  return Status::OK();
}

std::vector<NodePtr> LeveledEngine::OverlappingInputs(
    const TreeVersion& version, int level, const Slice& lo_user,
    const Slice& hi_user) const {
  std::vector<NodePtr> result;
  for (const auto& node : version.level(level)) {
    if (Slice(node->range_hi).compare(lo_user) < 0) continue;
    if (Slice(node->range_lo).compare(hi_user) > 0) continue;
    result.push_back(node);
  }
  return result;
}

Status LeveledEngine::CompactSubrange(
    const std::vector<NodePtr>& inputs0,
    const std::vector<NodePtr>& inputs1_group, const std::string* start,
    const std::string* stop, SequenceNumber smallest_snapshot, bool bottommost,
    std::vector<NodePtr>* outputs, uint64_t* written_bytes,
    uint64_t* meta_bytes) {
  std::vector<NodePtr> inputs = inputs0;
  inputs.insert(inputs.end(), inputs1_group.begin(), inputs1_group.end());
  Iterator* merged;
  Status s = NewCompactionInput(db_, inputs, {}, &merged);
  if (!s.ok()) return s;
  std::unique_ptr<CompactionStream> stream;
  if (start != nullptr) {
    stream = std::make_unique<CompactionStream>(merged, smallest_snapshot,
                                                bottommost, Slice(*start));
  } else {
    stream = std::make_unique<CompactionStream>(merged, smallest_snapshot,
                                                bottommost);
  }

  // The boundary key itself belongs to the next shard (its stream seeks
  // to the key's newest version, so no record is emitted twice).
  NodeWriter writer(db_, db_->options().leveled.target_file_size);
  const Slice stop_key = stop != nullptr ? Slice(*stop) : Slice();
  s = writer.AddStream(stream.get(), stop != nullptr ? &stop_key : nullptr);
  if (s.ok()) s = writer.Finish();
  if (!s.ok()) return s;
  outputs->insert(outputs->end(), writer.outputs().begin(),
                  writer.outputs().end());
  *written_bytes += writer.data_bytes();
  *meta_bytes += writer.meta_bytes();
  return Status::OK();
}

Status LeveledEngine::CompactLevel(int level) {
  // Mutex held on entry.
  TreeVersionPtr version = current_version();
  const Options& options = db_->options();

  std::vector<NodePtr> inputs0;
  if (level == 0) {
    // Start from the oldest L0 file and expand by range overlap to a
    // fixpoint (newer overlapping files must join or their versions would
    // be buried below older ones).  Non-overlapping files — sequential
    // loads — stay single-input and become trivial moves.
    inputs0.push_back(version->level(0).front());
    std::string lo = inputs0[0]->range_lo, hi = inputs0[0]->range_hi;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& node : version->level(0)) {
        bool already = false;
        for (const auto& input : inputs0) {
          if (input->node_id == node->node_id) {
            already = true;
            break;
          }
        }
        if (already) continue;
        if (node->range_hi < lo || node->range_lo > hi) continue;
        inputs0.push_back(node);
        lo = std::min(lo, node->range_lo);
        hi = std::max(hi, node->range_hi);
        grew = true;
      }
    }
  } else {
    const auto& nodes = version->level(level);
    if (nodes.empty()) return Status::OK();
    NodePtr picked;
    if (options.greedy_compaction) {
      // Greedy: the node with the cheapest write cost per debt byte
      // retired — most of the merge's output should be this node's own
      // bytes, not rewritten next-level overlap.
      double best_ratio = -1.0;
      for (const auto& node : nodes) {
        uint64_t overlap = 0;
        for (const auto& below : OverlappingInputs(
                 *version, level + 1, node->range_lo, node->range_hi)) {
          overlap += below->data_bytes;
        }
        double ratio = static_cast<double>(node->data_bytes) /
                       static_cast<double>(node->data_bytes + overlap);
        if (ratio > best_ratio) {
          best_ratio = ratio;
          picked = node;
        }
      }
    } else {
      // Round-robin: first node with range_lo > compact_pointer_[level].
      for (const auto& node : nodes) {
        if (compact_pointer_[level].empty() ||
            node->range_lo > compact_pointer_[level]) {
          picked = node;
          break;
        }
      }
      if (picked == nullptr) picked = nodes.front();  // wrap around
      compact_pointer_[level] = picked->range_lo;
    }
    inputs0.push_back(picked);
  }
  if (inputs0.empty()) return Status::OK();

  std::string lo = inputs0[0]->range_lo, hi = inputs0[0]->range_hi;
  for (const auto& node : inputs0) {
    lo = std::min(lo, node->range_lo);
    hi = std::max(hi, node->range_hi);
  }
  std::vector<NodePtr> inputs1 =
      OverlappingInputs(*version, level + 1, lo, hi);

  // Trivial move: single input, nothing to merge with.
  if (inputs1.empty() && inputs0.size() == 1) {
    NodePtr moved = inputs0[0];
    VersionEdit edit;
    edit.RemoveNode(level, moved->node_id);
    edit.AddNode(ToEdit(*moved, level + 1));
    Status s = db_->LogEdit(&edit);
    if (!s.ok()) return s;
    ApplyToVersion({moved}, {moved}, level + 1);
    db_->amp_stats_mutable()->RecordLevelWrite(level + 1, WriteReason::kMove,
                                               0);
    return Status::OK();
  }

  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  // Bottommost if every deeper level has no overlap with the output range.
  bool bottommost = true;
  for (int deeper = level + 2; deeper < kNumLevels; deeper++) {
    if (!OverlappingInputs(*version, deeper, lo, hi).empty()) {
      bottommost = false;
      break;
    }
  }

  db_->mutex().unlock();

  // Partitioned subcompaction: with several next-level inputs the merge
  // splits into contiguous key-range shards along inputs1 node boundaries.
  // Each shard merges ALL of inputs0 (bounded by the shard's range) with
  // its own slice of inputs1 — inputs1 nodes are user-key-disjoint, so
  // each belongs to exactly one shard and shards write disjoint outputs.
  int fan = options.max_subcompactions > 0 ? options.max_subcompactions
                                           : options.background_threads;
  fan = std::min<int>(fan, static_cast<int>(inputs1.size()));

  Status s;
  std::vector<NodePtr> outputs;
  uint64_t written_bytes = 0, meta_bytes = 0;

  if (fan <= 1) {
    s = CompactSubrange(inputs0, inputs1, nullptr, nullptr, smallest_snapshot,
                        bottommost, &outputs, &written_bytes, &meta_bytes);
  } else {
    // Contiguous groups of inputs1 balanced by data bytes.  Shard
    // boundaries: each non-first group starts at its first node's
    // range_lo.  inputs0 records below the first boundary go to shard 0,
    // and each record lands in exactly one shard.
    const std::vector<std::vector<NodePtr>> groups = BalancedGroups(
        inputs1, fan, [](const NodePtr& node) { return node->data_bytes; });
    const size_t num_groups = groups.size();
    std::vector<std::string> starts(num_groups);
    for (size_t g = 1; g < num_groups; g++) {
      starts[g] = groups[g].front()->range_lo;
    }
    std::vector<std::vector<NodePtr>> shard_outputs(num_groups);
    std::vector<uint64_t> shard_written(num_groups, 0);
    std::vector<uint64_t> shard_meta(num_groups, 0);

    std::vector<std::function<Status()>> tasks;
    tasks.reserve(num_groups);
    for (size_t g = 0; g < num_groups; g++) {
      tasks.push_back([&, g]() -> Status {
        // Pool helpers carry no priority scope of their own.
        RateLimiter::ScopedPriority p(RateLimiter::IoPriority::kLow);
        const std::string* start = g == 0 ? nullptr : &starts[g];
        const std::string* stop = g + 1 < num_groups ? &starts[g + 1] : nullptr;
        return CompactSubrange(inputs0, groups[g], start, stop,
                               smallest_snapshot, bottommost,
                               &shard_outputs[g], &shard_written[g],
                               &shard_meta[g]);
      });
    }
    db_->RecordSubcompactions(tasks.size());
    s = TaskGroup::RunAll(db_->pool(), ThreadPool::Lane::kLow,
                          std::move(tasks));
    // Concatenate in shard order (shards cover increasing disjoint ranges,
    // so this is also range order); collect even on failure so every
    // written file gets obsoleted below.
    for (size_t g = 0; g < num_groups; g++) {
      for (auto& node : shard_outputs[g]) outputs.push_back(std::move(node));
      written_bytes += shard_written[g];
      meta_bytes += shard_meta[g];
    }
  }

  db_->mutex().lock();
  if (!s.ok()) {
    for (const auto& node : outputs) {
      if (node->lifetime) node->lifetime->MarkObsolete();
    }
    return s;
  }

  db_->amp_stats_mutable()->RecordLevelWrite(level + 1, WriteReason::kMerge,
                                             written_bytes);
  db_->amp_stats_mutable()->RecordLevelWrite(level + 1, WriteReason::kMetadata,
                                             meta_bytes);

  VersionEdit edit;
  std::vector<NodePtr> removed;
  for (const auto& node : inputs0) {
    edit.RemoveNode(level, node->node_id);
    removed.push_back(node);
  }
  for (const auto& node : inputs1) {
    edit.RemoveNode(level + 1, node->node_id);
    removed.push_back(node);
  }
  for (const auto& node : outputs) {
    edit.AddNode(ToEdit(*node, level + 1));
  }
  s = db_->LogEdit(&edit);
  if (!s.ok()) return s;
  ApplyToVersion(removed, outputs, level + 1);
  // Physical files die when the last version/iterator referencing them
  // lets go.
  for (const auto& node : removed) {
    if (node->lifetime) node->lifetime->MarkObsolete();
  }
  return Status::OK();
}

void LeveledEngine::MultiGet(const ReadOptions& options,
                             MultiGetRequest* const* reqs, size_t count) {
  TreeVersionPtr version = current_version();
  auto probe_level = [&](const NodePtr* nodes, size_t num_nodes) {
    MultiGetLevel(nodes, num_nodes, db_->env(), db_->options().table,
                  db_->icmp(), db_->dbname(), options, reqs, count);
  };

  // L0 files overlap: each is a level of its own, newest first.
  const auto& l0 = version->level(0);
  for (size_t i = l0.size(); i > 0 && AnyPending(reqs, count); i--) {
    probe_level(&l0[i - 1], 1);
  }
  // Deeper levels: disjoint sorted ranges.
  for (int level = 1;
       level < version->num_levels() && AnyPending(reqs, count); level++) {
    probe_level(version->level(level).data(), version->level(level).size());
  }
}

void LeveledEngine::AddIterators(const ReadOptions& options,
                                 std::vector<Iterator*>* iters) {
  TreeVersionPtr version = current_version();

  // L0: one iterator per file (overlapping ranges).
  for (const auto& node : version->level(0)) {
    std::shared_ptr<MSTableReader> reader;
    Status s = node->OpenReader(db_->env(), db_->options().table, db_->icmp(),
                                db_->dbname(), &reader);
    if (!s.ok()) {
      iters->push_back(NewErrorIterator(s));
      continue;
    }
    Iterator* iter = reader->NewIterator(options);
    iter->RegisterCleanup([version, reader]() mutable {
      reader.reset();
    });
    iters->push_back(iter);
  }

  // L1+: concatenated node iterators per level.
  for (int level = 1; level < version->num_levels(); level++) {
    if (version->level(level).empty()) continue;
    auto nodes =
        std::make_shared<const std::vector<NodePtr>>(version->level(level));
    iters->push_back(NewLevelIterator(db_, version, nodes, options));
  }
}

uint64_t LeveledEngine::CompactionDebtBytes() const {
  TreeVersionPtr version = current_version();
  const LeveledOptions& opts = db_->options().leveled;
  uint64_t debt = PendingCompactionDebt();
  size_t l0 = version->level(0).size();
  if (l0 > static_cast<size_t>(opts.l0_compaction_trigger)) {
    debt += (l0 - opts.l0_compaction_trigger) * opts.target_file_size;
  }
  return debt;
}

void LeveledEngine::FillStats(DbStats* stats) const {
  stats->mixed_level = 0;
  stats->mixed_level_k = 0;
  stats->pending_debt_bytes = CompactionDebtBytes();
}

Status LeveledEngine::CheckInvariants(bool quiescent) const {
  TreeVersionPtr version = current_version();
  for (int level = 1; level < version->num_levels(); level++) {
    const auto& nodes = version->level(level);
    for (size_t i = 1; i < nodes.size(); i++) {
      if (nodes[i - 1]->range_hi >= nodes[i]->range_lo) {
        return Status::Corruption("leveled L1+ ranges overlap");
      }
    }
  }
  if (quiescent) {
    // After settling, L0 must be below the compaction trigger.
    if (version->level(0).size() >=
        static_cast<size_t>(db_->options().leveled.l0_compaction_trigger)) {
      return Status::Corruption("L0 still over trigger at quiescence");
    }
  }
  return Status::OK();
}

}  // namespace iamdb
