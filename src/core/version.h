// Tree metadata shared by both engines.
//
//  * FileLifetime  — RAII owner of an on-disk table file; the physical file
//    is unlinked when the last reference drops AND it was marked obsolete,
//    so live iterators/readers on old versions never lose their data.
//  * NodeMeta      — one node: key range, data stats, lazily-opened reader.
//    Immutable once published (appends produce a NEW NodeMeta for the same
//    file at a larger meta_end).
//  * TreeVersion   — immutable snapshot of the whole tree (levels of nodes).
//    Reads grab a shared_ptr under the DB mutex and then run lock-free.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "env/env.h"
#include "table/mstable.h"
#include "table/table_options.h"

namespace iamdb {

struct NodeEdit;

class FileLifetime {
 public:
  FileLifetime(Env* env, std::string path) : env_(env), path_(std::move(path)) {}
  ~FileLifetime() {
    if (obsolete_.load(std::memory_order_acquire)) {
      env_->RemoveFile(path_);
    }
  }

  FileLifetime(const FileLifetime&) = delete;
  FileLifetime& operator=(const FileLifetime&) = delete;

  void MarkObsolete() { obsolete_.store(true, std::memory_order_release); }
  const std::string& path() const { return path_; }

 private:
  Env* env_;
  std::string path_;
  std::atomic<bool> obsolete_{false};
};

struct NodeMeta {
  // Stable identity across appends/emptiness (file_number changes when an
  // empty node gets its first file).
  uint64_t node_id = 0;

  // 0 means the node is empty (a range placeholder with no file).
  uint64_t file_number = 0;
  uint64_t meta_end = 0;      // valid size: offset just past the trailer
  uint64_t data_bytes = 0;    // live data across all sequences
  uint64_t num_entries = 0;
  uint32_t seq_count = 0;

  // Covering key range (user keys, inclusive).  May extend beyond the
  // stored data: ranges persist while a node is empty and widen on appends.
  std::string range_lo;
  std::string range_hi;

  // Data extremes as internal keys (empty when the node is empty).
  std::string smallest_ikey;
  std::string largest_ikey;

  std::shared_ptr<FileLifetime> lifetime;

  bool empty() const { return file_number == 0 || data_bytes == 0; }

  // Lazily open (and memoize) the table reader.  Thread-safe.  With
  // `cache_only` it never opens a table and never waits for the lock: an
  // unopened table, or one another thread is opening, is Incomplete.
  Status OpenReader(Env* env, const TableOptions& options,
                    const InternalKeyComparator* cmp,
                    const std::string& dbname,
                    std::shared_ptr<MSTableReader>* out,
                    bool cache_only = false) const;

  // Point lookup of reqs[0, count) in this node's table (see
  // MSTableReader::MultiGet), opened as by OpenReader with
  // options.cache_only.  An open error lands on every pending request.
  void MultiGet(Env* env, const TableOptions& table_options,
                const InternalKeyComparator* cmp, const std::string& dbname,
                const ReadOptions& options, MultiGetRequest* const* reqs,
                size_t count) const;

 private:
  mutable std::mutex reader_mu_;
  mutable std::shared_ptr<MSTableReader> reader_;
};

using NodePtr = std::shared_ptr<NodeMeta>;

// A node as a manifest records it at `level`, and back.  A node with a
// file gets a fresh FileLifetime for that file.
NodeEdit ToEdit(const NodeMeta& node, int level);
NodePtr NodeFromEdit(const NodeEdit& edit, Env* env, const std::string& dbname);

// The node a finished table build describes, ranged over its own data.
// No lifetime is set.
NodePtr NodeFromBuild(uint64_t node_id, uint64_t file_number,
                      const MSTableBuildResult& result);

// Point lookup of reqs[0, count) (sorted by internal key) in one level
// whose nodes[0, num_nodes) hold disjoint user-key ranges in key order:
// each run of consecutive pending keys one non-empty node covers is probed
// with one NodeMeta::MultiGet, so the run shares the node's bloom, index
// and coalesced block reads.  A lone node (a leveled L0 file) is a level
// of one.  The table arguments are OpenReader's.
void MultiGetLevel(const NodePtr* nodes, size_t num_nodes, Env* env,
                   const TableOptions& table_options,
                   const InternalKeyComparator* cmp,
                   const std::string& dbname, const ReadOptions& options,
                   MultiGetRequest* const* reqs, size_t count);

// An immutable picture of the tree.  levels()[0] is the first ON-DISK level
// (L1 in the paper for AMT; L0 for the leveled engine).
class TreeVersion {
 public:
  explicit TreeVersion(std::vector<std::vector<NodePtr>> levels)
      : levels_(std::move(levels)) {}

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const std::vector<NodePtr>& level(int i) const { return levels_[i]; }
  const std::vector<std::vector<NodePtr>>& levels() const { return levels_; }

  uint64_t LevelBytes(int i) const {
    uint64_t total = 0;
    for (const auto& n : levels_[i]) total += n->data_bytes;
    return total;
  }

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (int i = 0; i < num_levels(); i++) total += LevelBytes(i);
    return total;
  }

  uint64_t TotalEntries() const {
    uint64_t total = 0;
    for (const auto& lvl : levels_)
      for (const auto& n : lvl) total += n->num_entries;
    return total;
  }

 private:
  std::vector<std::vector<NodePtr>> levels_;
};

using TreeVersionPtr = std::shared_ptr<const TreeVersion>;

}  // namespace iamdb
