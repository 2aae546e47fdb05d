#include "core/version.h"

#include <algorithm>

#include "core/filename.h"
#include "core/manifest.h"

namespace iamdb {

Status NodeMeta::OpenReader(Env* env, const TableOptions& options,
                            const InternalKeyComparator* cmp,
                            const std::string& dbname,
                            std::shared_ptr<MSTableReader>* out,
                            bool cache_only) const {
  if (empty()) {
    out->reset();
    return Status::InvalidArgument("node is empty");
  }
  std::unique_lock<std::mutex> l(reader_mu_, std::defer_lock);
  if (!cache_only) {
    l.lock();
  } else if (!l.try_lock() || reader_ == nullptr) {
    return Status::Incomplete("table not open");
  }
  if (reader_ == nullptr) {
    Status s = MSTableReader::Open(env, options, cmp,
                                   TableFileName(dbname, file_number),
                                   file_number, meta_end, &reader_);
    if (!s.ok()) return s;
  }
  *out = reader_;
  return Status::OK();
}

void NodeMeta::MultiGet(Env* env, const TableOptions& table_options,
                        const InternalKeyComparator* cmp,
                        const std::string& dbname, const ReadOptions& options,
                        MultiGetRequest* const* reqs, size_t count) const {
  std::shared_ptr<MSTableReader> reader;
  Status s = OpenReader(env, table_options, cmp, dbname, &reader,
                        options.cache_only);
  if (s.ok()) {
    reader->MultiGet(options, reqs, count);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    if (!reqs[i]->resolved()) reqs[i]->status = s;
  }
}

NodeEdit ToEdit(const NodeMeta& node, int level) {
  NodeEdit e;
  e.level = level;
  e.node_id = node.node_id;
  e.file_number = node.file_number;
  e.meta_end = node.meta_end;
  e.data_bytes = node.data_bytes;
  e.num_entries = node.num_entries;
  e.seq_count = node.seq_count;
  e.range_lo = node.range_lo;
  e.range_hi = node.range_hi;
  e.smallest_ikey = node.smallest_ikey;
  e.largest_ikey = node.largest_ikey;
  return e;
}

NodePtr NodeFromEdit(const NodeEdit& e, Env* env, const std::string& dbname) {
  auto node = std::make_shared<NodeMeta>();
  node->node_id = e.node_id;
  node->file_number = e.file_number;
  node->meta_end = e.meta_end;
  node->data_bytes = e.data_bytes;
  node->num_entries = e.num_entries;
  node->seq_count = e.seq_count;
  node->range_lo = e.range_lo;
  node->range_hi = e.range_hi;
  node->smallest_ikey = e.smallest_ikey;
  node->largest_ikey = e.largest_ikey;
  if (e.file_number != 0) {
    node->lifetime = std::make_shared<FileLifetime>(
        env, TableFileName(dbname, e.file_number));
  }
  return node;
}

NodePtr NodeFromBuild(uint64_t node_id, uint64_t file_number,
                      const MSTableBuildResult& result) {
  auto node = std::make_shared<NodeMeta>();
  node->node_id = node_id;
  node->file_number = file_number;
  node->meta_end = result.meta_end;
  node->data_bytes = result.data_bytes;
  node->num_entries = result.num_entries;
  node->seq_count = result.seq_count;
  node->smallest_ikey = result.smallest;
  node->largest_ikey = result.largest;
  node->range_lo = ExtractUserKey(result.smallest).ToString();
  node->range_hi = ExtractUserKey(result.largest).ToString();
  return node;
}

void MultiGetLevel(const NodePtr* nodes, size_t num_nodes, Env* env,
                   const TableOptions& table_options,
                   const InternalKeyComparator* cmp,
                   const std::string& dbname, const ReadOptions& options,
                   MultiGetRequest* const* reqs, size_t count) {
  const NodePtr* end = nodes + num_nodes;
  size_t i = 0;
  while (i < count) {
    if (reqs[i]->resolved()) {
      ++i;
      continue;
    }
    const Slice user_key = reqs[i]->lkey->user_key();
    // The first node with range_hi >= user_key is the only candidate.
    const NodePtr* node = std::lower_bound(
        nodes, end, user_key, [](const NodePtr& n, const Slice& key) {
          return Slice(n->range_hi).compare(key) < 0;
        });
    if (node == end) break;  // later keys are larger still
    const NodeMeta& meta = **node;
    if (Slice(meta.range_lo).compare(user_key) > 0 || meta.empty()) {
      ++i;
      continue;
    }
    // Later keys at or below range_hi fall in the same node (they are
    // >= user_key >= range_lo).
    size_t j = i + 1;
    while (j < count &&
           Slice(meta.range_hi).compare(reqs[j]->lkey->user_key()) >= 0) {
      ++j;
    }
    meta.MultiGet(env, table_options, cmp, dbname, options, reqs + i, j - i);
    i = j;
  }
}

}  // namespace iamdb
