#include "core/version.h"

#include <algorithm>

#include "core/filename.h"

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
