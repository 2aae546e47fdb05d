#include "core/version.h"

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

}  // namespace iamdb
