#include "core/node_writer.h"

#include "core/db_impl.h"
#include "core/filename.h"
#include "table/merging_iterator.h"

namespace iamdb {

NodeWriter::NodeWriter(DBImpl* db, uint64_t cut_bytes)
    : db_(db), cut_bytes_(cut_bytes) {}

NodeWriter::~NodeWriter() {
  if (finished_) return;
  file_.reset();  // an unfinished MSTableWriter removes its file
  for (const auto& node : outputs_) node->lifetime->MarkObsolete();
}

Status NodeWriter::OpenFile() {
  {
    std::lock_guard<std::mutex> l(db_->mutex());
    file_number_ = db_->NewFileNumber();
    node_id_ = outputs_.empty() && first_node_id_ != 0 ? first_node_id_
                                                       : db_->NewNodeId();
  }
  file_ = std::make_unique<MSTableWriter>(
      db_->env(), db_->options().table,
      TableFileName(db_->dbname(), file_number_));
  Status s = file_->Open();
  if (!s.ok()) file_.reset();
  return s;
}

Status NodeWriter::Add(const Slice& internal_key, const Slice& value) {
  const Slice user_key = ExtractUserKey(internal_key);
  Status s;
  if (cut_due_ && user_key != Slice(last_user_key_)) s = Cut();
  if (s.ok() && file_ == nullptr) s = OpenFile();
  if (s.ok()) s = file_->Add(internal_key, value);
  if (!s.ok()) return s;
  if (!cut_due_ && cut_bytes_ != UINT64_MAX &&
      file_->EstimatedDataBytes() >= cut_bytes_) {
    cut_due_ = true;
  }
  if (cut_due_) last_user_key_.assign(user_key.data(), user_key.size());
  return s;
}

Status NodeWriter::AddStream(CompactionStream* stream, const Slice* stop) {
  while (stream->Valid()) {
    if (stop != nullptr && ExtractUserKey(stream->key()).compare(*stop) >= 0) {
      break;
    }
    Status s = Add(stream->key(), stream->value());
    if (!s.ok()) return s;
    stream->Next();
  }
  return stream->status();
}

Status NodeWriter::Cut() {
  cut_due_ = false;
  if (file_ == nullptr) return Status::OK();
  MSTableBuildResult result;
  Status s = file_->Finish(/*sync=*/true, &result);
  if (!s.ok()) return s;
  file_.reset();

  NodePtr node = NodeFromBuild(node_id_, file_number_, result);
  node->lifetime = std::make_shared<FileLifetime>(
      db_->env(), TableFileName(db_->dbname(), file_number_));
  outputs_.push_back(std::move(node));
  data_bytes_ += result.data_bytes;
  meta_bytes_ += result.meta_bytes;
  return Status::OK();
}

Status NodeWriter::Finish() {
  Status s = Cut();
  finished_ = s.ok();
  return s;
}

Status NewCompactionInput(DBImpl* db, const std::vector<NodePtr>& nodes,
                          std::vector<Iterator*> iters, Iterator** input) {
  *input = nullptr;
  ReadOptions read_options;
  read_options.fill_cache = false;
  read_options.rate_limiter = db->rate_limiter();
  for (const auto& node : nodes) {
    std::shared_ptr<MSTableReader> reader;
    Status s = node->OpenReader(db->env(), db->options().table, db->icmp(),
                                db->dbname(), &reader);
    if (!s.ok()) {
      for (Iterator* iter : iters) delete iter;
      return s;
    }
    reader->AddSequenceIterators(read_options, &iters);
  }
  *input = NewMergingIterator(db->icmp(), iters.data(),
                              static_cast<int>(iters.size()));
  return Status::OK();
}

}  // namespace iamdb
