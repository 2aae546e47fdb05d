#include "wrappers.h"

#include <vector>

#include "workload.h"

namespace perfbench {

using iamdb::ReadOptions;
using iamdb::Slice;
using iamdb::Status;
using iamdb::WriteOptions;

uint64_t MatchKey(const Slice& key) { return HashBytes(key.data(), key.size()); }

uint64_t MatchPut(const Slice& key, const Slice& value) {
  return HashBytes(value.data(), value.size(), MatchKey(key));
}

uint64_t MatchKeys(const Slice* keys, size_t count) {
  uint64_t h = count;
  for (size_t i = 0; i < count; i++) h = HashBytes(keys[i].data(), keys[i].size(), h);
  return h;
}

namespace {

// Times one DB call and makes it the thread's current DB span meanwhile.
class DbSpanScope {
 public:
  DbSpanScope(Tracer* tracer, Op op, uint64_t match, uint32_t items = 1)
      : tracer_(tracer), prev_(CurrentDbSpan()) {
    if (!tracer->enabled()) return;
    span_.id = tracer->NewId();
    span_.layer = Layer::kDb;
    span_.op = op;
    span_.match = match;
    span_.items = items;
    SetCurrentDbSpan(span_.id);
    span_.start_ns = NowNanos();
  }
  ~DbSpanScope() {
    if (span_.id == 0) return;
    span_.end_ns = NowNanos();
    SetCurrentDbSpan(prev_);
    tracer_->Record(span_);
  }
  DbSpanScope(const DbSpanScope&) = delete;
  DbSpanScope& operator=(const DbSpanScope&) = delete;

 private:
  Tracer* const tracer_;
  const uint64_t prev_;
  Span span_;
};

// A scan's span runs from NewIterator to the iterator's destruction; its
// match key is the first seek target.  Each call re-enters the span so env
// reads made while positioning count as the scan's foreground work.
class TracingIterator final : public iamdb::Iterator {
 public:
  TracingIterator(iamdb::Iterator* target, Tracer* tracer)
      : target_(target), tracer_(tracer) {
    if (!tracer->enabled()) return;
    span_.id = tracer->NewId();
    span_.layer = Layer::kDb;
    span_.op = Op::kScan;
    span_.start_ns = NowNanos();
  }
  ~TracingIterator() override {
    {
      Enter e(this);
      target_.reset();
    }
    if (span_.id == 0) return;
    span_.end_ns = NowNanos();
    tracer_->Record(span_);
  }

  bool Valid() const override { return target_->Valid(); }
  void SeekToFirst() override {
    Enter e(this);
    SetMatch(Slice());
    target_->SeekToFirst();
  }
  void SeekToLast() override {
    Enter e(this);
    target_->SeekToLast();
  }
  void Seek(const Slice& t) override {
    Enter e(this);
    SetMatch(t);
    target_->Seek(t);
  }
  void Next() override {
    Enter e(this);
    span_.items++;
    target_->Next();
  }
  void Prev() override {
    Enter e(this);
    target_->Prev();
  }
  Slice key() const override { return target_->key(); }
  Slice value() const override { return target_->value(); }
  Status status() const override { return target_->status(); }

 private:
  struct Enter {
    explicit Enter(TracingIterator* it) : prev(CurrentDbSpan()) {
      if (it->span_.id != 0) SetCurrentDbSpan(it->span_.id);
    }
    ~Enter() { SetCurrentDbSpan(prev); }
    uint64_t prev;
  };
  void SetMatch(const Slice& t) {
    if (!seeked_) span_.match = MatchKey(t);
    seeked_ = true;
  }

  std::unique_ptr<iamdb::Iterator> target_;
  Tracer* const tracer_;
  Span span_;
  bool seeked_ = false;
};

}  // namespace

Status TracingDB::Put(const WriteOptions& o, const Slice& key,
                      const Slice& value) {
  DbSpanScope span(tracer_, Op::kPut, MatchPut(key, value));
  return target_->Put(o, key, value);
}

Status TracingDB::Delete(const WriteOptions& o, const Slice& key) {
  DbSpanScope span(tracer_, Op::kPut, MatchKey(key));
  return target_->Delete(o, key);
}

Status TracingDB::Write(const WriteOptions& o, iamdb::WriteBatch* updates) {
  DbSpanScope span(tracer_, Op::kPut, 0);
  return target_->Write(o, updates);
}

Status TracingDB::Get(const ReadOptions& o, const Slice& key,
                      std::string* value) {
  DbSpanScope span(tracer_, Op::kGet, MatchKey(key));
  return target_->Get(o, key, value);
}

void TracingDB::MultiGet(const ReadOptions& o, size_t count, const Slice* keys,
                         std::string* values, Status* statuses) {
  DbSpanScope span(tracer_, Op::kMultiGet, MatchKeys(keys, count),
                   static_cast<uint32_t>(count));
  target_->MultiGet(o, count, keys, values, statuses);
}

iamdb::Iterator* TracingDB::NewIterator(const ReadOptions& o) {
  return new TracingIterator(target_->NewIterator(o), tracer_);
}

iamdb::Iterator* TracingDB::NewShardIterator(const ReadOptions& o, int shard) {
  return new TracingIterator(target_->NewShardIterator(o, shard), tracer_);
}

namespace {

enum class FileKind { kTable, kWal, kOther };

FileKind KindOf(const std::string& fname) {
  if (fname.ends_with(".mst")) return FileKind::kTable;
  if (fname.ends_with(".log")) return FileKind::kWal;
  return FileKind::kOther;
}

// Records one env call: a span when it is foreground work (or always, if
// `always_span`), otherwise background totals.
void RecordEnvCall(TracingEnv* env, Op op, uint64_t start, uint64_t bytes,
                   uint32_t items, bool wal, bool always_span,
                   bool is_write) {
  if (!env->tracer()->enabled()) return;
  uint64_t end = NowNanos();
  uint64_t parent = CurrentDbSpan();
  if (parent != 0 || always_span) {
    Span s;
    s.id = env->tracer()->NewId();
    s.parent = parent;
    s.layer = Layer::kEnv;
    s.op = op;
    s.start_ns = start;
    s.end_ns = end;
    s.bytes = bytes;
    s.items = items;
    s.wal = wal;
    env->tracer()->Record(s);
  }
  if (parent == 0) {
    EnvTotals* t = env->mutable_totals();
    (is_write ? t->bg_write_bytes : t->bg_read_bytes)
        .fetch_add(bytes, std::memory_order_relaxed);
    t->bg_io_ns.fetch_add(end - start, std::memory_order_relaxed);
  }
}

class TracedRandomAccessFile final : public iamdb::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<iamdb::RandomAccessFile> target,
                         TracingEnv* env)
      : target_(std::move(target)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    uint64_t start = NowNanos();
    Status s = target_->Read(offset, n, result, scratch);
    RecordEnvCall(env_, Op::kRead, start, result->size(), 1, false, false,
                  false);
    return s;
  }

  Status ReadV(iamdb::ReadRequest* reqs, size_t count) const override {
    uint64_t start = NowNanos();
    Status s = target_->ReadV(reqs, count);
    uint64_t bytes = 0;
    for (size_t i = 0; i < count; i++) bytes += reqs[i].result.size();
    RecordEnvCall(env_, Op::kReadV, start, bytes,
                  static_cast<uint32_t>(count), false, false, false);
    return s;
  }

 private:
  std::unique_ptr<iamdb::RandomAccessFile> target_;
  TracingEnv* const env_;
};

class TracedWritableFile final : public iamdb::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<iamdb::WritableFile> target,
                     TracingEnv* env, FileKind kind)
      : target_(std::move(target)), env_(env), kind_(kind) {}

  Status Append(const Slice& data) override {
    uint64_t start = NowNanos();
    Status s = target_->Append(data);
    if (kind_ == FileKind::kTable && s.ok()) {
      env_->mutable_totals()->table_bytes_written.fetch_add(
          data.size(), std::memory_order_relaxed);
    }
    bool wal = kind_ == FileKind::kWal;
    RecordEnvCall(env_, Op::kAppend, start, data.size(), 1, wal, wal, true);
    return s;
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override {
    uint64_t start = NowNanos();
    Status s = target_->Sync();
    RecordEnvCall(env_, Op::kSync, start, 0, 1, kind_ == FileKind::kWal, true,
                  true);
    return s;
  }

 private:
  std::unique_ptr<iamdb::WritableFile> target_;
  TracingEnv* const env_;
  const FileKind kind_;
};

}  // namespace

Status TracingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<iamdb::RandomAccessFile>* result) {
  std::unique_ptr<iamdb::RandomAccessFile> file;
  Status s = EnvWrapper::NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracedRandomAccessFile>(std::move(file), this);
  }
  return s;
}

Status TracingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<iamdb::WritableFile>* result) {
  std::unique_ptr<iamdb::WritableFile> file;
  Status s = EnvWrapper::NewWritableFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracedWritableFile>(std::move(file), this,
                                                   KindOf(fname));
  }
  return s;
}

Status TracingEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<iamdb::WritableFile>* result) {
  std::unique_ptr<iamdb::WritableFile> file;
  Status s = EnvWrapper::NewAppendableFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<TracedWritableFile>(std::move(file), this,
                                                   KindOf(fname));
  }
  return s;
}

}  // namespace perfbench
