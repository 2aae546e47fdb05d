// Forwarding wrappers that time calls at the two boundaries the benchmark
// can see from outside the program: server -> core (a DB handed to the
// Server) and core -> env (an Env handed in as Options::env).  Both return
// exactly what the wrapped object returns; they only record spans.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "core/db.h"
#include "env/env.h"
#include "trace.h"

namespace perfbench {

// Match hashes shared by the client side and TracingDB, so a DB span can
// be paired with the request that caused it.
uint64_t MatchKey(const iamdb::Slice& key);
uint64_t MatchPut(const iamdb::Slice& key, const iamdb::Slice& value);
uint64_t MatchKeys(const iamdb::Slice* keys, size_t count);

class TracingDB final : public iamdb::DB {
 public:
  TracingDB(iamdb::DB* target, Tracer* tracer)
      : target_(target), tracer_(tracer) {}

  iamdb::Status Put(const iamdb::WriteOptions& o, const iamdb::Slice& key,
                    const iamdb::Slice& value) override;
  iamdb::Status Delete(const iamdb::WriteOptions& o,
                       const iamdb::Slice& key) override;
  iamdb::Status Write(const iamdb::WriteOptions& o,
                      iamdb::WriteBatch* updates) override;
  iamdb::Status Get(const iamdb::ReadOptions& o, const iamdb::Slice& key,
                    std::string* value) override;
  void MultiGet(const iamdb::ReadOptions& o, size_t count,
                const iamdb::Slice* keys, std::string* values,
                iamdb::Status* statuses) override;
  iamdb::Iterator* NewIterator(const iamdb::ReadOptions& o) override;

  const iamdb::Snapshot* GetSnapshot() override {
    return target_->GetSnapshot();
  }
  void ReleaseSnapshot(const iamdb::Snapshot* s) override {
    target_->ReleaseSnapshot(s);
  }
  iamdb::Status WaitForQuiescence() override {
    return target_->WaitForQuiescence();
  }
  iamdb::Status FlushAll() override { return target_->FlushAll(); }
  iamdb::DbStats GetStats() override { return target_->GetStats(); }
  const iamdb::AmpStats& amp_stats() const override {
    return target_->amp_stats();
  }
  bool GetProperty(const iamdb::Slice& property, std::string* value) override {
    return target_->GetProperty(property, value);
  }
  iamdb::Status CheckInvariants(bool quiescent) override {
    return target_->CheckInvariants(quiescent);
  }
  int NumShards() const override { return target_->NumShards(); }
  iamdb::Iterator* NewShardIterator(const iamdb::ReadOptions& o,
                                    int shard) override;

 private:
  iamdb::DB* const target_;
  Tracer* const tracer_;
};

// Byte and time totals of env calls made outside any DB span (flush and
// compaction threads), plus table-file bytes written on any thread.
struct EnvTotals {
  std::atomic<uint64_t> bg_read_bytes{0};
  std::atomic<uint64_t> bg_write_bytes{0};
  std::atomic<uint64_t> bg_io_ns{0};
  std::atomic<uint64_t> table_bytes_written{0};
};

// Foreground calls (made inside a TracingDB span), WAL appends and syncs
// become spans; other background calls only add to EnvTotals.
class TracingEnv final : public iamdb::EnvWrapper {
 public:
  TracingEnv(iamdb::Env* target, Tracer* tracer)
      : EnvWrapper(target), tracer_(tracer) {}

  iamdb::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<iamdb::RandomAccessFile>* result) override;
  iamdb::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<iamdb::WritableFile>* result) override;
  iamdb::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<iamdb::WritableFile>* result) override;

  const EnvTotals& totals() const { return totals_; }
  Tracer* tracer() const { return tracer_; }
  EnvTotals* mutable_totals() { return &totals_; }

 private:
  Tracer* const tracer_;
  EnvTotals totals_;
};

}  // namespace perfbench
