// Span recording and the statistics the benchmark derives from spans.
//
// A span is one timed call at a boundary the benchmark owns: a Client call
// (layer kClient), a call into the DB handed to the Server (kDb), or a call
// into the Env handed to the DB (kEnv).  Spans are appended to per-thread
// buffers while a run is traced and only examined after it ends, so
// recording costs two clock reads and a vector push.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Layer : uint8_t { kClient, kDb, kEnv };
enum class Op : uint8_t {
  kGet,
  kMultiGet,
  kScan,
  kPut,
  kRead,    // RandomAccessFile::Read
  kReadV,   // RandomAccessFile::ReadV (items = segments)
  kAppend,  // WritableFile::Append (bytes = length)
  kSync,    // WritableFile::Sync
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // client request the span serves; 0 = none
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // Client and DB spans: hash of the request's identifying arguments, so a
  // DB span can be matched to the client request that caused it.
  uint64_t match = 0;
  uint64_t bytes = 0;
  uint32_t items = 0;  // MGET keys, ReadV segments
  Layer layer = Layer::kClient;
  Op op = Op::kGet;
  bool wal = false;  // env span on a write-ahead log file

  uint64_t duration() const { return end_ns - start_ns; }
};

// Collects spans from any number of threads.  Each thread appends to its
// own buffer; Collect() may be called only after every recording thread
// has stopped recording.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Recording is off until enabled; the wrappers forward without
  // recording while it is off (set-up and settling are not traced).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Unique span id (never 0).
  uint64_t NewId();
  void Record(const Span& span);
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    uint64_t thread_tag = 0;
    uint64_t next = 0;
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const uint64_t generation_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// The DB span currently executing on this thread (0 = none).  Env calls
// made while it is set are foreground work of that span; all others are
// background (flush, compaction).
uint64_t CurrentDbSpan();
void SetCurrentDbSpan(uint64_t id);

// Order statistics of one sample set.  Percentiles use the nearest-rank
// rule: pq is the smallest sample with at least q of the samples at or
// below it.  A p99 is meaningful only with count >= 1000 (ten samples
// beyond it); callers report count beside it.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
};
Summary Summarize(std::vector<double> samples);
double Percentile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);

// Self time of each span: its duration minus the part of its interval
// covered by its children (overlapping children count once; child time
// outside the parent's interval is ignored).  Result is aligned with
// `spans`.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// Links every DB span to the client span of the request that caused it:
// same op, same match hash, and the DB span lies inside the client span's
// interval.  Sets parent (to the client span id) and request on each
// matched DB span, copies the request to the env spans under it, and
// returns how many DB spans matched.
size_t MatchDbSpans(std::vector<Span>* spans);

// Writes spans as tab-separated text (one per line, with a header).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
