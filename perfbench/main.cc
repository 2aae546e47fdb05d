// Wire-level benchmark of IamDB: opens a default-configured IAM DB on the
// real filesystem, serves it through an in-process Server and drives it
// over loopback with one Client connection per thread (closed loop).
// Every answer is checked.  The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1).  See README.md for the workloads and metrics.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/db.h"
#include "env/env.h"
#include "memtable/write_batch.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "workload.h"
#include "wrappers.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using iamdb::DB;
using iamdb::DbStats;
using iamdb::Slice;
using iamdb::Status;

// ---------------------------------------------------------------------------
// Workloads.  What matters is the data size relative to the block cache.

struct WorkloadSpec {
  const char* name;
  uint64_t keys;         // key space; preloaded unless `ingest`
  uint64_t cache_bytes;  // block cache capacity
  int get, mget, scan, put;  // request mix in percent
  bool zipfian;          // scrambled zipfian (else uniform) key choice
  int depth;             // requests in flight per connection
  int clients;           // connections (at most nproc)
  bool ingest;           // fresh keys then overwrites; closes after quiescence
  int setups;            // set-ups per run; setup_s is their median
};

constexpr uint64_t kMB = 1ull << 20;
constexpr int kMGetKeys = 16;
constexpr int kMaxScan = 100;

const WorkloadSpec kWorkloads[] = {
    // 200 MB of 1 KB records against a 16 MB cache: flush and
    // append-vs-merge compaction do nearly all the work.
    {"ingest", 200000, 16 * kMB, 0, 0, 0, 100, false, 8, 4, true, 15},
    // ~8 MB of data inside the default 64 MB cache: the engine answers from
    // memory, so the wire path is most of the latency.  Two connections
    // leave the server CPU to spare, so latency is the wire path's and not
    // run-queue wait; a window rewrites the data several times, so
    // write_amp and space_amp reach a steady state.
    {"point_hot", 8000, 64 * kMB, 93, 1, 1, 5, true, 1, 2, false, 3},
    // 8x the cache (~134 MB), uniform keys: reads miss the cache while
    // overwrites keep compaction running underneath.  Two connections, so
    // foreground requests and compaction together stay below the CPU count.
    {"read_write_cold", 128000, 16 * kMB, 50, 10, 10, 30, false, 1, 2, false, 3},
};

// ---------------------------------------------------------------------------
// Arguments and the result stamp.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/data";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string trace_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: iamdb_perfbench --workload "
               "ingest|point_hot|read_write_cold --seed N --seconds S "
               "--trace 0|1 [--dir D] [--git-sha X] "
               "[--src-digest X] [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--src-digest") {
      a.src_digest = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be > 0");
  return a;
}

std::string FsName(const std::string& dir) {
  struct statfs st;
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return (to_ns - from_ns) / 1e9;
}

// ---------------------------------------------------------------------------
// Shared per-run state.

struct Plan {
  const WorkloadSpec* spec = nullptr;
  uint64_t keys = 0;  // key-space size
  int clients = 1;
  KeySpace keyspace{0};
  std::unique_ptr<VersionTable> versions;
  std::vector<uint32_t> sorted;  // key indices in key order
  std::vector<uint32_t> rank;    // key index -> position in `sorted`
  std::unique_ptr<ScrambledZipfian> zipf;
};

// One request in flight on a connection.
struct Pending {
  uint64_t id = 0;
  Op op = Op::kGet;
  uint64_t start_ns = 0;
  uint64_t match = 0;
  std::vector<uint32_t> keys;  // GET/PUT: 1; MGET: 16; SCAN: expected keys
  std::vector<uint32_t> min_versions;
  uint32_t version = 0;  // PUT
};

struct Totals {
  std::vector<double> latency_us[4];  // indexed by Op (kGet..kPut)
  uint64_t attempted = 0;
  uint64_t failed = 0;  // transport or server errors
  uint64_t wrong = 0;   // answers that failed the checks
  std::string first_problem;

  void Add(const Totals& o) {
    for (int i = 0; i < 4; i++) {
      latency_us[i].insert(latency_us[i].end(), o.latency_us[i].begin(),
                           o.latency_us[i].end());
    }
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (first_problem.empty()) first_problem = o.first_problem;
  }
};

// Issues requests on one connection and checks every answer.
class Connection {
 public:
  Connection(const Plan& plan, int port, Tracer* tracer)
      : plan_(plan), tracer_(tracer), client_([port] {
          iamdb::ClientOptions o;
          o.port = port;
          return o;
        }()) {}

  Status Connect() { return client_.Connect(); }
  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }

  // Runs ops from `next` (false = no more) keeping `depth` in flight.
  template <typename NextFn>
  void Run(int depth, NextFn next, Totals* out) {
    std::deque<Pending> inflight;
    bool more = true;
    while (true) {
      while (more && static_cast<int>(inflight.size()) < depth) {
        Pending p;
        if (!next(&p)) {
          more = false;
          break;
        }
        // Writes to one key are never in flight together, so they apply
        // in submission order and the freshness check is exact.
        if (p.op == Op::kPut &&
            std::any_of(inflight.begin(), inflight.end(), [&](const Pending& q) {
              return q.op == Op::kPut && q.keys[0] == p.keys[0];
            })) {
          continue;
        }
        Submit(&p, out);
        if (p.id != 0) inflight.push_back(std::move(p));
      }
      if (inflight.empty()) break;
      Complete(inflight.front(), out);
      inflight.pop_front();
    }
  }

 private:
  void Problem(Totals* out, const std::string& what) {
    if (out->first_problem.empty()) out->first_problem = what;
  }

  void Submit(Pending* p, Totals* out) {
    const KeySpace& ks = plan_.keyspace;
    out->attempted++;
    p->start_ns = NowNanos();
    switch (p->op) {
      case Op::kGet: {
        std::string key = ks.Key(p->keys[0]);
        p->min_versions = {plan_.versions->acked(p->keys[0])};
        p->match = MatchKey(key);
        p->id = client_.SubmitGet(key);
        break;
      }
      case Op::kMultiGet: {
        std::vector<std::string> keys;
        std::vector<Slice> slices;
        for (uint32_t k : p->keys) {
          p->min_versions.push_back(plan_.versions->acked(k));
          keys.push_back(ks.Key(k));
        }
        for (const auto& k : keys) slices.emplace_back(k);
        p->match = MatchKeys(slices.data(), slices.size());
        p->id = client_.SubmitMultiGet(keys);
        break;
      }
      case Op::kScan: {
        iamdb::wire::ScanRequest req;
        req.start_key = ks.Key(p->keys[0]);
        req.limit = static_cast<uint32_t>(p->keys.size());
        for (uint32_t k : p->keys) {
          p->min_versions.push_back(plan_.versions->acked(k));
        }
        p->match = MatchKey(req.start_key);
        p->id = client_.SubmitScan(req);
        break;
      }
      case Op::kPut: {
        std::string key = ks.Key(p->keys[0]);
        p->version = plan_.versions->NextVersion(p->keys[0]);
        std::string value = MakeValue(ks, p->keys[0], p->version);
        p->match = MatchPut(key, value);
        p->id = client_.SubmitPut(key, value);
        break;
      }
      default:
        break;
    }
    if (p->id == 0) {
      out->failed++;
      Problem(out, "submit failed (connection lost)");
    }
  }

  bool CheckOne(uint32_t key, uint32_t min_version, bool found,
                const std::string& value, Totals* out) {
    Verdict v = CheckValue(plan_.keyspace, *plan_.versions, key, min_version,
                           found, value);
    if (v == Verdict::kOk) return true;
    Problem(out, std::string("wrong answer for key index ") +
                     std::to_string(key) + ": " + VerdictName(v));
    return false;
  }

  void Complete(const Pending& p, Totals* out) {
    Status s;
    bool right = true;
    switch (p.op) {
      case Op::kGet: {
        std::string value;
        s = client_.WaitGet(p.id, &value);
        if (s.ok() || s.IsNotFound()) {
          right = CheckOne(p.keys[0], p.min_versions[0], s.ok(), value, out);
          s = Status::OK();
        }
        break;
      }
      case Op::kMultiGet: {
        std::vector<iamdb::wire::MultiGetEntry> entries;
        s = client_.WaitMultiGet(p.id, &entries);
        if (s.ok() && entries.size() != p.keys.size()) {
          right = false;
          Problem(out, "MGET returned a wrong number of entries");
        }
        for (size_t i = 0; s.ok() && right && i < entries.size(); i++) {
          right = CheckOne(p.keys[i], p.min_versions[i],
                           entries[i].code == iamdb::wire::StatusCode::kOk,
                           entries[i].value, out);
        }
        break;
      }
      case Op::kScan: {
        iamdb::wire::ScanResponse resp;
        s = client_.WaitScan(p.id, &resp);
        if (s.ok() && resp.entries.size() != p.keys.size()) {
          right = false;
          Problem(out, "SCAN returned " + std::to_string(resp.entries.size()) +
                           " entries, expected " +
                           std::to_string(p.keys.size()));
        }
        // Expected keys are the next keys in key order from the start key,
        // so this checks order, range and completeness at once.
        for (size_t i = 0; s.ok() && right && i < resp.entries.size(); i++) {
          if (resp.entries[i].first != plan_.keyspace.Key(p.keys[i])) {
            right = false;
            Problem(out, "SCAN entry out of order or out of range");
            break;
          }
          right = CheckOne(p.keys[i], p.min_versions[i], true,
                           resp.entries[i].second, out);
        }
        break;
      }
      case Op::kPut:
        s = client_.Wait(p.id);
        if (s.ok()) plan_.versions->Ack(p.keys[0], p.version);
        break;
      default:
        break;
    }
    uint64_t end_ns = NowNanos();
    if (!s.ok()) {
      out->failed++;
      Problem(out, "request failed: " + s.ToString());
      return;
    }
    if (!right) {
      out->wrong++;
      return;
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    out->latency_us[static_cast<int>(p.op)].push_back((end_ns - p.start_ns) /
                                                      1e3);
    if (tracer_ != nullptr && tracer_->enabled()) {
      Span span;
      span.id = tracer_->NewId();
      span.request = span.id;
      span.layer = Layer::kClient;
      span.op = p.op;
      span.start_ns = p.start_ns;
      span.end_ns = end_ns;
      span.match = p.match;
      span.items = static_cast<uint32_t>(p.keys.size());
      tracer_->Record(span);
    }
  }

  const Plan& plan_;
  Tracer* const tracer_;
  iamdb::Client client_;
  std::atomic<uint64_t> completed_{0};
};

// Fills p->keys for a SCAN starting at key-order position `pos`.
void ScanKeys(const Plan& plan, uint64_t pos, int len, Pending* p) {
  p->op = Op::kScan;
  for (int i = 0; i < len && pos + i < plan.sorted.size(); i++) {
    p->keys.push_back(plan.sorted[pos + i]);
  }
}

// ---------------------------------------------------------------------------
// One DB + server instance.

struct Instance {
  std::string dir;
  std::unique_ptr<Tracer> tracer;        // traced runs only
  std::unique_ptr<TracingEnv> env;       // traced runs only
  std::unique_ptr<DB> db;
  std::unique_ptr<TracingDB> traced_db;  // traced runs only
  std::unique_ptr<iamdb::Server> server;
  std::vector<std::unique_ptr<Connection>> conns;

  void Close() {
    conns.clear();
    if (server) server->Stop();
    server.reset();
    traced_db.reset();
    db.reset();
  }
  ~Instance() { Close(); }
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "fatal: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Fatal(std::string(what) + ": " + s.ToString());
}

// Writes the next version of every key through the embedded DB (not timed
// as requests; part of set-up).
void Preload(const Plan& plan, DB* db) {
  std::vector<std::thread> threads;
  constexpr uint64_t kBatch = 100;
  for (int t = 0; t < plan.clients; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t lo = t * kBatch; lo < plan.keys;
           lo += kBatch * plan.clients) {
        iamdb::WriteBatch batch;
        uint64_t hi = std::min(plan.keys, lo + kBatch);
        std::vector<uint32_t> versions;
        for (uint64_t i = lo; i < hi; i++) {
          versions.push_back(plan.versions->NextVersion(i));
          batch.Put(plan.keyspace.Key(i),
                    MakeValue(plan.keyspace, i, versions.back()));
        }
        Check(db->Write(iamdb::WriteOptions(), &batch), "preload write");
        for (uint64_t i = lo; i < hi; i++) {
          plan.versions->Ack(i, versions[i - lo]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Reads `indices` through the embedded DB's MultiGet and checks them; this
// fills the block cache and proves the preload.
void WarmUp(const Plan& plan, DB* db, const std::vector<uint32_t>& indices) {
  constexpr size_t kBatch = 64;
  for (size_t lo = 0; lo < indices.size(); lo += kBatch) {
    size_t n = std::min(kBatch, indices.size() - lo);
    std::vector<std::string> keys(n), values(n);
    std::vector<Slice> slices(n);
    std::vector<Status> statuses(n);
    for (size_t i = 0; i < n; i++) {
      keys[i] = plan.keyspace.Key(indices[lo + i]);
      slices[i] = keys[i];
    }
    db->MultiGet(iamdb::ReadOptions(), n, slices.data(), values.data(),
                 statuses.data());
    for (size_t i = 0; i < n; i++) {
      uint32_t k = indices[lo + i];
      Verdict v = CheckValue(plan.keyspace, *plan.versions, k,
                             plan.versions->acked(k), statuses[i].ok(),
                             values[i]);
      if (!statuses[i].ok() && !statuses[i].IsNotFound()) {
        Fatal("warm-up read failed: " + statuses[i].ToString());
      }
      if (v != Verdict::kOk) {
        Fatal(std::string("warm-up read of preloaded key: ") + VerdictName(v));
      }
    }
  }
}

iamdb::Options MakeOptions(const WorkloadSpec& spec, iamdb::Env* env) {
  iamdb::Options o;  // defaults: IAM, auto (m,k), 4 MB nodes, no compression,
                     // no arbiter, no pacing, sync_wal=false
  o.env = env;
  o.block_cache_capacity = spec.cache_bytes;
  return o;
}

// Opens the DB in `dir` (an empty directory), preloads it and serves it.
std::unique_ptr<Instance> SetUp(const Plan& plan, const Args& args,
                                const std::string& dir, bool traced) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  iamdb::Env* env = iamdb::Env::Default();
  if (traced) {
    inst->tracer = std::make_unique<Tracer>();
    inst->env = std::make_unique<TracingEnv>(env, inst->tracer.get());
    env = inst->env.get();
  }
  Check(DB::Open(MakeOptions(*plan.spec, env), dir, &inst->db),
        "open");
  if (!plan.spec->ingest) {
    std::vector<uint32_t> warm;
    if (plan.spec->zipfian) {
      warm = plan.sorted;  // the whole (cache-resident) data set
    } else {
      Rng rng(args.seed ^ 0x7761726dull);
      for (uint64_t i = 0; i < plan.keys / 8; i++) {
        warm.push_back(static_cast<uint32_t>(rng.Uniform(plan.keys)));
      }
    }
    Preload(plan, inst->db.get());
    Check(inst->db->FlushAll(), "settle");
    WarmUp(plan, inst->db.get(), warm);
  }
  DB* served = inst->db.get();
  if (traced) {
    inst->traced_db =
        std::make_unique<TracingDB>(inst->db.get(), inst->tracer.get());
    served = inst->traced_db.get();
  }
  inst->server = std::make_unique<iamdb::Server>(served, iamdb::ServerOptions());
  Check(inst->server->Start(), "server start");
  for (int c = 0; c < plan.clients; c++) {
    inst->conns.push_back(std::make_unique<Connection>(
        plan, inst->server->port(), inst->tracer.get()));
    Check(inst->conns.back()->Connect(), "client connect");
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Measurement.

// Live bytes in the DB directory, split into table files and the rest.
struct DirBytes {
  uint64_t total = 0;
  uint64_t tables = 0;
};

// Tolerates files the DB deletes while the directory is being listed.
DirBytes MeasureDir(const std::string& dir) {
  DirBytes d;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    uint64_t size = e.file_size(ec);
    if (ec || !e.is_regular_file(ec)) continue;
    d.total += size;
    if (e.path().extension() == ".mst") d.tables += size;
  }
  return d;
}

double TableBytes(const DbStats& s) { return s.total_write_amp * s.user_bytes; }

struct StatSampler {
  uint64_t debt_max = 0, flush_queue_max = 0, compact_queue_max = 0;
  std::atomic<bool> stop{false};
  std::thread thread;

  void Start(DB* db) {
    thread = std::thread([this, db] {
      while (!stop.load()) {
        DbStats s = db->GetStats();
        debt_max = std::max(debt_max, s.pending_debt_bytes);
        flush_queue_max = std::max(flush_queue_max, s.flush_queue_depth);
        compact_queue_max = std::max(compact_queue_max, s.compact_queue_depth);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  void Stop() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
  ~StatSampler() { Stop(); }
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<uint64_t> per_second;  // requests completed in each second
  std::vector<double> space_samples;  // DB directory bytes, each second
  double window_s = 0;
  uint64_t window_requests = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  // at the window's end, before samples are merged
  Totals totals;          // window + read-back requests
  DbStats before, after, end;  // window start; after settle; after read-back
  iamdb::ServerStats server_before, server_after;
  DirBytes dir;
  uint64_t live_user_bytes = 0;
  std::string levels;
  // Traced runs only.
  std::vector<Span> spans;
  uint64_t env_table_bytes = 0;
  uint64_t bg_read = 0, bg_write = 0, bg_io_ns = 0;
  uint64_t debt_max = 0, flush_queue_max = 0, compact_queue_max = 0;
  std::vector<std::string> check_failures;
};

// The request generator of the measured window for one connection.  Reads
// go to any key; each key is written by one connection only (key index
// mod clients), so concurrent writes to a key cannot race and every
// acknowledged version must be visible to later reads.
struct WindowGen {
  const Plan& plan;
  Rng rng;
  uint64_t conn;
  uint64_t next_fresh;  // ingest: this connection's next fresh key
  std::atomic<int>* fresh_done;  // connections done with fresh keys
  std::atomic<bool>* stop;

  bool operator()(Pending* p) {
    if (stop->load(std::memory_order_relaxed)) return false;
    const WorkloadSpec& w = *plan.spec;
    auto pick = [&]() -> uint32_t {
      if (plan.zipf) return static_cast<uint32_t>(plan.zipf->Next(rng.NextDouble()));
      return static_cast<uint32_t>(rng.Uniform(plan.keys));
    };
    int r = static_cast<int>(rng.Uniform(100));
    if (r < w.get) {
      p->op = Op::kGet;
      p->keys = {pick()};
    } else if (r < w.get + w.mget) {
      p->op = Op::kMultiGet;
      while (p->keys.size() < kMGetKeys) {
        uint32_t k = pick();
        if (std::find(p->keys.begin(), p->keys.end(), k) == p->keys.end()) {
          p->keys.push_back(k);
        }
      }
    } else if (r < w.get + w.mget + w.scan) {
      ScanKeys(plan, plan.rank[pick()], 1 + static_cast<int>(rng.Uniform(kMaxScan)), p);
    } else {
      p->op = Op::kPut;
      uint64_t k;
      if (w.ingest && next_fresh < plan.keys) {
        k = next_fresh;
        next_fresh += plan.clients;
        if (next_fresh >= plan.keys) fresh_done->fetch_add(1);
      } else {
        k = pick();
        k = k - k % plan.clients + conn;
        if (k >= plan.keys) k -= plan.clients;
      }
      p->keys = {static_cast<uint32_t>(k)};
    }
    return true;
  }
};

// After `ingest`: re-reads every acknowledged key by MGET and a sample by
// GET and SCAN, interleaved.  These are the ingest workload's read
// latencies (reads of the tree the load built).
struct ReadBackGen {
  const Plan& plan;
  Rng rng;
  uint64_t next_key, end_key;  // MGET sweep over this slice of key indices
  uint64_t gets, scans;        // samples still to issue

  bool operator()(Pending* p) {
    uint64_t mgets = (end_key - next_key + kMGetKeys - 1) / kMGetKeys;
    uint64_t left = mgets + gets + scans;
    if (left == 0) return false;
    uint64_t r = rng.Uniform(left);
    if (r < gets) {
      gets--;
      p->op = Op::kGet;
      p->keys = {static_cast<uint32_t>(rng.Uniform(plan.keys))};
    } else if (r < gets + scans) {
      scans--;
      ScanKeys(plan, rng.Uniform(plan.keys),
               1 + static_cast<int>(rng.Uniform(kMaxScan)), p);
    } else {
      p->op = Op::kMultiGet;
      for (; next_key < end_key && p->keys.size() < kMGetKeys; next_key++) {
        p->keys.push_back(static_cast<uint32_t>(next_key));
      }
    }
    return true;
  }
};

RunResult RunWorkload(Plan& plan, const Args& args, bool traced, int setups) {
  RunResult r;
  const WorkloadSpec& w = *plan.spec;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < setups; i++) {
    if (inst) {
      std::string old = inst->dir;
      inst.reset();
      fs::remove_all(old);
    }
    plan.versions = std::make_unique<VersionTable>(plan.keys);
    std::string dir = args.dir + "/" + w.name + "-" +
                      std::to_string(getpid()) + "-" + std::to_string(i);
    fs::remove_all(dir);
    fs::create_directories(dir);
    uint64_t t0 = NowNanos();
    inst = SetUp(plan, args, dir, traced);
    r.setup_s.push_back(Seconds(t0, NowNanos()));
  }
  DB* db = inst->db.get();
  Tracer* tracer = inst->tracer.get();

  StatSampler sampler;
  if (traced) {
    sampler.Start(db);
    tracer->set_enabled(true);
  }
  r.before = db->GetStats();
  r.server_before = inst->server->stats();
  double cpu0 = CpuSeconds();
  uint64_t t0 = NowNanos();

  std::atomic<int> fresh_done{0};
  std::atomic<bool> stop{false};
  std::vector<Totals> per_thread(plan.clients);
  // Sized up front so growth never copies (a copy doubles the samples'
  // share of peak RSS for a moment); untouched capacity is not resident.
  for (auto& t : per_thread) {
    for (auto& v : t.latency_us) v.reserve(args.seconds * 25000);
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < plan.clients; c++) {
    threads.emplace_back([&, c] {
      WindowGen gen{plan, Rng(args.seed * 1000003 + c), uint64_t(c),
                    uint64_t(c), &fresh_done, &stop};
      inst->conns[c]->Run(w.depth, gen, &per_thread[c]);
    });
  }
  uint64_t deadline = t0 + static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t next_tick = t0 + 1000000000ull, last_done = 0;
  while (NowNanos() < deadline ||
         (w.ingest && fresh_done.load() < plan.clients)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (NowNanos() >= next_tick) {
      uint64_t done = 0;
      for (const auto& c : inst->conns) done += c->completed();
      r.per_second.push_back(done - last_done);
      r.space_samples.push_back(MeasureDir(inst->dir).total);
      last_done = done;
      next_tick += 1000000000ull;
    }
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  threads.clear();
  if (w.ingest) Check(db->WaitForQuiescence(), "quiescence");
  uint64_t t1 = NowNanos();
  r.cpu_s = CpuSeconds() - cpu0;
  r.peak_rss_mb = PeakRssMb();
  r.window_s = Seconds(t0, t1);
  for (auto& t : per_thread) {
    r.window_requests += t.attempted;
    r.totals.Add(t);
  }

  // Settle so every user byte of the window is flushed and compacted.
  Check(db->FlushAll(), "settle");
  r.server_after = inst->server->stats();
  r.after = db->GetStats();
  db->GetProperty("iamdb.levels", &r.levels);
  r.dir = MeasureDir(inst->dir);
  r.live_user_bytes = plan.keys * (kKeySize + kValueSize);

  if (w.ingest) {
    std::vector<Totals> rb(plan.clients);
    for (int c = 0; c < plan.clients; c++) {
      threads.emplace_back([&, c] {
        uint64_t lo = plan.keys * c / plan.clients;
        uint64_t hi = plan.keys * (c + 1) / plan.clients;
        ReadBackGen gen{plan, Rng(args.seed * 7919 + c), lo, hi,
                        20000, 3000};
        inst->conns[c]->Run(1, gen, &rb[c]);
      });
    }
    for (auto& t : threads) t.join();
    for (auto& t : rb) r.totals.Add(t);
    r.end = db->GetStats();
  } else {
    r.end = r.after;
  }

  if (traced) {
    tracer->set_enabled(false);
    sampler.Stop();
    r.debt_max = sampler.debt_max;
    r.flush_queue_max = sampler.flush_queue_max;
    r.compact_queue_max = sampler.compact_queue_max;
    const EnvTotals& et = inst->env->totals();
    r.env_table_bytes = et.table_bytes_written.load();
    r.bg_read = et.bg_read_bytes.load();
    r.bg_write = et.bg_write_bytes.load();
    r.bg_io_ns = et.bg_io_ns.load();
    double stats_bytes = TableBytes(r.after);
    if (std::fabs(r.env_table_bytes - stats_bytes) > 0.01 * stats_bytes) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "write cross-check: env wrapper saw %" PRIu64
                    " table bytes, DbStats write_amp x user_bytes = %.0f",
                    r.env_table_bytes, stats_bytes);
      r.check_failures.push_back(buf);
    }
  }
  // Space cross-check: table files on disk must be what DbStats reports.
  {
    double used = static_cast<double>(r.after.space_used_bytes);
    if (std::fabs(static_cast<double>(r.dir.tables) - used) > 0.01 * used) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "space cross-check: %" PRIu64
                    " table bytes in the directory, DbStats space_used_bytes "
                    "= %" PRIu64,
                    r.dir.tables, r.after.space_used_bytes);
      r.check_failures.push_back(buf);
    }
  }

  inst->Close();
  if (traced) r.spans = tracer->Collect();
  std::string dir = inst->dir;
  inst.reset();
  fs::remove_all(dir);
  return r;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name, unit;
  double value;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Latency medians are over every sample of the run and throughput is over
// the whole window (for ingest including the quiescence wait), so a stall
// or compaction burst anywhere in the window moves them.  The p99s are
// printed on the human-readable lines only: on a shared host they follow
// the host's scheduling hiccups more than the program (see README.md).
std::vector<Metric> EndToEnd(const RunResult& r, bool ingest) {
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", Median(r.setup_s)});
  m.push_back({"ops_per_s", "req/s", r.window_requests / r.window_s});
  const char* names[] = {"get", "mget", "scan", "put"};
  for (int op = 0; op < 4; op++) {
    Summary s = Summarize(r.totals.latency_us[op]);
    m.push_back({std::string(names[op]) + "_p50_us", "us", s.p50});
  }
  // Over the DB's whole life (preload and window): a window alone holds too
  // few compaction cycles for a steady figure.
  m.push_back({"write_amp", "ratio", r.after.total_write_amp});
  double dir_bytes = ingest || r.space_samples.empty()
                         ? r.dir.total
                         : Median(r.space_samples);
  m.push_back({"space_amp", "ratio",
               Ratio(dir_bytes, static_cast<double>(r.live_user_bytes))});
  m.push_back({"cpu_us_per_op", "us", Ratio(r.cpu_s * 1e6, r.window_requests)});
  m.push_back({"peak_rss_mb", "MB", r.peak_rss_mb});
  return m;
}

// Parses "L<n>: <nodes> nodes <x>MB <seqs> sequences" lines.
std::map<int, double> SequencesPerNode(const std::string& levels) {
  std::map<int, double> out;
  size_t pos = 0;
  while (pos < levels.size()) {
    size_t eol = levels.find('\n', pos);
    if (eol == std::string::npos) eol = levels.size();
    std::string line = levels.substr(pos, eol - pos);
    int level = 0;
    unsigned long long nodes = 0, seqs = 0;
    double mb = 0;
    if (std::sscanf(line.c_str(), "L%d: %llu nodes %lfMB %llu sequences",
                    &level, &nodes, &mb, &seqs) == 4) {
      out[level] = Ratio(static_cast<double>(seqs), static_cast<double>(nodes));
    }
    pos = eol + 1;
  }
  return out;
}

constexpr int kReportedLevels = 4;

std::vector<Metric> PerLayer(RunResult& r, double untraced_ops_per_s) {
  std::vector<Metric> m;
  auto add = [&](const std::string& n, const std::string& u, double v) {
    m.push_back({n, u, v});
  };
  std::vector<Span>& spans = r.spans;
  size_t matched = MatchDbSpans(&spans);
  std::vector<uint64_t> self = SelfTimes(spans);

  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); i++) by_id[spans[i].id] = i;

  std::vector<double> server_self, db_dur[4], get_self, wal_us, fg_read_us,
      sync_us;
  uint64_t db_spans = 0, gets = 0, puts = 0, wal_appends = 0, wal_bytes = 0;
  uint64_t fg_get_reads = 0, readv_calls = 0, readv_segments = 0, syncs = 0;
  double write_span_us = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    switch (s.layer) {
      case Layer::kClient:
        break;
      case Layer::kDb: {
        db_spans++;
        int op = static_cast<int>(s.op);
        db_dur[op].push_back(s.duration() / 1e3);
        if (s.op == Op::kGet) {
          gets++;
          get_self.push_back(self[i] / 1e3);
        }
        if (s.op == Op::kPut) {
          puts++;
          write_span_us += s.duration() / 1e3;
        }
        if (s.parent != 0) {
          // The request's time outside the DB call: client, wire, server.
          server_self.push_back(self[by_id[s.parent]] / 1e3);
        }
        break;
      }
      case Layer::kEnv: {
        if (s.op == Op::kSync) {
          syncs++;
          sync_us.push_back(s.duration() / 1e3);
        }
        if (s.op == Op::kAppend && s.wal) {
          wal_appends++;
          wal_bytes += s.bytes;
          wal_us.push_back(s.duration() / 1e3);
        }
        if (s.parent == 0) break;
        if (s.op == Op::kRead || s.op == Op::kReadV) {
          fg_read_us.push_back(s.duration() / 1e3);
          auto it = by_id.find(s.parent);
          if (it != by_id.end() && spans[it->second].op == Op::kGet) {
            fg_get_reads += s.op == Op::kRead ? 1 : s.items;
          }
        }
        if (s.op == Op::kReadV) {
          readv_calls++;
          readv_segments += s.items;
        }
        break;
      }
    }
  }

  const DbStats& a = r.before;
  const DbStats& b = r.after;
  const iamdb::ServerStats& sa = r.server_before;
  const iamdb::ServerStats& sb = r.server_after;
  Summary ss = Summarize(server_self);
  add("server.self_us_p50", "us", ss.p50);
  add("server.self_us_p99", "us", ss.p99);
  add("server.responses_per_writev", "ratio",
      Ratio(sb.responses_written - sa.responses_written,
            sb.writev_calls - sa.writev_calls));
  add("server.loop_iterations_per_request", "ratio",
      Ratio(sb.loop_iterations - sa.loop_iterations, sb.requests - sa.requests));
  add("server.backpressure_stalls", "count",
      sb.backpressure_stalls - sa.backpressure_stalls);

  const char* ops[] = {"get", "mget", "scan", "write"};
  for (int op = 0; op < 4; op++) {
    Summary s = Summarize(db_dur[op]);
    add(std::string("core.") + ops[op] + "_us_p50", "us", s.p50);
    add(std::string("core.") + ops[op] + "_us_p99", "us", s.p99);
  }
  add("core.get_self_us_p50", "us", Summarize(get_self).p50);
  double stall_us = b.stall_micros - a.stall_micros;
  add("core.stall_s", "s", stall_us / 1e6);
  add("core.stall_share", "ratio", Ratio(stall_us, write_span_us));
  add("core.pending_debt_mb_max", "MB", r.debt_max / double(kMB));
  add("core.flush_queue_max", "count", r.flush_queue_max);
  add("core.compact_queue_max", "count", r.compact_queue_max);
  add("core.subcompactions", "count",
      b.subcompactions_run - a.subcompactions_run);

  add("amt.mixed_level", "level", b.mixed_level);
  add("amt.mixed_k", "count", b.mixed_level_k);
  add("amt.mixed_level_retunes", "count",
      b.mixed_level_retunes - a.mixed_level_retunes);
  double user = b.user_bytes - a.user_bytes;
  std::map<int, double> spn = SequencesPerNode(r.levels);
  for (int l = 1; l <= kReportedLevels; l++) {
    auto level_bytes = [&](const DbStats& s) {
      size_t i = l;  // the AMT engine records flushes into L1 at index 1
      return i < s.level_write_amp.size() ? s.level_write_amp[i] * s.user_bytes
                                          : 0.0;
    };
    add("amt.level_write_amp.L" + std::to_string(l), "ratio",
        Ratio(level_bytes(b) - level_bytes(a), user));
    add("amt.sequences_per_node.L" + std::to_string(l), "ratio",
        spn.count(l) ? spn[l] : 0);
  }

  // Read-path counters run to the end, so ingest's read-back counts.
  const DbStats& e = r.end;
  double hits = e.cache_hits - a.cache_hits;
  double misses = e.cache_misses - a.cache_misses;
  add("table.cache_hit_ratio", "ratio", Ratio(hits, hits + misses));
  double creads = e.multiget_coalesced_reads - a.multiget_coalesced_reads;
  add("table.mget_blocks_per_coalesced_read", "ratio",
      Ratio(e.multiget_coalesced_blocks - a.multiget_coalesced_blocks, creads));
  add("table.mget_coalesced_reads_per_key", "ratio",
      Ratio(creads, e.multiget_keys - a.multiget_keys));

  Summary ws = Summarize(wal_us);
  add("wal.appends_per_put", "ratio", Ratio(wal_appends, puts));
  add("wal.append_us_p50", "us", ws.p50);
  add("wal.append_us_p99", "us", ws.p99);
  add("wal.bytes_per_put", "B", Ratio(wal_bytes, puts));

  Summary rs = Summarize(fg_read_us);
  add("env.fg_reads_per_get", "ratio", Ratio(fg_get_reads, gets));
  add("env.fg_read_us_p50", "us", rs.p50);
  add("env.fg_read_us_p99", "us", rs.p99);
  add("env.readv_segments_per_call", "ratio", Ratio(readv_segments, readv_calls));
  add("env.bg_write_mb", "MB", r.bg_write / double(kMB));
  add("env.bg_read_mb", "MB", r.bg_read / double(kMB));
  add("env.bg_io_s", "s", r.bg_io_ns / 1e9);
  add("env.syncs", "count", syncs);
  add("env.sync_us_p99", "us", Summarize(sync_us).p99);

  double traced_ops = r.window_requests / r.window_s;
  add("trace.overhead", "ratio", Ratio(untraced_ops_per_s, traced_ops) - 1);
  add("trace.spans", "count", spans.size());
  add("trace.matched_share", "ratio", Ratio(matched, db_spans));
  return m;
}

void PrintResult(bool correct, const Totals& t,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", t.attempted, t.failed + t.wrong);
  for (size_t i = 0; i < metrics.size(); i++) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintHuman(const RunResult& r, const std::vector<Metric>& metrics) {
  const char* names[] = {"GET", "MGET", "SCAN", "PUT"};
  for (int op = 0; op < 4; op++) {
    Summary s = Summarize(r.totals.latency_us[op]);
    std::printf("# %-5s samples=%zu p50=%.1fus p99=%.1fus max=%.1fus\n",
                names[op], s.count, s.p50, s.p99, s.max);
  }
  std::printf("# window=%.2fs requests=%" PRIu64 " attempted=%" PRIu64
              " failed=%" PRIu64 " wrong=%" PRIu64 " fail_ratio=%.6f\n",
              r.window_s, r.window_requests, r.totals.attempted,
              r.totals.failed, r.totals.wrong,
              Ratio(r.totals.failed + r.totals.wrong, r.totals.attempted));
  std::printf("# per-second requests:");
  for (uint64_t n : r.per_second) std::printf(" %" PRIu64, n);
  std::printf("\n# setups:");
  for (double s : r.setup_s) std::printf(" %.6fs", s);
  std::printf("\n# tree (m,k)=(%d,%d) dir=%.1fMB tables=%.1fMB "
              "space_used=%.1fMB\n",
              r.after.mixed_level, r.after.mixed_level_k,
              r.dir.total / double(kMB), r.dir.tables / double(kMB),
              r.after.space_used_bytes / double(kMB));
  for (const Metric& m : metrics) {
    std::printf("# %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  fs::create_directories(args.dir);

  Plan plan;
  plan.spec = spec;
  plan.keys = spec->keys;
  int cpus = OnlineCpus();
  plan.clients = std::clamp(cpus, 1, spec->clients);
  plan.keyspace = KeySpace(args.seed);
  // Key order of the whole key space (benchmark bookkeeping, not set-up).
  {
    std::vector<std::pair<std::string, uint32_t>> order;
    order.reserve(plan.keys);
    for (uint64_t i = 0; i < plan.keys; i++) {
      order.emplace_back(plan.keyspace.Key(i), static_cast<uint32_t>(i));
    }
    std::sort(order.begin(), order.end());
    plan.rank.resize(plan.keys);
    for (size_t p = 0; p < order.size(); p++) {
      plan.sorted.push_back(order[p].second);
      plan.rank[order[p].second] = static_cast<uint32_t>(p);
    }
  }
  if (spec->zipfian) plan.zipf = std::make_unique<ScrambledZipfian>(plan.keys);

  iamdb::Options defaults;
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec->name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# stamp: nproc=%d build=%s sync_points=%s compiler=\"%s\" "
              "git_sha=%s src_digest=%s fs=%s\n",
              cpus, PERFBENCH_BUILD_TYPE,
#ifdef IAMDB_SYNC_POINTS
              "on",
#else
              "off",
#endif
              PERFBENCH_COMPILER, args.git_sha.c_str(), args.src_digest.c_str(),
              FsName(args.dir).c_str());
  std::printf("# config: engine=iam auto_mk=%d node=%lluMB bg_threads=%d "
              "cache=%.0fMB compression=off arbiter=off pacing=off "
              "sync_wal=false server_workers=%d server_shards=default "
              "key=%zuB value=%zuB keys=%" PRIu64 " clients=%d depth=%d "
              "mix(get/mget/scan/put)=%d/%d/%d/%d keys=%s loop=closed\n",
              defaults.amt.auto_tune_mk ? 1 : 0,
              static_cast<unsigned long long>(defaults.node_capacity / kMB),
              defaults.background_threads,
              spec->cache_bytes /
                  double(kMB),
              iamdb::ServerOptions().num_workers, kKeySize, kValueSize,
              plan.keys, plan.clients, spec->depth, spec->get, spec->mget,
              spec->scan, spec->put, spec->zipfian ? "zipfian" : "uniform");
  std::fflush(stdout);

  std::vector<Metric> metrics;
  RunResult result;
  if (!args.trace) {
    result = RunWorkload(plan, args, false, spec->setups);
    metrics = EndToEnd(result, spec->ingest);
  } else {
    RunResult untraced = RunWorkload(plan, args, false, 1);
    double untraced_ops = untraced.window_requests / untraced.window_s;
    result = RunWorkload(plan, args, true, 1);
    result.totals.Add(untraced.totals);
    metrics = PerLayer(result, untraced_ops);
    if (!args.trace_out.empty() && !WriteSpans(result.spans, args.trace_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.trace_out.c_str());
    }
  }
  PrintHuman(result, metrics);
  for (const auto& f : result.check_failures) {
    std::fprintf(stderr, "cross-check failed: %s\n", f.c_str());
  }
  if (!result.totals.first_problem.empty()) {
    std::fprintf(stderr, "first problem: %s\n",
                 result.totals.first_problem.c_str());
  }
  bool correct = result.totals.wrong == 0 && result.check_failures.empty();
  PrintResult(correct, result.totals, metrics);
  return correct && result.totals.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
