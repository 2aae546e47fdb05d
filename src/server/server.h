// Event-driven TCP front end exposing a DB over the wire protocol of
// wire_protocol.h.
//
// Thread model — O(shards + workers), independent of connection count:
//
//   * one acceptor thread owns the listening socket and hands accepted
//     sockets to the reactor shards round-robin;
//   * `num_shards` reactor threads each run an epoll loop over the
//     non-blocking connections they own: they decode frames, answer
//     cache-resident reads inline (below), dispatch every other request
//     onto the shared two-lane ThreadPool, and write responses;
//   * `num_workers` pool threads execute DB work and post each finished
//     response back to the owning shard (eventfd wakeup), where it is
//     appended to the connection's output buffer.
//
// Inline reads: a GET, or an MGET of at most 64 keys, is first executed on
// the reactor with ReadOptions::cache_only, which answers from the
// memtables and block-cache tiers and returns Incomplete rather than touch
// the device or wait on a table's open lock.  A hit is queued
// straight onto the connection — no pool hop, no eventfd round trip.  An
// Incomplete goes to the pool exactly like any other request.  A
// per-connection gate on the observed hit ratio of these attempts keeps a
// connection whose reads miss the cache from paying for probes the pool
// then repeats; it still re-probes now and then to notice a warming cache.
// PUT, DELETE, WRITE, SCAN and INFO always run on the pool.
//
// Responses queued for one connection are flushed with a single writev()
// whenever possible, so a pipelined client pays one syscall for a whole
// batch of responses instead of one per response.  Requests from one
// connection still pipeline: up to `max_pipeline` execute concurrently
// and responses complete out of order (correlate by request_id).
//
// Backpressure: a connection whose output buffer exceeds
// `output_buffer_soft_limit` stops being read (its requests stop being
// decoded) until the peer drains; one that exceeds
// `output_buffer_hard_limit` — possible because already-dispatched
// requests keep completing while reading is paused — is disconnected.
//
// Shutdown is graceful: Stop() stops accepting, half-closes every
// connection's read side, waits for in-flight requests to finish and
// their responses to flush, then joins all threads.  Stop() is
// idempotent and a concurrent second caller blocks until the server is
// fully stopped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "server/wire_protocol.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace iamdb {

struct ServerOptions {
  // IPv4 address to bind; loopback by default (no auth on the protocol).
  std::string host = "127.0.0.1";
  // 0 picks an ephemeral port; read it back via Server::port().
  int port = 0;
  // DB work executes on this many pool threads.
  int num_workers = 4;
  // Reactor shards owning connection I/O; 0 derives a default from
  // hardware_concurrency (clamped to [1, 4]).
  int num_shards = 0;
  int backlog = 128;
  // Per-connection cap on concurrently executing requests; the shard
  // stops decoding further frames until a slot frees (backpressure).
  int max_pipeline = 128;
  // Reading from a connection pauses while its buffered responses exceed
  // the soft limit; the connection is dropped past the hard limit.
  size_t output_buffer_soft_limit = 1u << 20;
  size_t output_buffer_hard_limit = 64u << 20;
  // SO_SNDBUF for accepted sockets; 0 keeps the OS default.  Tests shrink
  // it so backpressure triggers deterministically.
  int sndbuf_bytes = 0;
  // Per-request cap on MGET fan-in.
  uint32_t max_mget_keys = 4096;
  // SCAN limit applied when the request asks for 0, and the hard cap.
  uint32_t default_scan_limit = 1000;
  uint32_t max_scan_limit = 100000;
  // SCAN responses stop adding entries past this many payload bytes
  // (marked truncated) so a frame stays well under wire::kMaxFrameSize.
  size_t max_scan_bytes = 4u << 20;
};

// Serving-layer counters, one per line; ServerStats, the server's relaxed
// atomics, Server::stats() and StatsString() all derive from this list.
#define IAMDB_SERVER_STATS(X)                                             \
  X(connections_accepted)                                                 \
  X(connections_active)                                                   \
  X(requests)                                                             \
  X(puts)                                                                 \
  X(gets)                                                                 \
  X(deletes)                                                              \
  X(writes)                                                               \
  X(scans)                                                                \
  X(infos)                                                                \
  X(pings)                                                                \
  X(mgets)                                                                \
  X(mget_keys)                                                            \
  X(malformed_frames)                                                     \
  X(bytes_received)                                                       \
  X(bytes_sent)                                                           \
  /* Reactor observability. */                                            \
  X(accept_errors)        /* accept() failures (EMFILE backoff &c) */     \
  X(loop_iterations)      /* epoll_wait returns, summed over shards */    \
  X(writev_calls)                                                         \
  X(responses_written)    /* frames fully flushed to a socket */          \
  X(output_buffer_hwm)    /* max buffered response bytes seen */          \
  X(backpressure_stalls)  /* reads paused on the soft limit */            \
  X(overflow_disconnects) /* connections dropped at the hard limit */     \
  /* Inline (reactor) reads.  Each GET/MGET the reactor may answer is */  \
  /* answered inline, tried inline and handed to the pool (Incomplete), */ \
  /* or sent to the pool because the connection's hit-ratio gate said  */ \
  /* no.                                                               */ \
  X(inline_reads)                                                         \
  X(inline_fallbacks)                                                     \
  X(inline_skipped)

#define IAMDB_SERVER_STAT_MEMBER(field) uint64_t field = 0;

// Monotonic counters (connections_active and output_buffer_hwm are gauges);
// sampled via GetProperty("server.stats") or the INFO opcode's property
// passthrough.  Snapshot of the server-internal relaxed atomics — counters
// are individually, not mutually, consistent.
struct ServerStats {
  IAMDB_SERVER_STATS(IAMDB_SERVER_STAT_MEMBER)
};

#undef IAMDB_SERVER_STAT_MEMBER

#define IAMDB_SERVER_STAT_VISIT(field) f(#field, s.field...);

// Calls f(name, s.<field>...) for every server counter, in list order.
template <typename F, typename... Stats>
void ForEachServerStat(F&& f, Stats&... s) {
  IAMDB_SERVER_STATS(IAMDB_SERVER_STAT_VISIT)
}

#undef IAMDB_SERVER_STAT_VISIT

class Server {
 public:
  // `db` must outlive the server and is shared with any local users; the
  // server adds no locking beyond what DB already guarantees.
  Server(DB* db, ServerOptions options);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the acceptor, reactor shards and worker
  // pool.  Not restartable: one Start()/Stop() cycle per instance.
  Status Start();

  // Graceful shutdown: drain in-flight requests, flush their responses,
  // join every thread.  Idempotent; safe to call concurrently with
  // serving.  A second concurrent caller blocks until teardown completes,
  // so any caller returning from Stop() observes a fully stopped server.
  void Stop();

  // Port actually bound (differs from options.port when that was 0).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  // The "server.stats" property body: shards=N, then one name=value line
  // per counter.
  std::string StatsString() const;

  // Reactor count, resolved at construction; it outlives Stop().
  int num_shards() const { return num_shards_; }

 private:
  struct Connection;
  struct Shard;
  struct AtomicStats;

  enum class State { kIdle, kRunning, kStopping, kStopped };

  void AcceptLoop();
  void ShardLoop(Shard* shard);

  // Executes one request against the DB, counts it and builds its complete
  // response frame.  Returns false — nothing counted, *frame untouched —
  // when read_options.cache_only and the answer needs device I/O.
  bool Execute(uint64_t request_id, wire::Opcode op, const Slice& payload,
               const ReadOptions& read_options, std::string* frame);

  // Runs on a pool worker (or inline during teardown): Execute()s the
  // request and posts the response frame to the owning shard.
  void ExecuteRequest(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, wire::Opcode op,
                      const std::string& payload);

  // Shard-loop helpers; all run on the owning shard's thread.
  void AddConnection(Shard* shard, int fd);
  void HandleReadable(Shard* shard, const std::shared_ptr<Connection>& conn);
  void ProcessInput(Shard* shard, const std::shared_ptr<Connection>& conn);
  void QueueResponse(Shard* shard, Connection* conn, std::string frame);
  void FlushOutput(Shard* shard, Connection* conn);
  void UpdateInterest(Shard* shard, Connection* conn);
  void MaybeResume(Shard* shard, const std::shared_ptr<Connection>& conn);
  void MaybeFinish(Shard* shard, Connection* conn);
  void CloseConnection(Shard* shard, Connection* conn);

  // Read handlers return false, leaving *out empty, when a cache_only read
  // came back Incomplete.
  bool DoGet(const ReadOptions& read_options, const Slice& payload,
             std::string* out);
  bool DoMultiGet(const ReadOptions& read_options, const Slice& payload,
                  std::string* out);
  void DoPut(const Slice& payload, std::string* out);
  void DoDelete(const Slice& payload, std::string* out);
  void DoWrite(const Slice& payload, std::string* out);
  void DoScan(const Slice& payload, std::string* out);
  void DoInfo(const Slice& payload, std::string* out);

  DB* const db_;
  const ServerOptions options_;
  const int num_shards_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Start/Stop lifecycle; guards `state_` only (the serving hot path
  // never touches it).
  mutable std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  State state_ = State::kIdle;

  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace iamdb
