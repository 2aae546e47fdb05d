#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "core/snapshot.h"
#include "memtable/write_batch.h"
#include "util/coding.h"

namespace iamdb {

namespace {

constexpr int kMaxEpollEvents = 64;
// iovecs per vectored send; far below IOV_MAX, and 64 coalesced responses
// per syscall already amortizes the syscall to noise.
constexpr int kMaxIov = 64;

// An MGET with more keys than this always runs on the pool, so one large
// batch cannot stall every other connection on its reactor shard.
constexpr uint32_t kMaxInlineMultiGetKeys = 64;

// Decides whether a connection's next GET/MGET is first tried inline with
// ReadOptions::cache_only.  It tracks the hit ratio of those attempts as an
// EWMA (alpha 1/8, fixed point).  While the ratio is at least 1/2 every read
// is tried; below that only every 16th, so a connection whose reads miss the
// cache rarely pays for a probe the pool then repeats, yet notices when the
// cache warms.  Driven only by the connection's own observed traffic;
// reactor-thread only.
class InlineGate {
 public:
  bool ShouldTry() {
    if (hit_ratio_ >= kOne / 2) return true;
    return ++skipped_ % kReprobeInterval == 0;
  }

  void Record(bool hit) { hit_ratio_ += ((hit ? kOne : 0) - hit_ratio_) / 8; }

 private:
  static constexpr int kOne = 1 << 10;
  static constexpr uint32_t kReprobeInterval = 16;
  int hit_ratio_ = kOne;  // a new connection starts by trying
  uint32_t skipped_ = 0;
};

// Whether a request is a read the reactor may answer inline.
bool InlineCandidate(wire::Opcode op, Slice payload) {
  if (op == wire::Opcode::kGet) return true;
  uint32_t keys;
  return op == wire::Opcode::kMultiGet && GetVarint32(&payload, &keys) &&
         keys <= kMaxInlineMultiGetKeys;
}

// Counts records while Iterate() checks structural integrity.
class CountingHandler : public WriteBatch::Handler {
 public:
  void Put(const Slice&, const Slice&) override { count++; }
  void Delete(const Slice&) override { count++; }
  int count = 0;
};

void RelaxedAdd(std::atomic<uint64_t>& counter, uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

void RelaxedMax(std::atomic<uint64_t>& counter, uint64_t v) {
  uint64_t cur = counter.load(std::memory_order_relaxed);
  while (v > cur && !counter.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed,
                        std::memory_order_relaxed)) {
  }
}

}  // namespace

// Request/response counters as relaxed atomics: requests complete on every
// pool worker and flush on every shard, so a shared mutex here would be
// per-request contention for numbers that only need to be individually
// monotonic.
#define IAMDB_SERVER_STAT_ATOMIC(field) std::atomic<uint64_t> field{0};

struct Server::AtomicStats {
  IAMDB_SERVER_STATS(IAMDB_SERVER_STAT_ATOMIC)
};

#undef IAMDB_SERVER_STAT_ATOMIC

// One accepted socket, owned by exactly one shard.  Everything here is
// touched only from the owning shard's thread; pool workers hold a
// shared_ptr for lifetime but post responses through Shard::completions,
// never into the connection directly.
struct Server::Connection {
  int fd = -1;
  Shard* shard = nullptr;

  std::string in_buf;                 // received bytes; incomplete frame tail
  std::deque<std::string> out_frames; // encoded responses awaiting the socket
  size_t out_front_off = 0;           // bytes of out_frames.front() already sent
  size_t out_bytes = 0;               // total buffered response bytes
  int outstanding = 0;                // dispatched, response not yet queued

  bool read_closed = false;  // EOF / read error / fatal framing error
  bool paused = false;       // decoding paused (pipeline cap or backpressure)
  bool want_write = false;   // EPOLLOUT armed (socket was full)
  bool dead = false;         // closed; late completions are dropped
  bool touched = false;      // dedup flag for the per-iteration flush list
  uint32_t armed_events = 0; // events currently registered with epoll
  InlineGate inline_gate;
};

// One epoll reactor.  The loop thread owns `conns` and all connection
// state; `mu` guards only the two inbound queues (accepted sockets from
// the acceptor, finished responses from pool workers), which the loop
// drains after every epoll_wait.  `wake_fd` is an eventfd registered in
// the epoll set (data.ptr == nullptr) so producers can interrupt a
// blocking wait; `wake_pending` coalesces redundant wakeups.
struct Server::Shard {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  // Loop-thread-only.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  size_t outstanding_total = 0;  // across all conns, incl. already-closed
  // Closed connections stay alive here until the next loop iteration so
  // raw pointers inside an already-collected epoll event batch stay valid.
  std::vector<std::shared_ptr<Connection>> graveyard;

  std::mutex mu;
  bool wake_pending = false;
  std::vector<int> pending_accepts;
  std::vector<std::pair<std::shared_ptr<Connection>, std::string>>
      completions;

  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }
};

Server::Server(DB* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      stats_(std::make_unique<AtomicStats>()) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  {
    std::lock_guard<std::mutex> l(lifecycle_mu_);
    if (state_ != State::kIdle) {
      return Status::NotSupported("server is not restartable");
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket", std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host address", options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IOError("bind", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    Status s = Status::IOError("listen", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  int num_shards = options_.num_shards;
  if (num_shards <= 0) {
    num_shards = static_cast<int>(std::thread::hardware_concurrency());
    num_shards = std::clamp(num_shards, 1, 4);
  }
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; i++) {
    auto shard = std::make_unique<Shard>();
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->wake_fd < 0) {
      Status s = Status::IOError("epoll/eventfd", std::strerror(errno));
      if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
      if (shard->wake_fd >= 0) ::close(shard->wake_fd);
      for (auto& prev : shards_) {
        ::close(prev->epoll_fd);
        ::close(prev->wake_fd);
      }
      shards_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wakeup eventfd
    ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->wake_fd, &ev);
    shards_.push_back(std::move(shard));
  }

  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.num_workers));
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> l(lifecycle_mu_);
    state_ = State::kRunning;
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw] { ShardLoop(raw); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  {
    std::unique_lock<std::mutex> l(lifecycle_mu_);
    if (state_ == State::kIdle || state_ == State::kStopped) return;
    if (state_ == State::kStopping) {
      // A concurrent caller owns the teardown; block until it completes
      // so every caller returning from Stop() sees a fully-stopped server.
      lifecycle_cv_.wait(l, [this] { return state_ == State::kStopped; });
      return;
    }
    state_ = State::kStopping;
  }

  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();  // poll loop sees stopping_
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Wake every shard so a loop blocked in epoll_wait notices stopping_,
  // half-closes its connections and drains.  Each loop exits once all its
  // connections have finished their in-flight requests and flushed.
  for (auto& shard : shards_) shard->Wake();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }

  pool_->WaitIdle();
  pool_.reset();
  for (auto& shard : shards_) {
    ::close(shard->epoll_fd);
    ::close(shard->wake_fd);
  }
  shards_.clear();
  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> l(lifecycle_mu_);
    state_ = State::kStopped;
  }
  lifecycle_cv_.notify_all();
}

ServerStats Server::stats() const {
  ServerStats s;
  ForEachServerStat(
      [](const char*, uint64_t& out, const std::atomic<uint64_t>& counter) {
        out = counter.load(std::memory_order_relaxed);
      },
      s, *stats_);
  return s;
}

std::string Server::StatsString() const {
  const ServerStats s = stats();
  std::string out = "shards=" + std::to_string(num_shards()) + "\n";
  ForEachServerStat(
      [&out](const char* name, uint64_t v) {
        out.append(name).append("=").append(std::to_string(v)).append("\n");
      },
      s);
  return out;
}

void Server::AcceptLoop() {
  size_t next_shard = 0;
  int backoff_ms = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0 || !(pfd.revents & POLLIN)) continue;

    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      // EMFILE/ENFILE/ENOBUFS/...: the fd table (or kernel memory) is
      // exhausted and the pending connection stays in the backlog, so a
      // plain retry spins poll+accept at full speed.  Count it and back
      // off exponentially; a freed descriptor ends the wait early only in
      // the sense that the next round's accept succeeds and resets it.
      RelaxedAdd(stats_->accept_errors, 1);
      backoff_ms = backoff_ms == 0 ? 10 : std::min(backoff_ms * 2, 1000);
      for (int waited = 0;
           waited < backoff_ms && !stopping_.load(std::memory_order_acquire);
           waited += 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    backoff_ms = 0;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    RelaxedAdd(stats_->connections_accepted, 1);
    RelaxedAdd(stats_->connections_active, 1);

    Shard* shard = shards_[next_shard++ % shards_.size()].get();
    bool wake = false;
    {
      std::lock_guard<std::mutex> l(shard->mu);
      shard->pending_accepts.push_back(fd);
      if (!shard->wake_pending) {
        shard->wake_pending = true;
        wake = true;
      }
    }
    if (wake) shard->Wake();
  }
}

void Server::ShardLoop(Shard* shard) {
  epoll_event events[kMaxEpollEvents];
  std::vector<std::shared_ptr<Connection>> touched;
  bool half_closed = false;

  while (true) {
    shard->graveyard.clear();
    // Block indefinitely while serving (the eventfd interrupts); poll at
    // 100ms while draining so shutdown cannot hang on a lost wakeup.
    const int timeout =
        stopping_.load(std::memory_order_acquire) ? 100 : -1;
    int n = ::epoll_wait(shard->epoll_fd, events, kMaxEpollEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EBADF etc.: unrecoverable, abandon the loop
    }
    RelaxedAdd(stats_->loop_iterations, 1);
    const bool stopping = stopping_.load(std::memory_order_acquire);

    for (int i = 0; i < n; i++) {
      if (events[i].data.ptr == nullptr) {
        uint64_t junk;
        while (::read(shard->wake_fd, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      Connection* raw = static_cast<Connection*>(events[i].data.ptr);
      // A connection closed earlier in this batch: the object is kept
      // alive by the graveyard, but there is nothing left to do.
      if (raw->dead) continue;
      auto it = shard->conns.find(raw->fd);
      if (it == shard->conns.end()) continue;
      std::shared_ptr<Connection> conn = it->second;

      if (events[i].events & EPOLLOUT) {
        FlushOutput(shard, conn.get());
        if (!conn->dead) {
          MaybeResume(shard, conn);
          MaybeFinish(shard, conn.get());
        }
      }
      if (!conn->dead &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        HandleReadable(shard, conn);
      }
    }

    // Drain the inbound queues: new sockets from the acceptor, finished
    // responses from the pool.  All responses are appended to their
    // connections' buffers first and each touched connection is flushed
    // once afterwards — that is what coalesces a burst of pipelined
    // completions into a single writev.
    std::vector<int> accepts;
    std::vector<std::pair<std::shared_ptr<Connection>, std::string>> done;
    {
      std::lock_guard<std::mutex> l(shard->mu);
      accepts.swap(shard->pending_accepts);
      done.swap(shard->completions);
      shard->wake_pending = false;
    }
    for (int fd : accepts) {
      if (stopping) {
        ::close(fd);
        RelaxedAdd(stats_->connections_active, static_cast<uint64_t>(-1));
        continue;
      }
      AddConnection(shard, fd);
    }
    touched.clear();
    for (auto& [conn, frame] : done) {
      Connection* c = conn.get();
      c->outstanding--;
      shard->outstanding_total--;
      if (c->dead) continue;
      QueueResponse(shard, c, std::move(frame));
      if (!c->dead && !c->touched) {
        c->touched = true;
        touched.push_back(conn);
      }
    }
    for (auto& conn : touched) {
      conn->touched = false;
      if (conn->dead) continue;
      FlushOutput(shard, conn.get());
      if (conn->dead) continue;
      MaybeResume(shard, conn);
      MaybeFinish(shard, conn.get());
    }

    if (stopping) {
      if (!half_closed) {
        half_closed = true;
        // Half-close: readers see EOF, stop producing requests, and the
        // drain below waits for what was already dispatched.
        for (auto& [fd, conn] : shard->conns) {
          ::shutdown(fd, SHUT_RD);
          (void)conn;
        }
      }
      if (shard->conns.empty() && shard->outstanding_total == 0) {
        std::lock_guard<std::mutex> l(shard->mu);
        if (shard->completions.empty() && shard->pending_accepts.empty()) {
          break;
        }
      }
    }
  }
  shard->graveyard.clear();
}

void Server::AddConnection(Shard* shard, int fd) {
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  conn->shard = shard;
  conn->armed_events = EPOLLIN;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    RelaxedAdd(stats_->connections_active, static_cast<uint64_t>(-1));
    return;
  }
  shard->conns.emplace(fd, std::move(conn));
}

void Server::HandleReadable(Shard* shard,
                            const std::shared_ptr<Connection>& conn) {
  Connection* c = conn.get();
  char chunk[64 << 10];
  while (!c->read_closed && !c->paused && !c->dead) {
    ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c->read_closed = true;  // hard error: treat as EOF, drain and close
      break;
    }
    if (n == 0) {
      c->read_closed = true;  // peer closed (or Stop() half-closed)
      break;
    }
    RelaxedAdd(stats_->bytes_received, static_cast<uint64_t>(n));
    c->in_buf.append(chunk, static_cast<size_t>(n));
    ProcessInput(shard, conn);
  }
  if (!c->dead) {
    UpdateInterest(shard, c);
    MaybeFinish(shard, c);
  }
}

void Server::ProcessInput(Shard* shard,
                          const std::shared_ptr<Connection>& conn) {
  Connection* c = conn.get();
  size_t consumed_total = 0;
  // Inline answers queued by this call and not yet offered to the socket.
  bool unflushed = false;
  while (!c->dead) {
    // Backpressure: stop decoding while the pipeline is full or the peer
    // is not draining its responses.  MaybeResume() restarts decoding of
    // whatever stayed buffered once a slot frees / the output drains.
    if (c->outstanding >= options_.max_pipeline ||
        c->out_bytes > options_.output_buffer_soft_limit) {
      if (unflushed) {
        // Offer the inline answers to the socket before judging the peer:
        // pausing only once a send has come up short guarantees an EPOLLOUT
        // (or a pool completion) will resume decoding.
        unflushed = false;
        FlushOutput(shard, c);
        continue;
      }
      if (!c->paused) {
        c->paused = true;
        if (c->out_bytes > options_.output_buffer_soft_limit) {
          RelaxedAdd(stats_->backpressure_stalls, 1);
        }
      }
      break;
    }

    Slice body;
    size_t consumed = 0;
    wire::FrameResult r =
        wire::DecodeFrame(c->in_buf.data() + consumed_total,
                          c->in_buf.size() - consumed_total, &body, &consumed);
    if (r == wire::FrameResult::kNeedMore) break;
    if (r != wire::FrameResult::kOk) {
      // Bad CRC or insane length: the stream cannot be resynchronized.
      // Report once (request_id 0: the header is untrusted), flush, close.
      RelaxedAdd(stats_->malformed_frames, 1);
      std::string msg;
      wire::EncodeStatus(
          Status::Corruption(r == wire::FrameResult::kBadCrc
                                 ? "frame checksum mismatch"
                                 : "frame length out of range"),
          &msg);
      std::string frame;
      wire::BuildFrame(0, wire::Opcode::kError, msg, &frame);
      c->in_buf.clear();
      c->read_closed = true;
      QueueResponse(shard, c, std::move(frame));
      if (!c->dead) {
        FlushOutput(shard, c);
        if (!c->dead) MaybeFinish(shard, c);
      }
      return;
    }

    uint64_t request_id = 0;
    wire::Opcode opcode;
    Slice payload;
    if (!wire::ParseBody(body, &request_id, &opcode, &payload)) {
      RelaxedAdd(stats_->malformed_frames, 1);
      // The frame checksummed fine, so framing is still intact: answer
      // with an error and keep the connection.
      std::string msg;
      wire::EncodeStatus(Status::InvalidArgument("unknown opcode"), &msg);
      std::string frame;
      wire::BuildFrame(request_id, wire::Opcode::kError, msg, &frame);
      consumed_total += consumed;
      QueueResponse(shard, c, std::move(frame));
      if (c->dead) break;
      FlushOutput(shard, c);
      if (c->dead) break;
      continue;
    }
    consumed_total += consumed;

    if (InlineCandidate(opcode, payload)) {
      if (c->inline_gate.ShouldTry()) {
        ReadOptions cache_only;
        cache_only.cache_only = true;
        std::string frame;
        const bool hit =
            Execute(request_id, opcode, payload, cache_only, &frame);
        c->inline_gate.Record(hit);
        if (hit) {
          RelaxedAdd(stats_->inline_reads, 1);
          QueueResponse(shard, c, std::move(frame));
          unflushed = true;
          continue;
        }
        RelaxedAdd(stats_->inline_fallbacks, 1);
      } else {
        RelaxedAdd(stats_->inline_skipped, 1);
      }
    }

    c->outstanding++;
    shard->outstanding_total++;
    std::string owned_payload = payload.ToString();
    auto task = [this, conn, request_id, opcode,
                 owned_payload = std::move(owned_payload)] {
      ExecuteRequest(conn, request_id, opcode, owned_payload);
    };
    if (!pool_->Schedule(task)) {
      // Pool is shutting down (server teardown racing a live shard):
      // execute inline — the completion lands in our own queue and the
      // drain loop below will process it.
      task();
    }
  }
  if (consumed_total > 0 && !c->dead) c->in_buf.erase(0, consumed_total);
  if (unflushed) FlushOutput(shard, c);
}

void Server::QueueResponse(Shard* shard, Connection* c, std::string frame) {
  if (c->dead) return;
  c->out_bytes += frame.size();
  c->out_frames.push_back(std::move(frame));
  RelaxedMax(stats_->output_buffer_hwm, c->out_bytes);
  if (c->out_bytes > options_.output_buffer_hard_limit) {
    // Reading was paused at the soft limit, but responses already
    // dispatched keep arriving; a peer that never drains past the hard
    // limit is disconnected instead of buffering without bound.
    RelaxedAdd(stats_->overflow_disconnects, 1);
    CloseConnection(shard, c);
  }
}

void Server::FlushOutput(Shard* shard, Connection* c) {
  if (c->dead) return;
  while (!c->out_frames.empty()) {
    iovec iov[kMaxIov];
    int cnt = 0;
    size_t off = c->out_front_off;
    for (auto it = c->out_frames.begin();
         it != c->out_frames.end() && cnt < kMaxIov; ++it) {
      iov[cnt].iov_base = const_cast<char*>(it->data() + off);
      iov[cnt].iov_len = it->size() - off;
      off = 0;
      cnt++;
    }
    // sendmsg == vectored writev, plus MSG_NOSIGNAL so a dead peer yields
    // EPIPE instead of killing the process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(cnt);
    ssize_t n = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_write) {
          c->want_write = true;
          UpdateInterest(shard, c);
        }
        return;
      }
      CloseConnection(shard, c);  // peer gone: buffered responses are moot
      return;
    }
    RelaxedAdd(stats_->writev_calls, 1);
    RelaxedAdd(stats_->bytes_sent, static_cast<uint64_t>(n));
    c->out_bytes -= static_cast<size_t>(n);
    size_t left = static_cast<size_t>(n);
    uint64_t retired = 0;
    while (left > 0) {
      std::string& front = c->out_frames.front();
      const size_t remain = front.size() - c->out_front_off;
      if (left >= remain) {
        left -= remain;
        c->out_front_off = 0;
        c->out_frames.pop_front();
        retired++;
      } else {
        c->out_front_off += left;
        left = 0;
      }
    }
    if (retired > 0) RelaxedAdd(stats_->responses_written, retired);
  }
  if (c->want_write) {
    c->want_write = false;
    UpdateInterest(shard, c);
  }
}

void Server::UpdateInterest(Shard* shard, Connection* c) {
  if (c->dead) return;
  uint32_t ev = 0;
  if (!c->read_closed && !c->paused) ev |= EPOLLIN;
  if (c->want_write) ev |= EPOLLOUT;
  if (ev == c->armed_events) return;
  epoll_event e{};
  e.events = ev;
  e.data.ptr = c;
  ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_MOD, c->fd, &e);
  c->armed_events = ev;
}

void Server::MaybeResume(Shard* shard,
                         const std::shared_ptr<Connection>& conn) {
  Connection* c = conn.get();
  if (c->dead || !c->paused) return;
  if (c->outstanding >= options_.max_pipeline) return;
  if (c->out_bytes > options_.output_buffer_soft_limit) return;
  c->paused = false;
  // Frames that were already buffered while paused decode now; the
  // level-triggered EPOLLIN re-arm below picks up anything still queued
  // in the kernel.
  ProcessInput(shard, conn);
  if (!c->dead) UpdateInterest(shard, c);
}

void Server::MaybeFinish(Shard* shard, Connection* c) {
  if (c->dead || !c->read_closed || c->paused) return;
  if (c->outstanding > 0 || !c->out_frames.empty()) return;
  CloseConnection(shard, c);
}

void Server::CloseConnection(Shard* shard, Connection* c) {
  if (c->dead) return;
  c->dead = true;
  ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  // shutdown first: pushes a FIN at the peer even when unread input would
  // otherwise make close() send RST.
  ::shutdown(c->fd, SHUT_RDWR);
  ::close(c->fd);
  auto it = shard->conns.find(c->fd);
  c->fd = -1;
  if (it != shard->conns.end()) {
    shard->graveyard.push_back(it->second);
    shard->conns.erase(it);
  }
  RelaxedAdd(stats_->connections_active, static_cast<uint64_t>(-1));
}

bool Server::Execute(uint64_t request_id, wire::Opcode opcode,
                     const Slice& payload, const ReadOptions& read_options,
                     std::string* frame) {
  std::string out;
  std::atomic<uint64_t>* op_counter = nullptr;
  bool complete = true;
  switch (opcode) {
    case wire::Opcode::kPing:
      op_counter = &stats_->pings;
      wire::EncodeStatus(Status::OK(), &out);
      break;
    case wire::Opcode::kPut:
      op_counter = &stats_->puts;
      DoPut(payload, &out);
      break;
    case wire::Opcode::kGet:
      op_counter = &stats_->gets;
      complete = DoGet(read_options, payload, &out);
      break;
    case wire::Opcode::kMultiGet:
      op_counter = &stats_->mgets;
      complete = DoMultiGet(read_options, payload, &out);
      break;
    case wire::Opcode::kDelete:
      op_counter = &stats_->deletes;
      DoDelete(payload, &out);
      break;
    case wire::Opcode::kWrite:
      op_counter = &stats_->writes;
      DoWrite(payload, &out);
      break;
    case wire::Opcode::kScan:
      op_counter = &stats_->scans;
      DoScan(payload, &out);
      break;
    case wire::Opcode::kInfo:
      op_counter = &stats_->infos;
      DoInfo(payload, &out);
      break;
    default:
      wire::EncodeStatus(Status::InvalidArgument("unexpected opcode"), &out);
      break;
  }
  if (!complete) return false;
  // Counted once, by whichever path answers.
  RelaxedAdd(stats_->requests, 1);
  if (op_counter != nullptr) RelaxedAdd(*op_counter, 1);
  wire::BuildFrame(request_id, opcode, out, frame);
  return true;
}

void Server::ExecuteRequest(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id, wire::Opcode opcode,
                            const std::string& payload) {
  std::string frame;
  Execute(request_id, opcode, payload, ReadOptions(), &frame);

  Shard* shard = conn->shard;
  bool wake = false;
  {
    std::lock_guard<std::mutex> l(shard->mu);
    shard->completions.emplace_back(conn, std::move(frame));
    if (!shard->wake_pending) {
      shard->wake_pending = true;
      wake = true;
    }
  }
  if (wake) shard->Wake();
}

void Server::DoPut(const Slice& payload, std::string* out) {
  Slice key, value;
  if (!wire::DecodePut(payload, &key, &value)) {
    wire::EncodeStatus(Status::InvalidArgument("malformed PUT payload"), out);
    return;
  }
  wire::EncodeStatus(db_->Put(WriteOptions(), key, value), out);
}

bool Server::DoGet(const ReadOptions& read_options, const Slice& payload,
                   std::string* out) {
  Slice key;
  if (!wire::DecodeKey(payload, &key)) {
    wire::EncodeStatus(Status::InvalidArgument("malformed GET payload"), out);
    return true;
  }
  std::string value;
  Status s = db_->Get(read_options, key, &value);
  if (s.IsIncomplete()) return false;
  wire::EncodeStatus(s, out);
  if (s.ok()) PutLengthPrefixedSlice(out, value);
  return true;
}

bool Server::DoMultiGet(const ReadOptions& read_options, const Slice& payload,
                        std::string* out) {
  std::vector<Slice> keys;
  if (!wire::DecodeMultiGet(payload, &keys)) {
    wire::EncodeStatus(Status::InvalidArgument("malformed MGET payload"), out);
    return true;
  }
  if (keys.size() > options_.max_mget_keys) {
    wire::EncodeStatus(
        Status::InvalidArgument("MGET key count exceeds limit"), out);
    return true;
  }

  // One snapshot for the whole batch: every key is read at the same
  // sequence, so a batch can never observe half of a concurrent write.
  ReadOptions batch_options = read_options;
  batch_options.snapshot = db_->GetSnapshot();

  // One native MultiGet for the whole batch: the DB acquires its read view
  // once and coalesces table I/O across the keys (docs/PROTOCOL.md).
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  db_->MultiGet(batch_options, keys.size(), keys.data(), values.data(),
                statuses.data());
  db_->ReleaseSnapshot(batch_options.snapshot);
  for (const Status& s : statuses) {
    if (s.IsIncomplete()) return false;  // the whole batch goes to the pool
  }
  RelaxedAdd(stats_->mget_keys, keys.size());

  std::vector<wire::MultiGetEntry> entries;
  entries.reserve(keys.size());
  size_t bytes = 0;
  Status overall = Status::OK();
  for (size_t i = 0; i < keys.size(); i++) {
    wire::MultiGetEntry e;
    e.code = wire::CodeOf(statuses[i]);
    if (statuses[i].ok()) e.value = std::move(values[i]);
    bytes += e.value.size();
    if (bytes > options_.max_scan_bytes) {
      overall = Status::InvalidArgument("MGET response exceeds size limit");
      break;
    }
    entries.push_back(std::move(e));
  }

  wire::EncodeStatus(overall, out);
  if (overall.ok()) wire::EncodeMultiGetResponse(entries, out);
  return true;
}

void Server::DoDelete(const Slice& payload, std::string* out) {
  Slice key;
  if (!wire::DecodeKey(payload, &key)) {
    wire::EncodeStatus(Status::InvalidArgument("malformed DELETE payload"),
                       out);
    return;
  }
  wire::EncodeStatus(db_->Delete(WriteOptions(), key), out);
}

void Server::DoWrite(const Slice& payload, std::string* out) {
  // Payload is the WriteBatch wire representation (write_batch.h).  Verify
  // the record stream before applying: a malformed batch must not reach the
  // WAL.
  if (payload.size() < 12) {
    wire::EncodeStatus(Status::InvalidArgument("short WRITE payload"), out);
    return;
  }
  WriteBatch batch;
  WriteBatchInternal::SetContents(&batch, payload);
  CountingHandler counter;
  Status s = batch.Iterate(&counter);
  if (s.ok() && counter.count != WriteBatchInternal::Count(&batch)) {
    s = Status::Corruption("WRITE batch count mismatch");
  }
  if (s.ok()) s = db_->Write(WriteOptions(), &batch);
  wire::EncodeStatus(s, out);
}

void Server::DoScan(const Slice& payload, std::string* out) {
  wire::ScanRequest req;
  if (!wire::DecodeScan(payload, &req)) {
    wire::EncodeStatus(Status::InvalidArgument("malformed SCAN payload"), out);
    return;
  }
  uint32_t limit = req.limit == 0 ? options_.default_scan_limit : req.limit;
  if (limit > options_.max_scan_limit) limit = options_.max_scan_limit;
  if (req.shard >= db_->NumShards()) {
    wire::EncodeStatus(
        Status::InvalidArgument("shard out of range: server has " +
                                std::to_string(db_->NumShards()) + " shards"),
        out);
    return;
  }

  wire::ScanResponse resp;
  size_t bytes = 0;
  // shard >= 0 scopes the scan to one shard so cluster-aware clients can
  // fan out and merge client-side; -1 scans the whole database (merged
  // server-side when the DB is a ShardedDB).
  std::unique_ptr<Iterator> iter(
      req.shard >= 0 ? db_->NewShardIterator(ReadOptions(), req.shard)
                     : db_->NewIterator(ReadOptions()));
  if (req.start_key.empty()) {
    iter->SeekToFirst();
  } else {
    iter->Seek(req.start_key);
  }
  for (; iter->Valid(); iter->Next()) {
    if (!req.end_key.empty() && iter->key().compare(req.end_key) >= 0) break;
    if (resp.entries.size() >= limit || bytes >= options_.max_scan_bytes) {
      resp.truncated = true;
      break;
    }
    resp.entries.emplace_back(iter->key().ToString(),
                              iter->value().ToString());
    bytes += iter->key().size() + iter->value().size();
  }
  Status s = iter->status();
  iter.reset();
  wire::EncodeStatus(s, out);
  if (s.ok()) wire::EncodeScanResponse(resp, out);
}

void Server::DoInfo(const Slice& payload, std::string* out) {
  Slice property;
  if (!wire::DecodeInfo(payload, &property)) {
    wire::EncodeStatus(Status::InvalidArgument("malformed INFO payload"), out);
    return;
  }
  if (property.empty()) {
    // Binary DbStats snapshot, with the serving-layer reactor counters
    // grafted on (tags 23-28) so remote consumers see both in one frame.
    wire::EncodeStatus(Status::OK(), out);
    DbStats db_stats = db_->GetStats();
    ServerStats s = stats();
    db_stats.server_loop_iterations = s.loop_iterations;
    db_stats.server_writev_calls = s.writev_calls;
    db_stats.server_responses_written = s.responses_written;
    db_stats.server_output_buffer_hwm = s.output_buffer_hwm;
    db_stats.server_backpressure_stalls = s.backpressure_stalls;
    db_stats.server_accept_errors = s.accept_errors;
    std::string encoded;
    wire::EncodeDbStats(db_stats, &encoded);
    PutLengthPrefixedSlice(out, encoded);
    return;
  }
  std::string value;
  if (property == Slice("server.stats")) {
    value = StatsString();
  } else if (!db_->GetProperty(property, &value)) {
    wire::EncodeStatus(
        Status::NotFound("unknown property", property.ToString()), out);
    return;
  }
  wire::EncodeStatus(Status::OK(), out);
  PutLengthPrefixedSlice(out, value);
}

}  // namespace iamdb
