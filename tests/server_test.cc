// End-to-end tests for the network serving layer: loopback round-trips for
// every opcode, pipelined multi-client stress, malformed/truncated frame
// handling, and graceful shutdown with in-flight requests.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "memtable/write_batch.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/sync_point.h"
#include "str_cat.h"

namespace iamdb {
namespace {

// Polls `cond` every 10ms for up to `timeout_ms`.
bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

// Number of live threads in this process (/proc/self/task entries).
int CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') n++;
  }
  ::closedir(dir);
  return n;
}

// Blocking loopback connect to a local port; optional SO_RCVBUF shrink so a
// deliberately slow reader backs the server's sends up quickly.
int RawConnectTo(int port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  return fd;
}

// A DB + server pair with caller-chosen ServerOptions, for tests that need
// non-default reactor tuning (tiny buffers, fixed shard counts, ...).
struct OwnedServer {
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<DB> db;
  std::unique_ptr<Server> server;

  OwnedServer() = default;
  OwnedServer(OwnedServer&&) = default;
  OwnedServer& operator=(OwnedServer&&) = default;

  ~OwnedServer() {
    if (server != nullptr) server->Stop();
  }
};

OwnedServer StartOwnedServer(ServerOptions server_options) {
  OwnedServer owned;
  owned.env = std::make_unique<MemEnv>();
  Options options;
  options.env = owned.env.get();
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  EXPECT_TRUE(DB::Open(options, "/srv", &owned.db).ok());
  server_options.port = 0;
  owned.server = std::make_unique<Server>(owned.db.get(), server_options);
  EXPECT_TRUE(owned.server->Start().ok());
  EXPECT_GT(owned.server->port(), 0);
  return owned;
}

class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    Options options;
    options.env = env_.get();
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    ASSERT_TRUE(DB::Open(options, "/srv", &db_).ok());

    ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.num_workers = 4;
    server_ = std::make_unique<Server>(db_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  ClientOptions MakeClientOptions() {
    ClientOptions options;
    options.port = server_->port();
    options.connect_retries = 1;
    return options;
  }

  // Raw loopback socket for protocol-level (mis)behaviour tests.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(0,
              ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
    return fd;
  }

  static bool RawSend(int fd, const std::string& bytes) {
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // Reads frames until `n` bodies have been collected or the peer closes.
  static std::vector<std::string> RawReadBodies(int fd, size_t n) {
    std::vector<std::string> bodies;
    std::string buffer;
    char chunk[16 << 10];
    while (bodies.size() < n) {
      Slice body;
      size_t consumed;
      wire::FrameResult r =
          wire::DecodeFrame(buffer.data(), buffer.size(), &body, &consumed);
      if (r == wire::FrameResult::kOk) {
        bodies.emplace_back(body.data(), body.size());
        buffer.erase(0, consumed);
        continue;
      }
      EXPECT_EQ(wire::FrameResult::kNeedMore, r);
      ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<size_t>(got));
    }
    return bodies;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingRoundTrip) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, PutGetDeleteRoundTrip) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Put("alpha", "1").ok());
  EXPECT_TRUE(client.Put("beta", "2").ok());

  std::string value;
  EXPECT_TRUE(client.Get("alpha", &value).ok());
  EXPECT_EQ("1", value);
  EXPECT_TRUE(client.Get("beta", &value).ok());
  EXPECT_EQ("2", value);
  EXPECT_TRUE(client.Get("gamma", &value).IsNotFound());

  EXPECT_TRUE(client.Delete("alpha").ok());
  EXPECT_TRUE(client.Get("alpha", &value).IsNotFound());

  // The write really reached the DB instance behind the server.
  EXPECT_TRUE(db_->Get(ReadOptions(), "beta", &value).ok());
  EXPECT_EQ("2", value);
}

TEST_F(ServerTest, EmptyAndBinaryValues) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Put("empty", "").ok());
  std::string binary("\x00\x01\xff\xfe\n\r", 6);
  EXPECT_TRUE(client.Put(Slice("bin\x00key", 7), binary).ok());

  std::string value;
  EXPECT_TRUE(client.Get("empty", &value).ok());
  EXPECT_EQ("", value);
  EXPECT_TRUE(client.Get(Slice("bin\x00key", 7), &value).ok());
  EXPECT_EQ(binary, value);
}

TEST_F(ServerTest, WriteBatchRoundTrip) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Put("kill-me", "x").ok());

  WriteBatch batch;
  batch.Put("batch-a", "A");
  batch.Put("batch-b", "B");
  batch.Delete("kill-me");
  EXPECT_TRUE(client.Write(batch).ok());

  std::string value;
  EXPECT_TRUE(client.Get("batch-a", &value).ok());
  EXPECT_EQ("A", value);
  EXPECT_TRUE(client.Get("batch-b", &value).ok());
  EXPECT_EQ("B", value);
  EXPECT_TRUE(client.Get("kill-me", &value).IsNotFound());
}

TEST_F(ServerTest, MalformedWriteBatchRejected) {
  Client client(MakeClientOptions());
  WriteBatch batch;
  batch.Put("a", "1");
  std::string rep = WriteBatchInternal::Contents(&batch).ToString();
  // Lie about the record count; the server must reject before applying.
  EncodeFixed32(&rep[8], 7);
  WriteBatch tampered;
  WriteBatchInternal::SetContents(&tampered, rep);
  Status s = client.Write(tampered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::string value;
  EXPECT_TRUE(client.Get("a", &value).IsNotFound());
}

TEST_F(ServerTest, ScanBoundedRange) {
  Client client(MakeClientOptions());
  for (int i = 0; i < 50; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_TRUE(client.Put(key, std::string("v") + key).ok());
  }

  std::vector<wire::KeyValue> entries;
  bool truncated = true;
  // Bounded [key010, key020): half-open, 10 entries.
  ASSERT_TRUE(
      client.Scan("key010", "key020", 0, &entries, &truncated).ok());
  ASSERT_EQ(10u, entries.size());
  EXPECT_FALSE(truncated);
  EXPECT_EQ("key010", entries.front().first);
  EXPECT_EQ("vkey010", entries.front().second);
  EXPECT_EQ("key019", entries.back().first);

  // Unbounded with a limit: truncated.
  ASSERT_TRUE(client.Scan("", "", 7, &entries, &truncated).ok());
  EXPECT_EQ(7u, entries.size());
  EXPECT_TRUE(truncated);
  EXPECT_EQ("key000", entries.front().first);

  // Start beyond the last key: empty.
  ASSERT_TRUE(client.Scan("zzz", "", 0, &entries, &truncated).ok());
  EXPECT_TRUE(entries.empty());
  EXPECT_FALSE(truncated);
}

TEST_F(ServerTest, InfoStatsAndProperties) {
  Client client(MakeClientOptions());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client.Put(test::StrCat("info", i),
                           std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  DbStats stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_GT(stats.user_bytes, 0u);
  EXPECT_GT(stats.space_used_bytes, 0u);
  EXPECT_FALSE(stats.level_bytes.empty());

  // The remote snapshot matches a local one on the stable counters.
  DbStats local = db_->GetStats();
  EXPECT_EQ(local.user_bytes, stats.user_bytes);
  EXPECT_EQ(local.space_used_bytes, stats.space_used_bytes);
  EXPECT_EQ(local.stall_micros, stats.stall_micros);

  // GetProperty passthrough.
  std::string value;
  ASSERT_TRUE(client.GetProperty("iamdb.stats", &value).ok());
  EXPECT_NE(std::string::npos, value.find("space="));

  // Server-side counters property.
  ASSERT_TRUE(client.GetProperty("server.stats", &value).ok());
  EXPECT_NE(std::string::npos, value.find("requests="));
  EXPECT_NE(std::string::npos, value.find("connections_accepted="));

  EXPECT_TRUE(client.GetProperty("no.such.property", &value).IsNotFound());
}

TEST_F(ServerTest, ManyClientsPipelinedStress) {
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 200;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, &failures] {
      Client client(MakeClientOptions());
      for (int i = 0; i < kOpsPerClient; i++) {
        std::string key =
            test::StrCat("c", c, "-", i);
        if (!client.Put(key, "v" + key).ok()) failures++;
      }
      for (int i = 0; i < kOpsPerClient; i++) {
        std::string key =
            test::StrCat("c", c, "-", i);
        std::string value;
        if (!client.Get(key, &value).ok() || value != "v" + key) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load());

  ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.requests,
            static_cast<uint64_t>(2 * kClients * kOpsPerClient));
}

// True wire-level pipelining: many requests written before any response is
// read; responses may arrive out of order and are correlated by id.
TEST_F(ServerTest, RawPipelinedRequests) {
  int fd = RawConnect();
  constexpr uint64_t kRequests = 64;
  std::string wire_out;
  for (uint64_t id = 1; id <= kRequests; id++) {
    std::string payload;
    wire::EncodePut(test::StrCat("pipe", id), test::StrCat("v", id),
                    &payload);
    wire::BuildFrame(id, wire::Opcode::kPut, payload, &wire_out);
  }
  ASSERT_TRUE(RawSend(fd, wire_out));

  std::vector<std::string> bodies = RawReadBodies(fd, kRequests);
  ASSERT_EQ(kRequests, bodies.size());
  std::map<uint64_t, Status> responses;
  for (const std::string& body : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice payload;
    ASSERT_TRUE(wire::ParseBody(body, &id, &op, &payload));
    EXPECT_EQ(wire::Opcode::kPut, op);
    Status s;
    ASSERT_TRUE(wire::DecodeStatus(&payload, &s));
    EXPECT_TRUE(s.ok()) << s.ToString();
    responses[id] = s;
  }
  EXPECT_EQ(kRequests, responses.size());  // every id answered exactly once
  ::close(fd);

  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "pipe1", &value).ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), "pipe64", &value).ok());
}

TEST_F(ServerTest, BadCrcFrameRejected) {
  int fd = RawConnect();
  std::string payload;
  wire::EncodePut("key", "value", &payload);
  std::string frame;
  wire::BuildFrame(1, wire::Opcode::kPut, payload, &frame);
  frame.back() ^= 0x5a;  // corrupt the last payload byte
  ASSERT_TRUE(RawSend(fd, frame));

  // The server answers with a kError frame (id 0) and closes.
  std::vector<std::string> bodies = RawReadBodies(fd, 1);
  ASSERT_EQ(1u, bodies.size());
  uint64_t id;
  wire::Opcode op;
  Slice p;
  ASSERT_TRUE(wire::ParseBody(bodies[0], &id, &op, &p));
  EXPECT_EQ(0u, id);
  EXPECT_EQ(wire::Opcode::kError, op);
  Status s;
  ASSERT_TRUE(wire::DecodeStatus(&p, &s));
  EXPECT_TRUE(s.IsCorruption());

  char byte;
  EXPECT_EQ(0, ::recv(fd, &byte, 1, 0));  // EOF: connection dropped
  ::close(fd);
  EXPECT_GE(server_->stats().malformed_frames, 1u);
}

TEST_F(ServerTest, OversizedFrameRejected) {
  int fd = RawConnect();
  std::string frame;
  PutFixed32(&frame, wire::kMaxFrameSize + 1);
  frame.append("garbage that will never be read");
  ASSERT_TRUE(RawSend(fd, frame));

  std::vector<std::string> bodies = RawReadBodies(fd, 1);
  ASSERT_EQ(1u, bodies.size());
  uint64_t id;
  wire::Opcode op;
  Slice p;
  ASSERT_TRUE(wire::ParseBody(bodies[0], &id, &op, &p));
  EXPECT_EQ(wire::Opcode::kError, op);
  char byte;
  EXPECT_EQ(0, ::recv(fd, &byte, 1, 0));
  ::close(fd);
}

TEST_F(ServerTest, UnknownOpcodeAnsweredWithoutDroppingConnection) {
  int fd = RawConnect();
  // A frame whose checksum is fine but whose opcode byte (42) is unknown.
  std::string body;
  PutFixed64(&body, 77);
  body.push_back(static_cast<char>(42));
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(4 + body.size()));
  PutFixed32(&frame, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  frame.append(body);
  // Follow with a valid PING to prove the stream survives.
  std::string payload;
  wire::BuildFrame(78, wire::Opcode::kPing, Slice(), &frame);
  ASSERT_TRUE(RawSend(fd, frame));

  std::vector<std::string> bodies = RawReadBodies(fd, 2);
  ASSERT_EQ(2u, bodies.size());
  std::map<uint64_t, wire::Opcode> by_id;
  for (const std::string& b : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice p;
    ASSERT_TRUE(wire::ParseBody(b, &id, &op, &p));
    by_id[id] = op;
  }
  EXPECT_EQ(wire::Opcode::kError, by_id[77]);
  EXPECT_EQ(wire::Opcode::kPing, by_id[78]);
  ::close(fd);
}

TEST_F(ServerTest, TruncatedFrameThenCloseIsHarmless) {
  int fd = RawConnect();
  std::string payload;
  wire::EncodePut("dangling", "value", &payload);
  std::string frame;
  wire::BuildFrame(9, wire::Opcode::kPut, payload, &frame);
  // Send only half the frame, then disconnect.
  ASSERT_TRUE(RawSend(fd, frame.substr(0, frame.size() / 2)));
  ::close(fd);

  // The server must survive and keep serving others.
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  std::string value;
  EXPECT_TRUE(client.Get("dangling", &value).IsNotFound());
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlightRequests) {
  int fd = RawConnect();
  // Pipeline a burst of PUTs, then immediately Stop() the server: every
  // accepted request must still be executed and answered before the
  // connection closes.
  constexpr uint64_t kRequests = 100;
  std::string wire_out;
  for (uint64_t id = 1; id <= kRequests; id++) {
    std::string payload;
    wire::EncodePut(test::StrCat("drain", id), std::string(256, 'd'),
                    &payload);
    wire::BuildFrame(id, wire::Opcode::kPut, payload, &wire_out);
  }
  ASSERT_TRUE(RawSend(fd, wire_out));

  std::thread stopper([this] { server_->Stop(); });

  std::vector<std::string> bodies = RawReadBodies(fd, kRequests);
  stopper.join();
  ::close(fd);

  // Every request the server read before the drain point got a response;
  // the tail may have been cut by the half-close.  All answered requests
  // must have succeeded, and every response is well-formed.
  std::map<uint64_t, bool> answered;
  for (const std::string& body : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice p;
    ASSERT_TRUE(wire::ParseBody(body, &id, &op, &p));
    EXPECT_EQ(wire::Opcode::kPut, op);
    Status s;
    ASSERT_TRUE(wire::DecodeStatus(&p, &s));
    EXPECT_TRUE(s.ok()) << s.ToString();
    answered[id] = true;
  }
  EXPECT_EQ(bodies.size(), answered.size());
  EXPECT_FALSE(server_->running());

  // Every answered PUT is durably in the DB.
  for (const auto& [id, ok] : answered) {
    std::string value;
    EXPECT_TRUE(
        db_->Get(ReadOptions(), test::StrCat("drain", id), &value).ok())
        << "answered request " << id << " missing from DB";
  }
}

TEST_F(ServerTest, StopIsIdempotentAndClientSeesClosure) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();
  server_->Stop();  // second call: no-op
  EXPECT_FALSE(server_->running());
  // The established connection was closed; a fresh call fails cleanly.
  Status s = client.Ping();
  EXPECT_FALSE(s.ok());
}

// The shutdown log prints StatsString() after Stop(): the shard count it
// reports is the configured one, not that of the torn-down reactors.
TEST(ServerLifecycleTest, StatsAfterStopReportConfiguredShards) {
  ServerOptions server_options;
  server_options.num_shards = 3;
  OwnedServer owned = StartOwnedServer(server_options);
  owned.server->Stop();
  EXPECT_EQ(3, owned.server->num_shards());
  const std::string stats = owned.server->StatsString();
  EXPECT_EQ(0u, stats.rfind("shards=3\n", 0)) << stats;
}

TEST_F(ServerTest, ServerStatsCountOpcodes) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Put("s", "1").ok());
  std::string value;
  ASSERT_TRUE(client.Get("s", &value).ok());
  ASSERT_TRUE(client.Delete("s").ok());

  ServerStats stats = server_->stats();
  EXPECT_GE(stats.pings, 1u);
  EXPECT_GE(stats.puts, 1u);
  EXPECT_GE(stats.gets, 1u);
  EXPECT_GE(stats.deletes, 1u);
  EXPECT_GE(stats.requests, 4u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST_F(ServerTest, MultiGetRoundTrip) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Put("mg-a", "A").ok());
  ASSERT_TRUE(client.Put("mg-b", "B").ok());
  ASSERT_TRUE(client.Put("mg-empty", "").ok());

  std::vector<std::string> values;
  std::vector<Status> statuses;
  Status s = client.MultiGet({"mg-a", "missing", "mg-b", "mg-empty"},
                             &values, &statuses);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(4u, values.size());
  ASSERT_EQ(4u, statuses.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ("A", values[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ("B", values[2]);
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ("", values[3]);

  // Degenerate empty batch round-trips.
  ASSERT_TRUE(client.MultiGet({}, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());

  // A batch past the per-request key cap is rejected, not served.
  std::vector<std::string> too_many(5000, "k");
  s = client.MultiGet(too_many, &values, &statuses);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  EXPECT_GE(server_->stats().mgets, 2u);
  EXPECT_GE(server_->stats().mget_keys, 4u);
}

TEST_F(ServerTest, MalformedMultiGetAnsweredWithoutDroppingConnection) {
  int fd = RawConnect();
  // Claims three keys, carries none: DecodeMultiGet must fail and the
  // server must answer InvalidArgument on this request only.
  std::string frame;
  wire::BuildFrame(91, wire::Opcode::kMultiGet, Slice("\x03", 1), &frame);
  wire::BuildFrame(92, wire::Opcode::kPing, Slice(), &frame);
  ASSERT_TRUE(RawSend(fd, frame));

  std::vector<std::string> bodies = RawReadBodies(fd, 2);
  ASSERT_EQ(2u, bodies.size());
  std::map<uint64_t, Status> by_id;
  for (const std::string& b : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice p;
    ASSERT_TRUE(wire::ParseBody(b, &id, &op, &p));
    Status s;
    ASSERT_TRUE(wire::DecodeStatus(&p, &s));
    by_id[id] = s;
  }
  EXPECT_TRUE(by_id[91].IsInvalidArgument()) << by_id[91].ToString();
  EXPECT_TRUE(by_id[92].ok());
  ::close(fd);
}

TEST_F(ServerTest, PipelinedClientWaitsOutOfOrder) {
  Client client(MakeClientOptions());
  constexpr int kN = 16;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(
        client.Put(test::StrCat("pl", i), test::StrCat("v", i)).ok());
  }

  std::vector<uint64_t> ids;
  for (int i = 0; i < kN; i++) {
    uint64_t id = client.SubmitGet(test::StrCat("pl", i));
    ASSERT_NE(0u, id);
    ids.push_back(id);
  }
  uint64_t miss_id = client.SubmitGet("pl-missing");
  ASSERT_NE(0u, miss_id);
  uint64_t mget_id = client.SubmitMultiGet({"pl0", "pl-missing", "pl5"});
  ASSERT_NE(0u, mget_id);

  // Claim responses in reverse submission order; early arrivals buffer.
  for (int i = kN - 1; i >= 0; i--) {
    std::string value;
    Status s = client.WaitGet(ids[i], &value);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(test::StrCat("v", i), value);
  }
  std::string value;
  EXPECT_TRUE(client.WaitGet(miss_id, &value).IsNotFound());

  std::vector<wire::MultiGetEntry> entries;
  ASSERT_TRUE(client.WaitMultiGet(mget_id, &entries).ok());
  ASSERT_EQ(3u, entries.size());
  EXPECT_EQ(wire::StatusCode::kOk, entries[0].code);
  EXPECT_EQ("v0", entries[0].value);
  EXPECT_EQ(wire::StatusCode::kNotFound, entries[1].code);
  EXPECT_EQ(wire::StatusCode::kOk, entries[2].code);
  EXPECT_EQ("v5", entries[2].value);

  // Each id is claimable exactly once.
  EXPECT_TRUE(client.Wait(ids[0]).IsIOError());
  // The connection still serves blocking calls afterwards.
  EXPECT_TRUE(client.Ping().ok());
}

// The reactor thread model is O(shards + workers): parking 64 idle
// connections on the server must not create a single extra thread.
TEST_F(ServerTest, ThreadCountIndependentOfConnectionCount) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());  // serving path fully warmed up

  const int before = CountProcessThreads();
  ASSERT_GT(before, 0);

  std::vector<int> fds;
  for (int i = 0; i < 64; i++) fds.push_back(RawConnect());
  ASSERT_TRUE(WaitFor([this] {
    return server_->stats().connections_active >= 65;  // 64 + the client
  })) << "server never registered all 64 connections";

  EXPECT_EQ(before, CountProcessThreads())
      << "thread count must not scale with connections";

  for (int fd : fds) ::close(fd);
}

TEST_F(ServerTest, ShutdownWithInFlightDbWork) {
  constexpr int kClients = 4;
  constexpr int kOps = 50;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<std::pair<uint64_t, std::string>>> submitted(
      kClients);
  const std::string value(1024, 's');
  for (int c = 0; c < kClients; c++) {
    clients.push_back(std::make_unique<Client>(MakeClientOptions()));
    ASSERT_TRUE(clients[c]->Connect().ok());
    for (int i = 0; i < kOps; i++) {
      std::string key = test::StrCat("sd", c, "-", i);
      uint64_t id = clients[c]->SubmitPut(key, value);
      if (id != 0) submitted[c].emplace_back(id, key);
    }
  }

  // Stop() races the in-flight pipelines: every request the server
  // accepted must either be answered (and durably applied) or cleanly cut
  // by the half-close — never crash, hang, or corrupt.
  std::thread stopper([this] { server_->Stop(); });
  std::vector<std::string> acked;
  for (int c = 0; c < kClients; c++) {
    for (const auto& [id, key] : submitted[c]) {
      if (clients[c]->Wait(id).ok()) acked.push_back(key);
    }
  }
  stopper.join();
  EXPECT_FALSE(server_->running());

  for (const std::string& key : acked) {
    std::string got;
    EXPECT_TRUE(db_->Get(ReadOptions(), key, &got).ok())
        << "acknowledged put " << key << " missing from DB";
  }
}

TEST_F(ServerTest, StopBlocksConcurrentSecondCaller) {
  // Enough pipelined work that teardown is not instantaneous.
  int fd = RawConnect();
  std::string wire_out, payload;
  wire::EncodePut("cc", std::string(4096, 'c'), &payload);
  for (uint64_t id = 1; id <= 50; id++) {
    wire::BuildFrame(id, wire::Opcode::kPut, payload, &wire_out);
  }
  ASSERT_TRUE(RawSend(fd, wire_out));

  // Both concurrent callers must observe a fully-stopped server the
  // moment their Stop() returns.
  std::atomic<int> observed_stopped{0};
  auto stop_and_check = [&] {
    server_->Stop();
    if (!server_->running()) observed_stopped++;
  };
  std::thread t1(stop_and_check);
  std::thread t2(stop_and_check);
  RawReadBodies(fd, 50);  // drain so the flush-then-close can complete
  t1.join();
  t2.join();
  ::close(fd);
  EXPECT_EQ(2, observed_stopped.load());
}

TEST(ServerLifecycleTest, StopBeforeStartDoesNotBreakLifecycle) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());

  ServerOptions server_options;
  server_options.port = 0;
  Server server(db.get(), server_options);
  server.Stop();  // Stop before Start: must not latch the stopping state
  server.Stop();
  ASSERT_TRUE(server.Start().ok()) << "Stop() before Start() broke Start()";

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.connect_retries = 1;
  Client client(client_options);
  EXPECT_TRUE(client.Ping().ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  // One lifecycle per instance: a second Start() is refused, not UB.
  EXPECT_FALSE(server.Start().ok());
}

// A peer that stops reading while pipelining requests must pause the
// server's reads at the soft output limit (counted as a stall) — and the
// stream must fully recover once the peer drains.
TEST(ServerBackpressureTest, SlowReaderPausesReadsAndRecovers) {
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_shards = 1;
  server_options.output_buffer_soft_limit = 32 << 10;
  server_options.sndbuf_bytes = 8 << 10;
  OwnedServer owned = StartOwnedServer(server_options);
  const std::string big(8192, 'b');
  ASSERT_TRUE(owned.db->Put(WriteOptions(), "big", big).ok());

  int fd = RawConnectTo(owned.server->port(), /*rcvbuf_bytes=*/4096);
  std::string get_payload;
  wire::EncodeKey("big", &get_payload);

  // Wave 1: pipeline 32 GETs and read nothing.  ~256KB of responses queue
  // against an ~12KB transport pipe, so the buffer blows past the soft
  // limit and sticks there.
  std::string wave;
  for (uint64_t id = 1; id <= 32; id++) {
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &wave);
  }
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));
  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().output_buffer_hwm >
           server_options.output_buffer_soft_limit;
  })) << "responses never backed up past the soft limit";

  // Wave 2: more requests while the buffer is over the limit — decoding
  // them must stall instead of ballooning the buffer further.
  wave.clear();
  for (uint64_t id = 33; id <= 64; id++) {
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &wave);
  }
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));
  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().backpressure_stalls >= 1;
  })) << "paused read was never counted as a backpressure stall";

  // Drain: every one of the 64 responses arrives intact and in full.
  std::string buffer;
  char chunk[16 << 10];
  std::map<uint64_t, size_t> value_sizes;
  while (value_sizes.size() < 64) {
    Slice body;
    size_t consumed;
    wire::FrameResult r =
        wire::DecodeFrame(buffer.data(), buffer.size(), &body, &consumed);
    if (r == wire::FrameResult::kOk) {
      uint64_t id;
      wire::Opcode op;
      Slice p;
      ASSERT_TRUE(wire::ParseBody(body, &id, &op, &p));
      ASSERT_EQ(wire::Opcode::kGet, op);
      Status s;
      ASSERT_TRUE(wire::DecodeStatus(&p, &s));
      ASSERT_TRUE(s.ok()) << s.ToString();
      Slice value;
      ASSERT_TRUE(GetLengthPrefixedSlice(&p, &value));
      value_sizes[id] = value.size();
      buffer.erase(0, consumed);
      continue;
    }
    ASSERT_EQ(wire::FrameResult::kNeedMore, r);
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "connection died before all responses arrived";
    buffer.append(chunk, static_cast<size_t>(got));
  }
  for (const auto& [id, size] : value_sizes) {
    EXPECT_EQ(big.size(), size) << "response " << id;
  }
  ::close(fd);
}

// A peer that never drains past the hard output cap is disconnected
// instead of buffering the server into the ground.  The overflow comes from
// requests already dispatched to the pool completing while reading is
// paused, so the wave is SCANs (always pool-executed); it ends with a GET
// the reactor answers inline, so an inline response shares the queue.
// (An all-GET wave no longer overflows: inline answers are queued before
// the next frame is decoded, so the soft limit pauses it in time.)
TEST(ServerBackpressureTest, OverflowPastHardLimitDisconnects) {
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_shards = 1;
  server_options.output_buffer_soft_limit = 4 << 10;
  server_options.output_buffer_hard_limit = 64 << 10;
  server_options.sndbuf_bytes = 8 << 10;
  OwnedServer owned = StartOwnedServer(server_options);
  ASSERT_TRUE(
      owned.db->Put(WriteOptions(), "big", std::string(16 << 10, 'B')).ok());

  int fd = RawConnectTo(owned.server->port(), /*rcvbuf_bytes=*/4096);
  std::string scan_payload, get_payload, wave;
  wire::ScanRequest scan;
  scan.start_key = "big";
  scan.limit = 1;
  wire::EncodeScan(scan, &scan_payload);
  wire::EncodeKey("big", &get_payload);
  for (uint64_t id = 1; id < 64; id++) {
    wire::BuildFrame(id, wire::Opcode::kScan, scan_payload, &wave);
  }
  wire::BuildFrame(64, wire::Opcode::kGet, get_payload, &wave);
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));

  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().overflow_disconnects >= 1;
  })) << "hard-limit overflow never disconnected the slow reader";

  // The socket ends in EOF or reset — never a hang.
  char chunk[16 << 10];
  while (true) {
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
  }
  ::close(fd);
  EXPECT_EQ(0u, owned.server->stats().connections_active);
}

// --- inline (reactor) reads ------------------------------------------------

std::string InlineKey(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "ik%06d", i);
  return buf;
}

std::string InlineValue(int i) {
  return test::StrCat("v", i) + std::string(100, 'x');
}

// Loads keys [0, n) and pushes them all to disk, so nothing is answered
// from the memtable.
void LoadToDisk(DB* db, int n) {
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), InlineKey(i), InlineValue(i)).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions options;
  options.port = server.port();
  options.connect_retries = 1;
  return options;
}

std::vector<std::string> InlineKeys(int first, int count, int stride,
                                    int key_space) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; i++) {
    keys.push_back(InlineKey((first + i * stride) % key_space));
  }
  return keys;
}

void ExpectMultiGetValues(Client* client,
                          const std::vector<std::string>& keys) {
  std::vector<std::string> values;
  std::vector<Status> statuses;
  Status s = client->MultiGet(keys, &values, &statuses);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(keys.size(), statuses.size());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i] << ": " << statuses[i].ToString();
    EXPECT_EQ(InlineValue(atoi(keys[i].c_str() + 2)), values[i]) << keys[i];
  }
}

// Warm DB: every table open, every block cached.  GETs and small MGETs are
// answered on the reactor; counters count each request exactly once; an
// MGET above the inline key cap goes straight to the pool.
TEST(ServerInlineReadTest, WarmDbServesReadsInline) {
  ServerOptions server_options;
  server_options.num_shards = 1;
  OwnedServer owned = StartOwnedServer(server_options);
  const int kKeys = 2000;
  LoadToDisk(owned.db.get(), kKeys);
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(owned.db->Get(ReadOptions(), InlineKey(i), &value).ok());
  }

  Client client(ClientFor(*owned.server));
  const ServerStats before = owned.server->stats();
  for (int i = 0; i < 300; i++) {
    const int k = i * 7 % kKeys;
    std::string value;
    Status s = client.Get(InlineKey(k), &value);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(InlineValue(k), value);
  }
  std::string value;
  EXPECT_TRUE(client.Get("ik-absent", &value).IsNotFound());
  for (int b = 0; b < 10; b++) {
    ExpectMultiGetValues(&client, InlineKeys(b * 100, 16, 3, kKeys));
  }
  const ServerStats warm = owned.server->stats();
  const uint64_t reads = 301 + 10;
  EXPECT_EQ(301u, warm.gets - before.gets);
  EXPECT_EQ(10u, warm.mgets - before.mgets);
  EXPECT_EQ(160u, warm.mget_keys - before.mget_keys);
  EXPECT_EQ(reads, warm.requests - before.requests);
  EXPECT_EQ(reads, (warm.inline_reads - before.inline_reads) +
                       (warm.inline_fallbacks - before.inline_fallbacks) +
                       (warm.inline_skipped - before.inline_skipped));
  EXPECT_GE(warm.inline_reads - before.inline_reads, reads * 9 / 10)
      << owned.server->StatsString();

  // 65 keys: over the cap, so neither tried inline nor gated.
  ExpectMultiGetValues(&client, InlineKeys(0, 65, 11, kKeys));
  const ServerStats big = owned.server->stats();
  EXPECT_EQ(1u, big.mgets - warm.mgets);
  EXPECT_EQ(65u, big.mget_keys - warm.mget_keys);
  EXPECT_EQ(warm.inline_reads, big.inline_reads);
  EXPECT_EQ(warm.inline_fallbacks, big.inline_fallbacks);
  EXPECT_EQ(warm.inline_skipped, big.inline_skipped);

  // 64 keys: at the cap, answered inline.
  ExpectMultiGetValues(&client, InlineKeys(0, 64, 11, kKeys));
  EXPECT_EQ(big.inline_reads + 1, owned.server->stats().inline_reads);

  // The counters reach the INFO text.
  std::string text;
  ASSERT_TRUE(client.GetProperty("server.stats", &text).ok());
  EXPECT_NE(std::string::npos, text.find("inline_reads=")) << text;
  EXPECT_NE(std::string::npos, text.find("inline_skipped=")) << text;
}

// Cold DB: a small cache over data eight times its size, freshly reopened
// so no table is open.  Every read is answered correctly through the pool
// fallback (never with the internal Incomplete status), and the gate soon
// stops trying the reactor for this connection.
TEST(ServerInlineReadTest, ColdDbFallsBackAndMostlySkipsInline) {
  auto env = std::make_unique<MemEnv>();
  Options options;
  options.env = env.get();
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.block_cache_capacity = 256 << 10;
  const int kKeys = 20000;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());
    LoadToDisk(db.get(), kKeys);
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());
  ServerOptions server_options;
  server_options.num_shards = 1;
  Server server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  Client client(ClientFor(server));
  for (int i = 0; i < 300; i++) {
    const int k = i * 7919 % kKeys;
    std::string value;
    Status s = client.Get(InlineKey(k), &value);
    ASSERT_TRUE(s.ok()) << InlineKey(k) << ": " << s.ToString();
    EXPECT_EQ(InlineValue(k), value);
  }
  std::string value;
  Status s = client.Get("ik-absent", &value);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  for (int b = 0; b < 20; b++) {
    ExpectMultiGetValues(&client, InlineKeys(b * 997, 16, 1201, kKeys));
  }

  const ServerStats stats = server.stats();
  const uint64_t reads = 301 + 20;
  EXPECT_EQ(301u, stats.gets);
  EXPECT_EQ(20u, stats.mgets);
  EXPECT_EQ(320u, stats.mget_keys);
  EXPECT_EQ(reads,
            stats.inline_reads + stats.inline_fallbacks + stats.inline_skipped);
  EXPECT_GT(stats.inline_fallbacks, 0u);
  EXPECT_GT(stats.inline_skipped, reads / 2) << server.StatsString();
  server.Stop();
}

// A version installed while a read is in flight (IAMDB_SYNC_POINT after
// the engine probe) changes nothing about its answer: the read makes one
// pass at its read point, so a cache-only Get or MultiGet is answered, not
// Incomplete, and the server answers GET and MGET inline, with no pool
// fallback.
TEST(ServerInlineReadTest, VersionInstallMidReadStaysInline) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (-DIAMDB_SYNC_POINTS=ON)";
#else
  ServerOptions server_options;
  server_options.num_shards = 1;
  OwnedServer owned = StartOwnedServer(server_options);
  DB* db = owned.db.get();
  LoadToDisk(db, 500);

  // Installs one new version (a flush) the first time a read passes the
  // point after `armed` is set.
  std::atomic<bool> armed{false};
  std::atomic<int> installs{0};
  auto install_once = [&](void*) {
    if (!armed.exchange(false)) return;
    const std::string filler = test::StrCat("zz-filler", installs.load());
    ASSERT_TRUE(db->Put(WriteOptions(), filler, "x").ok());
    ASSERT_TRUE(db->FlushAll().ok());
    installs++;
  };
  SyncPoint* sp = SyncPoint::Instance();
  // One point on the shared point-read path covers GET and MGET alike.
  sp->SetCallback("DBImpl::Lookup:AfterEngineProbe", install_once);
  sp->EnableProcessing();

  ReadOptions cache_only;
  cache_only.cache_only = true;
  std::string value;
  // A full read opens the tables the key's lookup needs; the filter then
  // rules the key out with no block read, so cache-only can answer it.
  auto warm = [&] {
    ASSERT_TRUE(db->Get(ReadOptions(), "ik-absent", &value).IsNotFound());
    ASSERT_TRUE(db->Get(ReadOptions(), InlineKey(7), &value).ok());
  };
  warm();
  armed = true;
  Status s = db->Get(cache_only, "ik-absent", &value);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_EQ(1, installs.load());

  warm();
  armed = true;
  std::vector<Slice> keys = {Slice("ik-absent")};
  const std::string found_key = InlineKey(7);
  keys.emplace_back(found_key);
  std::vector<std::string> values(2);
  std::vector<Status> statuses(2);
  db->MultiGet(cache_only, 2, keys.data(), values.data(), statuses.data());
  EXPECT_TRUE(statuses[0].IsNotFound()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(InlineValue(7), values[1]);
  EXPECT_EQ(2, installs.load());

  // Through the server: the reactor's attempt answers.
  warm();
  Client client(ClientFor(*owned.server));
  const ServerStats before = owned.server->stats();
  armed = true;
  s = client.Get("ik-absent", &value);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_EQ(3, installs.load());
  const ServerStats after = owned.server->stats();
  EXPECT_EQ(before.inline_reads + 1, after.inline_reads);
  EXPECT_EQ(before.inline_fallbacks, after.inline_fallbacks);
  EXPECT_EQ(before.gets + 1, after.gets);

  warm();
  const ServerStats before_mget = owned.server->stats();
  armed = true;
  std::vector<std::string> mget_values;
  std::vector<Status> mget_statuses;
  s = client.MultiGet({"ik-absent", found_key}, &mget_values, &mget_statuses);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(2u, mget_statuses.size());
  EXPECT_TRUE(mget_statuses[0].IsNotFound()) << mget_statuses[0].ToString();
  EXPECT_TRUE(mget_statuses[1].ok()) << mget_statuses[1].ToString();
  EXPECT_EQ(InlineValue(7), mget_values[1]);
  EXPECT_EQ(4, installs.load());
  const ServerStats after_mget = owned.server->stats();
  EXPECT_EQ(before_mget.inline_reads + 1, after_mget.inline_reads);
  EXPECT_EQ(before_mget.inline_fallbacks, after_mget.inline_fallbacks);
  EXPECT_EQ(before_mget.mgets + 1, after_mget.mgets);

  sp->Reset();
#endif
}

// Wire-protocol unit coverage that needs no socket.
// Incomplete has no wire code; should one ever be encoded it reads as an
// explicit internal error, not as a device failure.
TEST(WireProtocolTest, IncompleteEncodesAsInternalError) {
  std::string encoded;
  wire::EncodeStatus(Status::Incomplete("block not cached"), &encoded);
  Slice in(encoded);
  Status s;
  ASSERT_TRUE(wire::DecodeStatus(&in, &s));
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(0u, s.message().rfind("internal error: Incomplete", 0))
      << s.message();
}

TEST(WireProtocolTest, MultiGetPayloadRoundTripAndRejects) {
  std::vector<std::string> keys = {"a", "", std::string("b\0c", 3)};
  std::string payload;
  wire::EncodeMultiGet(keys, &payload);
  std::vector<Slice> decoded_keys;
  ASSERT_TRUE(wire::DecodeMultiGet(payload, &decoded_keys));
  ASSERT_EQ(keys.size(), decoded_keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(keys[i], decoded_keys[i].ToString());
  }

  // Count that exceeds the remaining bytes / truncated keys / trailing
  // garbage are all rejected.
  EXPECT_FALSE(wire::DecodeMultiGet(Slice("\x03", 1), &decoded_keys));
  EXPECT_FALSE(wire::DecodeMultiGet(Slice("\x01\x05xy", 4), &decoded_keys));
  std::string trailing = payload + "junk";
  EXPECT_FALSE(wire::DecodeMultiGet(trailing, &decoded_keys));

  std::vector<wire::MultiGetEntry> entries(3);
  entries[0].code = wire::StatusCode::kOk;
  entries[0].value = "value-a";
  entries[1].code = wire::StatusCode::kNotFound;
  entries[2].code = wire::StatusCode::kOk;
  entries[2].value = "";
  std::string resp;
  wire::EncodeMultiGetResponse(entries, &resp);
  std::vector<wire::MultiGetEntry> decoded;
  ASSERT_TRUE(wire::DecodeMultiGetResponse(resp, &decoded));
  ASSERT_EQ(3u, decoded.size());
  EXPECT_EQ(wire::StatusCode::kOk, decoded[0].code);
  EXPECT_EQ("value-a", decoded[0].value);
  EXPECT_EQ(wire::StatusCode::kNotFound, decoded[1].code);
  EXPECT_TRUE(decoded[1].value.empty());
  EXPECT_EQ(wire::StatusCode::kOk, decoded[2].code);
  EXPECT_TRUE(decoded[2].value.empty());
}

TEST(WireProtocolTest, DecodeFrameEdgeCases) {
  std::string frame;
  wire::BuildFrame(5, wire::Opcode::kPing, Slice(), &frame);

  // Every strict prefix is kNeedMore.
  for (size_t n = 0; n < frame.size(); n++) {
    Slice body;
    size_t consumed;
    EXPECT_EQ(wire::FrameResult::kNeedMore,
              wire::DecodeFrame(frame.data(), n, &body, &consumed))
        << "prefix " << n;
  }

  Slice body;
  size_t consumed;
  ASSERT_EQ(wire::FrameResult::kOk,
            wire::DecodeFrame(frame.data(), frame.size(), &body, &consumed));
  EXPECT_EQ(frame.size(), consumed);

  // Flipping any body byte breaks the checksum.
  std::string bad = frame;
  bad[wire::kFrameHeaderSize] ^= 0x01;
  EXPECT_EQ(wire::FrameResult::kBadCrc,
            wire::DecodeFrame(bad.data(), bad.size(), &body, &consumed));

  // A too-small length prefix is rejected outright.
  std::string tiny;
  PutFixed32(&tiny, 3);
  tiny.append(16, '\0');
  EXPECT_EQ(wire::FrameResult::kTooLarge,
            wire::DecodeFrame(tiny.data(), tiny.size(), &body, &consumed));
}

// ---------------------------------------------------------------------------
// Server over FaultInjectionEnv: a WAL sync failure must surface to the
// client as a decoded ERROR status on that request — not a dropped
// connection — and the session must keep working once the fault clears.

TEST(ServerFaultTest, WalSyncFailureSurfacesAsErrorFrame) {
  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  Options options;
  options.env = &fault;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.sync_wal = true;  // every Put syncs, so a sync fault hits it
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());

  ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  Server server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.connect_retries = 1;
  Client client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Put("before", "ok").ok());

  // Exactly one injected sync failure: the in-flight Put must come back
  // as a non-OK decoded status carrying the injection message.
  fault.SetErrorSchedule(kFaultSync, /*seed=*/7, /*one_in=*/1,
                         /*max_failures=*/1);
  Status s = client.Put("during", "fails");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos) << s.ToString();
  fault.ClearErrorSchedule();

  // Same connection, not a reconnect: the session stayed up.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Put("after", "ok").ok());
  std::string got;
  EXPECT_TRUE(client.Get("after", &got).ok());
  EXPECT_EQ("ok", got);
  EXPECT_TRUE(client.Get("during", &got).IsNotFound());

  server.Stop();
}

// A connection that dies with requests pipelined must fail every pending
// Wait* promptly and distinctly — not hang on a dead socket, and not claim
// the ids were never submitted.  The "server" here is a raw socket the
// test controls exactly: it answers the first request, then resets.
TEST(ClientPipelineFailureTest, BrokenConnectionFailsOutstandingWaits) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  // A PING frame is header (8) + id (8) + opcode (1) = 17 bytes; the fake
  // server waits for all three submits before acting so the test is not
  // racing the client's sends.
  constexpr size_t kThreePings = 3 * 17;
  std::thread fake_server([listen_fd] {
    int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    size_t got = 0;
    char buf[256];
    while (got < kThreePings) {
      ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    // Answer the first request (id 1) only, then drop the connection.
    std::string status_payload, frame;
    wire::EncodeStatus(Status::OK(), &status_payload);
    wire::BuildFrame(1, wire::Opcode::kPing, status_payload, &frame);
    ::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(conn);
  });

  ClientOptions options;
  options.port = ntohs(addr.sin_port);
  options.connect_retries = 0;
  options.op_timeout_ms = 5000;  // a hang fails the test via this timeout
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());

  const uint64_t id1 = client.SubmitPing();
  const uint64_t id2 = client.SubmitPing();
  const uint64_t id3 = client.SubmitPing();
  ASSERT_EQ(id1, 1u);
  ASSERT_NE(id2, 0u);
  ASSERT_NE(id3, 0u);

  // Waiting on id2 first: the client buffers id1's response, then hits the
  // peer close and reports the transport error against id2 itself.
  Status s2 = client.Wait(id2);
  EXPECT_TRUE(s2.IsIOError()) << s2.ToString();
  EXPECT_FALSE(client.connected());

  // id1's response arrived before the reset and stays claimable.
  EXPECT_TRUE(client.Wait(id1).ok());

  // id3 was in flight when the connection died: the distinct
  // connection-lost error, exactly once.
  Status s3 = client.Wait(id3);
  EXPECT_TRUE(s3.IsIOError()) << s3.ToString();
  EXPECT_NE(s3.ToString().find("connection lost with request in flight"),
            std::string::npos)
      << s3.ToString();
  Status again = client.Wait(id3);
  EXPECT_NE(again.ToString().find("not in flight"), std::string::npos)
      << again.ToString();

  fake_server.join();
  ::close(listen_fd);
}

// Same failure, driven through a real server killed mid-pipeline: pending
// waits must all resolve with IOErrors, and a fresh connect afterwards
// must find the durable data intact.
TEST(ClientPipelineFailureTest, ServerStopMidPipeline) {
  auto owned = StartOwnedServer(ServerOptions());
  ClientOptions options;
  options.port = owned.server->port();
  options.connect_retries = 0;
  options.op_timeout_ms = 5000;
  Client client(options);
  ASSERT_TRUE(client.Put("durable", "yes").ok());

  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; i++) {
    uint64_t id = client.SubmitGet("durable");
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  owned.server->Stop();

  // Every wait resolves (OK for responses that raced out before the stop,
  // IOError otherwise) — none may hang past the op timeout or crash.
  int io_errors = 0;
  for (uint64_t id : ids) {
    std::string value;
    Status s = client.WaitGet(id, &value);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIOError()) << s.ToString();
      io_errors++;
    } else {
      EXPECT_EQ(value, "yes");
    }
  }
  // The server drains gracefully, so responses may all have made it out;
  // what matters is that nothing hung and errors (if any) were IOErrors.
  SUCCEED() << io_errors << " of " << ids.size() << " waits failed";
}

}  // namespace
}  // namespace iamdb
