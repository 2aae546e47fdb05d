#include "server/wire_protocol.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace iamdb::wire {

namespace {

bool KnownOpcode(uint8_t b) {
  switch (static_cast<Opcode>(b)) {
    case Opcode::kPing:
    case Opcode::kPut:
    case Opcode::kGet:
    case Opcode::kDelete:
    case Opcode::kWrite:
    case Opcode::kScan:
    case Opcode::kInfo:
    case Opcode::kMultiGet:
    case Opcode::kError:
      return true;
  }
  return false;
}

}  // namespace

StatusCode CodeOf(const Status& s) {
  if (s.ok()) return StatusCode::kOk;
  if (s.IsNotFound()) return StatusCode::kNotFound;
  if (s.IsCorruption()) return StatusCode::kCorruption;
  if (s.IsNotSupported()) return StatusCode::kNotSupported;
  if (s.IsInvalidArgument()) return StatusCode::kInvalidArgument;
  if (s.IsBusy()) return StatusCode::kBusy;
  if (s.IsIOError()) return StatusCode::kIOError;
  // Only Incomplete is left.  It has no wire code: the server answers a
  // cache-only miss with a full read, so reaching here is a server bug.  It
  // travels as an IOError that EncodeStatus labels "internal error".
  return StatusCode::kIOError;
}

Status MakeStatus(StatusCode code, const Slice& msg) {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kNotFound: return Status::NotFound(msg);
    case StatusCode::kCorruption: return Status::Corruption(msg);
    case StatusCode::kNotSupported: return Status::NotSupported(msg);
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(msg);
    case StatusCode::kIOError: return Status::IOError(msg);
    case StatusCode::kBusy: return Status::Busy(msg);
  }
  return Status::Corruption("unknown wire status code");
}

// --- frame assembly -------------------------------------------------------

void BuildFrame(uint64_t request_id, Opcode opcode, const Slice& payload,
                std::string* dst) {
  std::string body;
  body.reserve(kMinBodySize + payload.size());
  PutFixed64(&body, request_id);
  body.push_back(static_cast<char>(opcode));
  body.append(payload.data(), payload.size());

  PutFixed32(dst, static_cast<uint32_t>(4 + body.size()));
  PutFixed32(dst, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  dst->append(body);
}

FrameResult DecodeFrame(const char* buf, size_t size, Slice* body,
                        size_t* consumed) {
  if (size < kFrameHeaderSize) return FrameResult::kNeedMore;
  const uint32_t len = DecodeFixed32(buf);
  if (len > kMaxFrameSize || len < 4 + kMinBodySize) {
    // A nonsense length also lands here: there is no way to resync, treat
    // as oversized/underflow and let the caller drop the connection.
    return FrameResult::kTooLarge;
  }
  if (size < 4 + static_cast<size_t>(len)) return FrameResult::kNeedMore;
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(buf + 4));
  const char* body_ptr = buf + kFrameHeaderSize;
  const size_t body_len = len - 4;
  if (crc32c::Value(body_ptr, body_len) != expected) {
    return FrameResult::kBadCrc;
  }
  *body = Slice(body_ptr, body_len);
  *consumed = 4 + static_cast<size_t>(len);
  return FrameResult::kOk;
}

bool ParseBody(const Slice& body, uint64_t* request_id, Opcode* opcode,
               Slice* payload) {
  if (body.size() < kMinBodySize) return false;
  *request_id = DecodeFixed64(body.data());
  const uint8_t op = static_cast<uint8_t>(body[8]);
  if (!KnownOpcode(op)) return false;
  *opcode = static_cast<Opcode>(op);
  *payload = Slice(body.data() + kMinBodySize, body.size() - kMinBodySize);
  return true;
}

// --- request payloads -----------------------------------------------------

void EncodePut(const Slice& key, const Slice& value, std::string* dst) {
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
}

bool DecodePut(Slice payload, Slice* key, Slice* value) {
  return GetLengthPrefixedSlice(&payload, key) &&
         GetLengthPrefixedSlice(&payload, value) && payload.empty();
}

void EncodeKey(const Slice& key, std::string* dst) {
  PutLengthPrefixedSlice(dst, key);
}

bool DecodeKey(Slice payload, Slice* key) {
  return GetLengthPrefixedSlice(&payload, key) && payload.empty();
}

void EncodeScan(const ScanRequest& req, std::string* dst) {
  PutLengthPrefixedSlice(dst, req.start_key);
  PutLengthPrefixedSlice(dst, req.end_key);
  PutVarint32(dst, req.limit);
  // Biased by one so "whole database" (-1) encodes as 0; omitted entirely
  // when -1 to stay byte-identical with pre-shard encoders.
  if (req.shard >= 0) {
    PutVarint32(dst, static_cast<uint32_t>(req.shard) + 1);
  }
}

bool DecodeScan(Slice payload, ScanRequest* req) {
  Slice start, end;
  uint32_t limit;
  if (!GetLengthPrefixedSlice(&payload, &start) ||
      !GetLengthPrefixedSlice(&payload, &end) ||
      !GetVarint32(&payload, &limit)) {
    return false;
  }
  req->shard = -1;
  if (!payload.empty()) {
    uint32_t biased;
    if (!GetVarint32(&payload, &biased) || !payload.empty()) return false;
    req->shard = static_cast<int32_t>(biased) - 1;
  }
  req->start_key = start.ToString();
  req->end_key = end.ToString();
  req->limit = limit;
  return true;
}

void EncodeInfo(const Slice& property, std::string* dst) {
  PutLengthPrefixedSlice(dst, property);
}

bool DecodeInfo(Slice payload, Slice* property) {
  return GetLengthPrefixedSlice(&payload, property) && payload.empty();
}

void EncodeMultiGet(const std::vector<std::string>& keys, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(keys.size()));
  for (const std::string& key : keys) PutLengthPrefixedSlice(dst, key);
}

bool DecodeMultiGet(Slice payload, std::vector<Slice>* keys) {
  uint32_t n;
  if (!GetVarint32(&payload, &n)) return false;
  // One varstring needs at least its length byte; a count the remaining
  // bytes cannot possibly satisfy is rejected before reserving anything.
  if (static_cast<size_t>(n) > payload.size()) return false;
  keys->clear();
  keys->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice key;
    if (!GetLengthPrefixedSlice(&payload, &key)) return false;
    keys->push_back(key);
  }
  return payload.empty();
}

// --- response payloads ----------------------------------------------------

void EncodeStatus(const Status& s, std::string* dst) {
  dst->push_back(static_cast<char>(CodeOf(s)));
  std::string msg =
      s.IsIncomplete() ? "internal error: " + s.ToString() : s.message();
  PutLengthPrefixedSlice(dst, msg);
}

bool DecodeStatus(Slice* payload, Status* s) {
  if (payload->empty()) return false;
  const uint8_t code = static_cast<uint8_t>((*payload)[0]);
  if (code > static_cast<uint8_t>(StatusCode::kBusy)) return false;
  payload->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixedSlice(payload, &msg)) return false;
  *s = MakeStatus(static_cast<StatusCode>(code), msg);
  return true;
}

void EncodeScanResponse(const ScanResponse& resp, std::string* dst) {
  dst->push_back(resp.truncated ? 1 : 0);
  PutVarint32(dst, static_cast<uint32_t>(resp.entries.size()));
  for (const auto& [key, value] : resp.entries) {
    PutLengthPrefixedSlice(dst, key);
    PutLengthPrefixedSlice(dst, value);
  }
}

bool DecodeScanResponse(Slice payload, ScanResponse* resp) {
  if (payload.empty()) return false;
  resp->truncated = payload[0] != 0;
  payload.remove_prefix(1);
  uint32_t n;
  if (!GetVarint32(&payload, &n)) return false;
  resp->entries.clear();
  resp->entries.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&payload, &key) ||
        !GetLengthPrefixedSlice(&payload, &value)) {
      return false;
    }
    resp->entries.emplace_back(key.ToString(), value.ToString());
  }
  return payload.empty();
}

void EncodeMultiGetResponse(const std::vector<MultiGetEntry>& entries,
                            std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(entries.size()));
  for (const MultiGetEntry& e : entries) {
    dst->push_back(static_cast<char>(e.code));
    if (e.code == StatusCode::kOk) PutLengthPrefixedSlice(dst, e.value);
  }
}

bool DecodeMultiGetResponse(Slice payload,
                            std::vector<MultiGetEntry>* entries) {
  uint32_t n;
  if (!GetVarint32(&payload, &n)) return false;
  if (static_cast<size_t>(n) > payload.size()) return false;
  entries->clear();
  entries->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    if (payload.empty()) return false;
    const uint8_t code = static_cast<uint8_t>(payload[0]);
    if (code > static_cast<uint8_t>(StatusCode::kBusy)) return false;
    payload.remove_prefix(1);
    MultiGetEntry e;
    e.code = static_cast<StatusCode>(code);
    if (e.code == StatusCode::kOk) {
      Slice value;
      if (!GetLengthPrefixedSlice(&payload, &value)) return false;
      e.value.assign(value.data(), value.size());
    }
    entries->push_back(std::move(e));
  }
  return payload.empty();
}

// --- DbStats serialization ------------------------------------------------
// Each field is (tag varint32, length varint32, bytes); decoders skip
// unknown tags so fields can be added compatibly.

namespace {

enum StatsTag : uint32_t {
  kTagUserBytes = 1,
  kTagSpaceUsed = 2,
  kTagCacheUsage = 3,
  kTagCacheHits = 4,
  kTagCacheMisses = 5,
  kTagStallMicros = 6,
  kTagPendingDebt = 7,
  kTagMixedLevel = 8,
  kTagMixedLevelK = 9,
  kTagTotalWriteAmp = 10,      // fixed64 bit-cast of double
  kTagLevelBytes = 11,         // varint64 per level
  kTagLevelNodeCounts = 12,    // varint64 per level
  kTagLevelWriteAmp = 13,      // fixed64 bit-cast of double per level
  kTagIoBytesWritten = 14,
  kTagIoBytesRead = 15,
  kTagIoWriteOps = 16,
  kTagIoReadOps = 17,
  kTagIoFsyncs = 18,
  kTagFlushQueueDepth = 19,
  kTagCompactQueueDepth = 20,
  kTagSubcompactionsRun = 21,
  kTagRateLimiterWaitMicros = 22,
  // Serving-layer reactor counters, filled only by the server's INFO path.
  kTagServerLoopIterations = 23,
  kTagServerWritevCalls = 24,
  kTagServerResponsesWritten = 25,
  kTagServerOutputBufferHwm = 26,
  kTagServerBackpressureStalls = 27,
  kTagServerAcceptErrors = 28,
  // Adaptive compaction pacing gauges.
  kTagPacerRate = 29,
  kTagPacerIngestRate = 30,
  kTagPacerRetunes = 31,
  kTagRateLimiterPacedWallMicros = 32,
  // Per-block compression gauges (format v2).
  kTagCompressInputBytes = 33,
  kTagCompressStoredBytes = 34,
  kTagCompressColumnarBlocks = 35,
  kTagCompressLzBlocks = 36,
  kTagCompressRawFallbackBlocks = 37,
  kTagDecompressedBlocks = 38,
  kTagDecompressMicros = 39,
  kTagCompressedCacheUsage = 40,
  kTagCompressedCacheHits = 41,
  kTagCompressedCacheMisses = 42,
  // Unified memory-arbiter gauges.
  kTagArbiterBudget = 43,
  kTagArbiterWriteBytes = 44,
  kTagArbiterReadBytes = 45,
  kTagArbiterRetunes = 46,
  kTagArbiterShifts = 47,
  kTagMixedLevelRetunes = 48,
  // Batched MultiGet gauges.
  kTagMultiGetBatches = 49,
  kTagMultiGetKeys = 50,
  kTagMultiGetCoalescedReads = 51,
  kTagMultiGetCoalescedBlocks = 52,
};

static_assert(kTagMultiGetCoalescedBlocks == kMaxDbStatsTag,
              "bump wire::kMaxDbStatsTag when adding a StatsTag");

void PutField(std::string* dst, uint32_t tag, const std::string& bytes) {
  PutVarint32(dst, tag);
  PutVarint32(dst, static_cast<uint32_t>(bytes.size()));
  dst->append(bytes);
}

void PutU64Field(std::string* dst, uint32_t tag, uint64_t v) {
  std::string tmp;
  PutVarint64(&tmp, v);
  PutField(dst, tag, tmp);
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

void EncodeDbStats(const DbStats& stats, std::string* dst) {
  PutU64Field(dst, kTagUserBytes, stats.user_bytes);
  PutU64Field(dst, kTagSpaceUsed, stats.space_used_bytes);
  PutU64Field(dst, kTagCacheUsage, stats.cache_usage);
  PutU64Field(dst, kTagCacheHits, stats.cache_hits);
  PutU64Field(dst, kTagCacheMisses, stats.cache_misses);
  PutU64Field(dst, kTagStallMicros, stats.stall_micros);
  PutU64Field(dst, kTagPendingDebt, stats.pending_debt_bytes);
  PutU64Field(dst, kTagMixedLevel, static_cast<uint64_t>(stats.mixed_level));
  PutU64Field(dst, kTagMixedLevelK,
              static_cast<uint64_t>(stats.mixed_level_k));
  {
    std::string tmp;
    PutFixed64(&tmp, DoubleBits(stats.total_write_amp));
    PutField(dst, kTagTotalWriteAmp, tmp);
  }
  {
    std::string tmp;
    for (uint64_t b : stats.level_bytes) PutVarint64(&tmp, b);
    PutField(dst, kTagLevelBytes, tmp);
  }
  {
    std::string tmp;
    for (int n : stats.level_node_counts) {
      PutVarint64(&tmp, static_cast<uint64_t>(n));
    }
    PutField(dst, kTagLevelNodeCounts, tmp);
  }
  {
    std::string tmp;
    for (double w : stats.level_write_amp) PutFixed64(&tmp, DoubleBits(w));
    PutField(dst, kTagLevelWriteAmp, tmp);
  }
  PutU64Field(dst, kTagIoBytesWritten, stats.io.bytes_written);
  PutU64Field(dst, kTagIoBytesRead, stats.io.bytes_read);
  PutU64Field(dst, kTagIoWriteOps, stats.io.write_ops);
  PutU64Field(dst, kTagIoReadOps, stats.io.read_ops);
  PutU64Field(dst, kTagIoFsyncs, stats.io.fsyncs);
  PutU64Field(dst, kTagFlushQueueDepth, stats.flush_queue_depth);
  PutU64Field(dst, kTagCompactQueueDepth, stats.compact_queue_depth);
  PutU64Field(dst, kTagSubcompactionsRun, stats.subcompactions_run);
  PutU64Field(dst, kTagRateLimiterWaitMicros, stats.rate_limiter_wait_micros);
  // Pacing tags, omitted when pacing never engaged (all four zero) so an
  // unpaced snapshot keeps its historical byte layout.
  if (stats.pacer_rate_bytes_per_sec != 0 ||
      stats.pacer_ingest_bytes_per_sec != 0 || stats.pacer_retunes != 0 ||
      stats.rate_limiter_paced_wall_micros != 0) {
    PutU64Field(dst, kTagPacerRate, stats.pacer_rate_bytes_per_sec);
    PutU64Field(dst, kTagPacerIngestRate, stats.pacer_ingest_bytes_per_sec);
    PutU64Field(dst, kTagPacerRetunes, stats.pacer_retunes);
    PutU64Field(dst, kTagRateLimiterPacedWallMicros,
                stats.rate_limiter_paced_wall_micros);
  }
  // The reactor tags are omitted entirely when zero (embedded DB): old
  // decoders skip unknown tags anyway, and an embedded snapshot stays
  // byte-identical to the pre-reactor encoding.
  if (stats.server_loop_iterations != 0 || stats.server_writev_calls != 0 ||
      stats.server_responses_written != 0 ||
      stats.server_output_buffer_hwm != 0 ||
      stats.server_backpressure_stalls != 0 ||
      stats.server_accept_errors != 0) {
    PutU64Field(dst, kTagServerLoopIterations, stats.server_loop_iterations);
    PutU64Field(dst, kTagServerWritevCalls, stats.server_writev_calls);
    PutU64Field(dst, kTagServerResponsesWritten,
                stats.server_responses_written);
    PutU64Field(dst, kTagServerOutputBufferHwm,
                stats.server_output_buffer_hwm);
    PutU64Field(dst, kTagServerBackpressureStalls,
                stats.server_backpressure_stalls);
    PutU64Field(dst, kTagServerAcceptErrors, stats.server_accept_errors);
  }
  // Compression tags, omitted as a group when compression never engaged so
  // a compression-off snapshot keeps its historical byte layout.
  if (stats.compress_input_bytes != 0 || stats.compress_stored_bytes != 0 ||
      stats.compress_columnar_blocks != 0 || stats.compress_lz_blocks != 0 ||
      stats.compress_raw_fallback_blocks != 0 ||
      stats.decompressed_blocks != 0 || stats.decompress_micros != 0 ||
      stats.compressed_cache_usage != 0 || stats.compressed_cache_hits != 0 ||
      stats.compressed_cache_misses != 0) {
    PutU64Field(dst, kTagCompressInputBytes, stats.compress_input_bytes);
    PutU64Field(dst, kTagCompressStoredBytes, stats.compress_stored_bytes);
    PutU64Field(dst, kTagCompressColumnarBlocks,
                stats.compress_columnar_blocks);
    PutU64Field(dst, kTagCompressLzBlocks, stats.compress_lz_blocks);
    PutU64Field(dst, kTagCompressRawFallbackBlocks,
                stats.compress_raw_fallback_blocks);
    PutU64Field(dst, kTagDecompressedBlocks, stats.decompressed_blocks);
    PutU64Field(dst, kTagDecompressMicros, stats.decompress_micros);
    PutU64Field(dst, kTagCompressedCacheUsage, stats.compressed_cache_usage);
    PutU64Field(dst, kTagCompressedCacheHits, stats.compressed_cache_hits);
    PutU64Field(dst, kTagCompressedCacheMisses,
                stats.compressed_cache_misses);
  }
  // Arbiter tags, omitted as a group when no pooled budget was configured
  // so a fixed-sizing snapshot keeps its historical byte layout.
  if (stats.arbiter_budget_bytes != 0 || stats.arbiter_write_bytes != 0 ||
      stats.arbiter_read_bytes != 0 || stats.arbiter_retunes != 0 ||
      stats.arbiter_shifts != 0 || stats.mixed_level_retunes != 0) {
    PutU64Field(dst, kTagArbiterBudget, stats.arbiter_budget_bytes);
    PutU64Field(dst, kTagArbiterWriteBytes, stats.arbiter_write_bytes);
    PutU64Field(dst, kTagArbiterReadBytes, stats.arbiter_read_bytes);
    PutU64Field(dst, kTagArbiterRetunes, stats.arbiter_retunes);
    PutU64Field(dst, kTagArbiterShifts, stats.arbiter_shifts);
    PutU64Field(dst, kTagMixedLevelRetunes, stats.mixed_level_retunes);
  }
  // MultiGet tags, omitted as a group until the first batched read so a
  // Get-only snapshot keeps its historical byte layout.
  if (stats.multiget_batches != 0 || stats.multiget_keys != 0 ||
      stats.multiget_coalesced_reads != 0 ||
      stats.multiget_coalesced_blocks != 0) {
    PutU64Field(dst, kTagMultiGetBatches, stats.multiget_batches);
    PutU64Field(dst, kTagMultiGetKeys, stats.multiget_keys);
    PutU64Field(dst, kTagMultiGetCoalescedReads,
                stats.multiget_coalesced_reads);
    PutU64Field(dst, kTagMultiGetCoalescedBlocks,
                stats.multiget_coalesced_blocks);
  }
}

bool DecodeDbStats(Slice payload, DbStats* stats) {
  *stats = DbStats();
  while (!payload.empty()) {
    uint32_t tag, len;
    if (!GetVarint32(&payload, &tag) || !GetVarint32(&payload, &len) ||
        payload.size() < len) {
      return false;
    }
    Slice field(payload.data(), len);
    payload.remove_prefix(len);

    auto get_u64 = [&field](uint64_t* v) { return GetVarint64(&field, v); };
    uint64_t u = 0;
    switch (tag) {
      case kTagUserBytes:
        if (!get_u64(&stats->user_bytes)) return false;
        break;
      case kTagSpaceUsed:
        if (!get_u64(&stats->space_used_bytes)) return false;
        break;
      case kTagCacheUsage:
        if (!get_u64(&stats->cache_usage)) return false;
        break;
      case kTagCacheHits:
        if (!get_u64(&stats->cache_hits)) return false;
        break;
      case kTagCacheMisses:
        if (!get_u64(&stats->cache_misses)) return false;
        break;
      case kTagStallMicros:
        if (!get_u64(&stats->stall_micros)) return false;
        break;
      case kTagPendingDebt:
        if (!get_u64(&stats->pending_debt_bytes)) return false;
        break;
      case kTagMixedLevel:
        if (!get_u64(&u)) return false;
        stats->mixed_level = static_cast<int>(u);
        break;
      case kTagMixedLevelK:
        if (!get_u64(&u)) return false;
        stats->mixed_level_k = static_cast<int>(u);
        break;
      case kTagTotalWriteAmp: {
        if (field.size() != 8) return false;
        stats->total_write_amp = BitsDouble(DecodeFixed64(field.data()));
        break;
      }
      case kTagLevelBytes:
        while (!field.empty()) {
          if (!GetVarint64(&field, &u)) return false;
          stats->level_bytes.push_back(u);
        }
        break;
      case kTagLevelNodeCounts:
        while (!field.empty()) {
          if (!GetVarint64(&field, &u)) return false;
          stats->level_node_counts.push_back(static_cast<int>(u));
        }
        break;
      case kTagLevelWriteAmp:
        if (field.size() % 8 != 0) return false;
        for (size_t i = 0; i < field.size(); i += 8) {
          stats->level_write_amp.push_back(
              BitsDouble(DecodeFixed64(field.data() + i)));
        }
        break;
      case kTagIoBytesWritten:
        if (!get_u64(&stats->io.bytes_written)) return false;
        break;
      case kTagIoBytesRead:
        if (!get_u64(&stats->io.bytes_read)) return false;
        break;
      case kTagIoWriteOps:
        if (!get_u64(&stats->io.write_ops)) return false;
        break;
      case kTagIoReadOps:
        if (!get_u64(&stats->io.read_ops)) return false;
        break;
      case kTagIoFsyncs:
        if (!get_u64(&stats->io.fsyncs)) return false;
        break;
      case kTagFlushQueueDepth:
        if (!get_u64(&stats->flush_queue_depth)) return false;
        break;
      case kTagCompactQueueDepth:
        if (!get_u64(&stats->compact_queue_depth)) return false;
        break;
      case kTagSubcompactionsRun:
        if (!get_u64(&stats->subcompactions_run)) return false;
        break;
      case kTagRateLimiterWaitMicros:
        if (!get_u64(&stats->rate_limiter_wait_micros)) return false;
        break;
      case kTagServerLoopIterations:
        if (!get_u64(&stats->server_loop_iterations)) return false;
        break;
      case kTagServerWritevCalls:
        if (!get_u64(&stats->server_writev_calls)) return false;
        break;
      case kTagServerResponsesWritten:
        if (!get_u64(&stats->server_responses_written)) return false;
        break;
      case kTagServerOutputBufferHwm:
        if (!get_u64(&stats->server_output_buffer_hwm)) return false;
        break;
      case kTagServerBackpressureStalls:
        if (!get_u64(&stats->server_backpressure_stalls)) return false;
        break;
      case kTagServerAcceptErrors:
        if (!get_u64(&stats->server_accept_errors)) return false;
        break;
      case kTagPacerRate:
        if (!get_u64(&stats->pacer_rate_bytes_per_sec)) return false;
        break;
      case kTagPacerIngestRate:
        if (!get_u64(&stats->pacer_ingest_bytes_per_sec)) return false;
        break;
      case kTagPacerRetunes:
        if (!get_u64(&stats->pacer_retunes)) return false;
        break;
      case kTagRateLimiterPacedWallMicros:
        if (!get_u64(&stats->rate_limiter_paced_wall_micros)) return false;
        break;
      case kTagCompressInputBytes:
        if (!get_u64(&stats->compress_input_bytes)) return false;
        break;
      case kTagCompressStoredBytes:
        if (!get_u64(&stats->compress_stored_bytes)) return false;
        break;
      case kTagCompressColumnarBlocks:
        if (!get_u64(&stats->compress_columnar_blocks)) return false;
        break;
      case kTagCompressLzBlocks:
        if (!get_u64(&stats->compress_lz_blocks)) return false;
        break;
      case kTagCompressRawFallbackBlocks:
        if (!get_u64(&stats->compress_raw_fallback_blocks)) return false;
        break;
      case kTagDecompressedBlocks:
        if (!get_u64(&stats->decompressed_blocks)) return false;
        break;
      case kTagDecompressMicros:
        if (!get_u64(&stats->decompress_micros)) return false;
        break;
      case kTagCompressedCacheUsage:
        if (!get_u64(&stats->compressed_cache_usage)) return false;
        break;
      case kTagCompressedCacheHits:
        if (!get_u64(&stats->compressed_cache_hits)) return false;
        break;
      case kTagCompressedCacheMisses:
        if (!get_u64(&stats->compressed_cache_misses)) return false;
        break;
      case kTagArbiterBudget:
        if (!get_u64(&stats->arbiter_budget_bytes)) return false;
        break;
      case kTagArbiterWriteBytes:
        if (!get_u64(&stats->arbiter_write_bytes)) return false;
        break;
      case kTagArbiterReadBytes:
        if (!get_u64(&stats->arbiter_read_bytes)) return false;
        break;
      case kTagArbiterRetunes:
        if (!get_u64(&stats->arbiter_retunes)) return false;
        break;
      case kTagArbiterShifts:
        if (!get_u64(&stats->arbiter_shifts)) return false;
        break;
      case kTagMixedLevelRetunes:
        if (!get_u64(&stats->mixed_level_retunes)) return false;
        break;
      case kTagMultiGetBatches:
        if (!get_u64(&stats->multiget_batches)) return false;
        break;
      case kTagMultiGetKeys:
        if (!get_u64(&stats->multiget_keys)) return false;
        break;
      case kTagMultiGetCoalescedReads:
        if (!get_u64(&stats->multiget_coalesced_reads)) return false;
        break;
      case kTagMultiGetCoalescedBlocks:
        if (!get_u64(&stats->multiget_coalesced_blocks)) return false;
        break;
      default:
        break;  // forward compatibility: skip unknown field
    }
  }
  return true;
}

}  // namespace iamdb::wire
