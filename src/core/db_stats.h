// DbStats: the point-in-time statistics a benchmark or an operator samples
// (the paper's write amps and space, the AMT's (m,k), and the serving,
// pacing, compression, arbiter and batched-read gauges).
//
// Every metric is declared once, in IAMDB_DB_STATS below.  The struct
// members, operator+= (db_stats.cc), the INFO wire codec
// (server/wire_protocol.cc), `iamdb_cli stats` and tests/db_stats_test.cc
// all derive from that list, so adding a metric is one list line plus its
// fill in DBImpl::GetStats.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "stats/io_stats.h"

namespace iamdb {

// How two instances' values of a metric combine (ShardedDB folds its
// shards' snapshots with operator+=).
enum class StatMerge : uint8_t {
  kSum,          // counters, byte totals, budgets: the cluster-wide total
  kMax,          // structural per-instance values and high-water marks
  kPadAdd,       // per-level vectors: pad the shorter with zeros, then add
  kWeightedAmp,  // write amps, weighted by each side's user_bytes, so the
                 // result is total-bytes-written / total-user-bytes
};

// Wire groups.  kCore is always sent; any other group is sent only when one
// of its metrics is nonzero, so a snapshot from an instance without the
// feature keeps the byte layout it had before the group existed.
enum class StatGroup : uint8_t {
  kCore,
  kPacer,
  kReactor,
  kCompression,
  kArbiter,
  kMultiGet,
};
constexpr int kNumStatGroups = static_cast<int>(StatGroup::kMultiGet) + 1;

// Per-level metrics are vectors; every other metric is a scalar.
template <typename T>
constexpr bool kIsPerLevelStat = false;
template <typename T>
constexpr bool kIsPerLevelStat<std::vector<T>> = true;

// One metric per line: X(type, field, wire tag, StatMerge, StatGroup).
// IO(...) lines are the members of the IoStatsSnapshot `io`, kept as one
// struct because benchmarks subtract snapshots.  The list order is the
// wire emission order; a tag, once used, is never reused.
#define IAMDB_DB_STATS(X, IO)                                                \
  X(uint64_t, user_bytes, 1, kSum, kCore)                                    \
  X(uint64_t, space_used_bytes, 2, kSum, kCore) /* live table footprint */   \
  X(uint64_t, cache_usage, 3, kSum, kCore)                                   \
  X(uint64_t, cache_hits, 4, kSum, kCore)                                    \
  X(uint64_t, cache_misses, 5, kSum, kCore)                                  \
  X(uint64_t, stall_micros, 6, kSum, kCore)                                  \
  /* Estimated bytes of outstanding compaction work (engine-specific). */    \
  X(uint64_t, pending_debt_bytes, 7, kSum, kCore)                            \
  /* AMT engines: the current mixed level m (0 = none) and its k. */         \
  X(int, mixed_level, 8, kMax, kCore)                                        \
  X(int, mixed_level_k, 9, kMax, kCore)                                      \
  X(double, total_write_amp, 10, kWeightedAmp, kCore) /* excludes WAL */     \
  /* Per level; [0] = the first on-disk level. */                            \
  X(std::vector<uint64_t>, level_bytes, 11, kPadAdd, kCore)                  \
  X(std::vector<int>, level_node_counts, 12, kPadAdd, kCore)                 \
  X(std::vector<double>, level_write_amp, 13, kWeightedAmp, kCore)           \
  IO(uint64_t, bytes_written, 14, kSum, kCore)                               \
  IO(uint64_t, bytes_read, 15, kSum, kCore)                                  \
  IO(uint64_t, write_ops, 16, kSum, kCore)                                   \
  IO(uint64_t, read_ops, 17, kSum, kCore)                                    \
  IO(uint64_t, fsyncs, 18, kSum, kCore)                                      \
  /* Two-lane background scheduler: tasks waiting in each pool lane. */      \
  X(uint64_t, flush_queue_depth, 19, kSum, kCore)                            \
  X(uint64_t, compact_queue_depth, 20, kSum, kCore)                          \
  /* Key-range shards run by partitioned subcompactions (cumulative). */     \
  X(uint64_t, subcompactions_run, 21, kSum, kCore)                           \
  /* Background I/O time blocked in the rate limiter, SUMMED PER THREAD:  */ \
  /* with several threads blocked at once this exceeds wall-clock time.   */ \
  X(uint64_t, rate_limiter_wait_micros, 22, kSum, kCore)                     \
  /* Adaptive pacing (0 when pacing.adaptive is off).  Rates sum across   */ \
  /* shards: the aggregate is the cluster-wide budget / ingest estimate.  */ \
  X(uint64_t, pacer_rate_bytes_per_sec, 29, kSum, kPacer)                    \
  X(uint64_t, pacer_ingest_bytes_per_sec, 30, kSum, kPacer)                  \
  X(uint64_t, pacer_retunes, 31, kSum, kPacer)                               \
  /* Wall-clock time with at least one background thread blocked in the  */ \
  /* limiter (overlaps counted once): how long pacing was the bottleneck. */ \
  X(uint64_t, rate_limiter_paced_wall_micros, 32, kSum, kPacer)              \
  /* Serving-layer reactor counters, filled only by the server's INFO    */  \
  /* path; always zero in an embedded DB::GetStats().                    */  \
  X(uint64_t, server_loop_iterations, 23, kSum, kReactor)                    \
  X(uint64_t, server_writev_calls, 24, kSum, kReactor)                       \
  X(uint64_t, server_responses_written, 25, kSum, kReactor)                  \
  X(uint64_t, server_output_buffer_hwm, 26, kMax, kReactor)                  \
  X(uint64_t, server_backpressure_stalls, 27, kSum, kReactor)                \
  X(uint64_t, server_accept_errors, 28, kSum, kReactor)                      \
  /* Per-block compression: uncompressed size of built data blocks vs    */  \
  /* bytes written, blocks per codec (raw_fallback: the codec declined or */ \
  /* missed the ratio threshold), and the compressed-block cache tier.    */ \
  X(uint64_t, compress_input_bytes, 33, kSum, kCompression)                  \
  X(uint64_t, compress_stored_bytes, 34, kSum, kCompression)                 \
  X(uint64_t, compress_columnar_blocks, 35, kSum, kCompression)              \
  X(uint64_t, compress_lz_blocks, 36, kSum, kCompression)                    \
  X(uint64_t, compress_raw_fallback_blocks, 37, kSum, kCompression)          \
  X(uint64_t, decompressed_blocks, 38, kSum, kCompression)                   \
  X(uint64_t, decompress_micros, 39, kSum, kCompression)                     \
  X(uint64_t, compressed_cache_usage, 40, kSum, kCompression)                \
  X(uint64_t, compressed_cache_hits, 41, kSum, kCompression)                 \
  X(uint64_t, compressed_cache_misses, 42, kSum, kCompression)               \
  /* Memory arbiter (zero when memory_budget_bytes == 0): the pooled      */ \
  /* budget, its current write/read division, rebalance passes evaluated  */ \
  /* and passes that moved the split; mixed_level_retunes counts (m,k)    */ \
  /* changes after open.                                                  */ \
  X(uint64_t, arbiter_budget_bytes, 43, kSum, kArbiter)                      \
  X(uint64_t, arbiter_write_bytes, 44, kSum, kArbiter)                       \
  X(uint64_t, arbiter_read_bytes, 45, kSum, kArbiter)                        \
  X(uint64_t, arbiter_retunes, 46, kSum, kArbiter)                           \
  X(uint64_t, arbiter_shifts, 47, kSum, kArbiter)                            \
  X(uint64_t, mixed_level_retunes, 48, kSum, kArbiter)                       \
  /* Batched MultiGet: coalesced_reads counts vectored device reads that */  \
  /* covered 2+ adjacent blocks, coalesced_blocks the blocks they         */ \
  /* fetched.                                                             */ \
  X(uint64_t, multiget_batches, 49, kSum, kMultiGet)                         \
  X(uint64_t, multiget_keys, 50, kSum, kMultiGet)                            \
  X(uint64_t, multiget_coalesced_reads, 51, kSum, kMultiGet)                 \
  X(uint64_t, multiget_coalesced_blocks, 52, kSum, kMultiGet)

#define IAMDB_STAT_MEMBER(type, field, tag, merge, group) type field{};
#define IAMDB_STAT_NO_MEMBER(type, field, tag, merge, group)

struct DbStats {
  IAMDB_DB_STATS(IAMDB_STAT_MEMBER, IAMDB_STAT_NO_MEMBER)
  IoStatsSnapshot io;
};

#undef IAMDB_STAT_MEMBER
#undef IAMDB_STAT_NO_MEMBER

struct StatInfo {
  const char* name;  // the member's path in DbStats, e.g. "io.fsyncs"
  uint32_t tag;
  StatMerge merge;
  StatGroup group;
};

#define IAMDB_STAT_VISIT(type, field, tag, merge, group) \
  f(StatInfo{#field, tag, StatMerge::merge, StatGroup::group}, s.field...);
#define IAMDB_STAT_VISIT_IO(type, field, tag, merge, group)             \
  static_assert(std::is_same_v<decltype(IoStatsSnapshot::field), type>); \
  f(StatInfo{"io." #field, tag, StatMerge::merge, StatGroup::group},     \
    s.io.field...);

// Calls f(info, s.<field>...) for every metric, in list order.  Pass one
// DbStats to read or fill it, two to fold one into the other, none to walk
// the list itself.
template <typename F, typename... Stats>
constexpr void ForEachDbStat(F&& f, Stats&... s) {
  IAMDB_DB_STATS(IAMDB_STAT_VISIT, IAMDB_STAT_VISIT_IO)
}

#undef IAMDB_STAT_VISIT
#undef IAMDB_STAT_VISIT_IO

// Calls f(info, value) for every metric of `stats` the wire codec sends:
// all of kCore, and each other group only if one of its metrics is nonzero.
template <typename F>
void ForEachSentDbStat(const DbStats& stats, F&& f) {
  bool sent[kNumStatGroups] = {};
  sent[static_cast<int>(StatGroup::kCore)] = true;
  ForEachDbStat(
      [&sent](const StatInfo& info, const auto& v) {
        if (v != std::remove_cvref_t<decltype(v)>{}) {
          sent[static_cast<int>(info.group)] = true;
        }
      },
      stats);
  ForEachDbStat(
      [&sent, &f](const StatInfo& info, const auto& v) {
        if (sent[static_cast<int>(info.group)]) f(info, v);
      },
      stats);
}

}  // namespace iamdb
