// User-facing configuration.  One Options struct drives all three policies:
//   engine = kLeveled                    -> LevelDB/RocksDB-style LSM baseline
//   engine = kAmt, amt.policy = kLsa     -> the LSA-tree (appends only)
//   engine = kAmt, amt.policy = kIam     -> the IAM-tree (appends + merges)
// With amt.k = 1 and amt.fixed_mixed_level = 1, the AMT engine degenerates
// into merge-always behaviour (paper Sec 1: "IAM degenerates into LSM").
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

#include "table/table_options.h"

namespace iamdb {

class Env;
class LruCache;
class RateLimiter;
class Snapshot;

// Background pool sized from the machine: single-core stays single-threaded,
// multi-core gets at least two workers (one can always take a flush while
// the others merge) capped at 8 — background work rarely scales past that
// and the pool should not crowd out foreground threads.
inline int DefaultBackgroundThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 1;
  return static_cast<int>(hw < 2 ? 2 : (hw > 8 ? 8 : hw));
}

enum class EngineType {
  kLeveled,  // classic leveled LSM (the paper's LevelDB/RocksDB baseline)
  kAmt,      // append/merge tree (LSA or IAM by AmtOptions::policy)
};

enum class AmtPolicy {
  kLsa,  // append whenever the child is not full (merge only full children)
  kIam,  // appending levels above m, k-sequence mixed level, merging below
};

struct AmtOptions {
  AmtPolicy policy = AmtPolicy::kIam;

  // Fan-out t: threshold number of nodes in L1 is t, L2 is t^2, ...
  // (paper default 10).  A node splits when its children reach 2t.
  int fanout = 10;

  // Max sequences per node in the mixed level (paper Table 3 sweeps 1..3).
  int k = 3;

  // Mixed level selection.  auto_tune_mk picks the largest (m, k) satisfying
  // paper Eq. 2 against memory_budget_bytes; otherwise fixed_mixed_level is
  // used (<= 0 means "no mixed level": every on-disk level appends, i.e.
  // pure LSA behaviour regardless of policy).
  bool auto_tune_mk = true;
  int fixed_mixed_level = 0;

  // Memory available for caching appended sequences (the "M" of Eq. 2).
  // Defaults to the block-cache capacity when 0.
  uint64_t memory_budget_bytes = 0;

  // Fraction of M usable by the tuner (paper suggests M/2 so merge-generated
  // sequences keep some cache).
  double memory_budget_fraction = 0.5;

  // Initial size of merge-output nodes at the leaf level, as a divisor of
  // node_capacity ("Cts, Ct/5 by default" — paper Sec 4.2.1).
  int leaf_merge_split_factor = 5;

  // FLSM-emulation for Sec 6.8: rewrite records on every flush instead of
  // metadata-moving nodes with no children.
  bool rewrite_on_flush = false;

  // --- ablation knobs (defaults = the paper's design) ---
  // A full node splits when its child count reaches this multiple of t
  // (paper: 2).
  double split_child_factor = 2.0;
  // Combine candidate selection: smallest Tcn with two adjacent siblings
  // (paper Sec 4.2.3) vs naively taking the first combinable node.
  bool combine_min_tcn = true;
};

struct LeveledOptions {
  // Number of L0 files that triggers a compaction (LevelDB default 4).
  int l0_compaction_trigger = 4;
  // L0 file counts for slowdown / stop (LevelDB defaults 8 / 12).
  int l0_slowdown_trigger = 8;
  int l0_stop_trigger = 12;
  // Max bytes for L1; each deeper level is 10x (paper Sec 6.1 uses 640MB).
  uint64_t max_bytes_level1 = 64ull << 20;
  double level_multiplier = 10.0;
  // Output file size (paper: 64MB files, half the 128MB node threshold).
  uint64_t target_file_size = 2ull << 20;
  // RocksDB-flavour: compact the most over-full level first and apply
  // pending-bytes stalls, preventing overflow accumulation.  LevelDB-flavour
  // (false) compacts lazily and lets levels overflow (paper Sec 6.2).
  bool strict_level_limits = false;
  // Pending compaction debt thresholds for slowdown/stop when strict.
  uint64_t soft_pending_bytes = 256ull << 20;
  uint64_t hard_pending_bytes = 512ull << 20;
};

// Unified memory arbiter (see core/memory_arbiter.h).  Behaviour knobs for
// the Options::memory_budget_bytes pool: the arbiter starts from
// initial_write_fraction, then once per retune interval folds the observed
// write-stall time and cache miss rate into EWMAs and moves the split one
// step toward whichever side is starved.  The write share never drops
// below one memtable (node_capacity) and the read share never drops below
// the minimum cache allotment, so neither side can be starved out
// entirely.
struct ArbiterOptions {
  // Starting write-side share of the pool (clamped to the floors above).
  double initial_write_fraction = 0.25;

  // Fraction of the pool moved per rebalance step.
  double step_fraction = 1.0 / 16;

  // Controller cadence; rebalances are rate-limited to one per interval.
  uint64_t retune_interval_micros = 50 * 1000;

  // Write-side pressure: smoothed memtable-full stall time above this
  // share of the interval (per mille) pulls budget toward the memtable —
  // unless compaction debt is past pacing.debt_high_bytes, in which case
  // the stalls are compaction-bound and a bigger memtable would not help.
  uint64_t stall_shift_per_mille = 50;

  // Read-side pressure: smoothed block-cache miss rate above this
  // (per mille), with stalls quiet, pushes budget toward the caches.
  uint64_t miss_shift_per_mille = 200;

  // Intervals with fewer cache lookups than this carry no read signal
  // (the miss-rate EWMA holds its value instead of folding noise).
  uint64_t min_lookups_per_interval = 64;
};

// Compaction pacing (see core/compaction_pacer.h): the background
// (compaction + flush) I/O budget.  When enabled a controller measures the
// sustained ingest/compaction load and the engine's outstanding compaction
// debt and retunes the token bucket: at low debt merges are paced just
// above the measured load (smooth, no device saturation); as debt climbs
// toward debt_high_bytes the budget opens linearly up to max_bytes_per_sec
// so debt stays bounded instead of snowballing into write stalls.  Flush
// I/O has priority over merge I/O inside the budget (util/rate_limiter.h).
// Disabled, background I/O is unpaced.
struct PacingOptions {
  bool adaptive = false;

  // A static budget: with min == max every target, and the escalation,
  // clamps to bytes_per_sec, and the bucket starts there.
  static PacingOptions Pinned(uint64_t bytes_per_sec) {
    PacingOptions p;
    p.adaptive = true;
    p.min_bytes_per_sec = p.max_bytes_per_sec = bytes_per_sec;
    return p;
  }

  // Clamp range for the adaptive budget.  The bucket starts at max (the
  // unpaced behaviour) and is paced down as the controller learns.
  uint64_t min_bytes_per_sec = 8ull << 20;
  uint64_t max_bytes_per_sec = 1ull << 30;

  // Debt watermarks: at or below low the budget tracks the measured load;
  // at or above high it is fully open; linear in between.  Sized so the
  // budget is wide open well before the engines' own pending-debt write
  // stalls (soft 256MB / hard 512MB) engage: transient debt from one big
  // merge should ride on the smooth load-tracking budget, not slam it
  // open.
  uint64_t debt_low_bytes = 64ull << 20;
  uint64_t debt_high_bytes = 256ull << 20;

  // Controller cadence; retunes are rate-limited to one per interval.
  uint64_t retune_interval_micros = 50 * 1000;

  // Multiplier applied to the smoothed load for the low-debt budget, so
  // merges run slightly hot and drain rather than track debt exactly.
  double headroom = 1.25;
};

struct Options {
  // -- shared --
  Env* env = nullptr;  // required
  bool create_if_missing = true;
  bool error_if_exists = false;
  bool paranoid_checks = false;

  EngineType engine = EngineType::kAmt;

  // Node capacity Ct (paper: 128MB; scaled default 4MB).  Also the
  // memtable flush threshold: the memtable is LSA's L0.
  uint64_t node_capacity = 4ull << 20;

  // Background compaction threads ("-nt" in the paper's evaluation).
  // Defaults to the core count (clamped to [2, 8]; 1 on single-core).
  int background_threads = DefaultBackgroundThreads();

  // Max key-range shards a single merge job may fan out into (partitioned
  // subcompactions).  0 means "same as background_threads"; 1 disables
  // sharding.  Sharding never changes results — the equivalence is asserted
  // by subcompaction_test across all three engines.
  int max_subcompactions = 0;

  // Background I/O budget (see PacingOptions); unpaced by default.
  PacingOptions pacing;

  // Leveled-engine job selection: pick the compaction that retires the
  // most debt bytes first (greedy), or false for LevelDB's own picker
  // (fixed score order, round-robin within a level) -- the lax LevelDB
  // flavour of the paper's Sec 6.2.  The AMT engine always picks greedily.
  // See docs/CONCURRENCY.md.
  bool greedy_compaction = true;

  // One pooled memory budget across the memtable and both block-cache
  // tiers (core/memory_arbiter.h).  When > 0, block_cache_capacity and
  // compressed_cache_capacity stop being absolute sizes — they only set
  // the ratio in which the read share is divided between the tiers (and
  // whether the compressed tier exists at all) — and the memtable
  // rotation threshold becomes the arbiter's write quota instead of
  // node_capacity.  Must be at least one memtable plus the minimum cache
  // allotment (Open returns InvalidArgument otherwise).  0 = fixed sizing.
  uint64_t memory_budget_bytes = 0;

  // Arbiter behaviour knobs (used only when memory_budget_bytes > 0).
  ArbiterOptions arbiter;

  // Block cache capacity; models the memory available for data blocks.
  // Entries are charged at uncompressed (resident) size.
  uint64_t block_cache_capacity = 64ull << 20;

  // Capacity of the compressed-block cache tier (0 = tier off).  Holds
  // still-compressed block bytes (charged at stored size) so an
  // uncompressed-tier miss decompresses from memory instead of re-reading
  // the device.  Only useful when table.compression is enabled.
  uint64_t compressed_cache_capacity = 0;

  // WAL fsync on every write batch (benchmarks follow the paper and leave
  // this off; crash tests turn it on).
  bool sync_wal = false;

  TableOptions table;
  AmtOptions amt;
  LeveledOptions leveled;
};

// I/O accounting for one point read.  DBImpl::Lookup points
// ReadOptions::batch at a stack instance; the table layer adds every
// vectored device read that covered more than one block, and DBImpl folds
// the totals into DbStats when the read completes.  A one-key Get never
// coalesces, so only MultiGet batches move the gauges.
struct MultiGetContext {
  uint64_t coalesced_reads = 0;   // contiguous device runs covering 2+ blocks
  uint64_t coalesced_blocks = 0;  // blocks fetched by those runs
};

struct ReadOptions {
  bool verify_checksums = false;
  bool fill_cache = true;
  // nullptr means "read the latest committed state".
  const Snapshot* snapshot = nullptr;
  // Paces cache-miss block reads when non-null (engines set this on their
  // compaction-input reads so merge reads share the background I/O budget).
  // Not owned.
  RateLimiter* rate_limiter = nullptr;
  // Non-null while serving a point read (set by DBImpl, not by callers).
  // Not owned.
  MultiGetContext* batch = nullptr;
  // No-I/O read tier for Get/MultiGet: answer only from the memtables and
  // the block-cache tiers.  Where the answer needs the device — an unopened
  // table, a block in neither cache tier — the read returns
  // Status::Incomplete instead, without blocking on I/O or on a table's
  // open lock.  Not meant for iterators.
  bool cache_only = false;
};

struct WriteOptions {
  bool sync = false;
};

}  // namespace iamdb
