// Adaptive compaction pacing: a feedback controller between the write path
// and the background RateLimiter.
//
// A static budget (PacingOptions::Pinned) trades an order of magnitude of
// throughput for smoothness (BENCH_compaction_scaling.json): a budget low
// enough to keep merges from saturating the device is also low enough that
// debt piles up and the write path stalls.  The pacer closes the loop
// instead: every retune interval it measures (EWMA, alpha = 1/2)
//
//   ingest  - user bytes written (RecordIngest from the write path), and
//   demand  - bytes compaction/flush actually offered to the limiter
//             (RateLimiter::total_bytes deltas),
//
// takes load = max(ingest, demand), and with the engine's outstanding
// compaction debt sets the token bucket to
//
//   debt <= debt_low_bytes:   max(min_rate, load * headroom)   ("smooth")
//   debt >= debt_high_bytes:  max_rate                         ("open")
//   in between:               linear interpolation
//
// Demand matters because compaction bandwidth is ingest times write
// amplification: pacing merges at ingest * headroom alone under-budgets by
// the amplification factor, writes stall behind the starved merges, the
// measured ingest falls, and the controller spirals to min_rate.  Demand
// (which includes the amplified bytes) breaks that loop.  Demand is
// itself throttled by the current budget — which is fine while the tree
// is healthy (that is what pacing means), but once debt crosses the low
// watermark AND the limiter was saturated for most of the interval
// (paced-wall time, RateLimiter::total_paced_wall_micros), the budget is
// genuinely starving merges and the pacer escalates multiplicatively —
// doubling — until compaction stops being limiter-bound; the law then
// settles it just over the true demand.  Idle intervals (no ingest, no
// demand, low debt) carry no signal and leave the budget and EWMAs
// untouched, so pacing survives lulls without re-converging.  DBImpl
// starts the bucket fully open for the same reason: converging down from
// max takes a couple of intervals, while ramping up from the floor would
// throttle the first seconds of a burst behind an unwarmed estimate.
//
// Threading: RecordIngest() is called lock-free from the write path.
// MaybeRetune() is called from DBImpl::MaybeScheduleBackgroundWork with the
// DB mutex held — it is cheap (a couple of atomics plus one non-blocking
// RateLimiter::SetBytesPerSecond, whose mutex is a leaf lock) and is
// serialized by the DB mutex.  RetuneDue() lets callers skip the debt
// computation between intervals.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/options.h"
#include "util/rate_limiter.h"

namespace iamdb {

class CompactionPacer {
 public:
  // `limiter` must outlive the pacer; `clock` defaults to the steady clock
  // (tests inject a simulated one shared with the limiter).
  CompactionPacer(const PacingOptions& options, RateLimiter* limiter,
                  RateClock* clock = RateClock::Default());

  CompactionPacer(const CompactionPacer&) = delete;
  CompactionPacer& operator=(const CompactionPacer&) = delete;

  // Accumulates user bytes written; any thread, no locks.
  void RecordIngest(uint64_t bytes);

  // True once retune_interval_micros have elapsed since the last retune.
  bool RetuneDue() const;

  // Folds the elapsed interval's ingest and limiter demand into the EWMAs
  // and retunes the limiter toward TargetRate(max(ingest, demand), debt),
  // doubling instead while the limiter is saturated.  No-op between
  // intervals.
  void MaybeRetune(uint64_t debt_bytes);

  // The control law itself, pure; exposed for deterministic unit tests.
  uint64_t TargetRate(uint64_t load_bytes_per_sec,
                      uint64_t debt_bytes) const;

  // Gauges (exported through DbStats).
  uint64_t current_rate() const { return limiter_->bytes_per_second(); }
  uint64_t ingest_rate() const {
    return smoothed_ingest_.load(std::memory_order_relaxed);
  }
  uint64_t demand_rate() const {
    return smoothed_demand_.load(std::memory_order_relaxed);
  }
  uint64_t retunes() const {
    return retunes_.load(std::memory_order_relaxed);
  }

 private:
  const PacingOptions opts_;
  RateLimiter* const limiter_;
  RateClock* const clock_;

  std::atomic<uint64_t> ingest_bytes_{0};       // since last retune
  std::atomic<uint64_t> last_retune_micros_;
  std::atomic<uint64_t> smoothed_ingest_{0};    // EWMA bytes/sec
  std::atomic<uint64_t> smoothed_demand_{0};    // EWMA bytes/sec
  std::atomic<uint64_t> last_total_bytes_{0};   // limiter gauge snapshots
  std::atomic<uint64_t> last_paced_wall_{0};
  std::atomic<uint64_t> retunes_{0};
};

}  // namespace iamdb
