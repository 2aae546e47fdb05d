// TaskGroup: run a batch of independent Status-returning tasks on a
// ThreadPool and wait for all of them, with the calling thread itself
// claiming tasks.  Subcompactions fan out through this.
//
// The caller-runs design is what makes fan-out from inside a pool worker
// safe: a background worker that shards its merge job across the same pool
// it is running on would deadlock a 1-thread pool (and convoy an N-thread
// one) if it only enqueued and waited.  Here the pool helpers are pure
// opportunism — every task not yet started by a helper is executed by the
// caller, so the group always completes even if no helper ever runs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/status.h"
#include "util/thread_pool.h"

namespace iamdb {

class TaskGroup {
 public:
  // Runs every task, using up to tasks.size()-1 pool helpers on `lane` plus
  // the calling thread.  Returns the first non-OK status in task order
  // (remaining tasks still run to completion — partial-failure cleanup is
  // the caller's job, and it needs every task finished to do it safely).
  static Status RunAll(ThreadPool* pool, ThreadPool::Lane lane,
                       std::vector<std::function<Status()>> tasks);
};

// Cuts `items` into at most `fan` (>= 1) contiguous groups balanced by
// weight(item), in bytes: a new group starts once the open one holds
// total/fan + 1, so a skewed item does not serialize a fan-out behind one
// task.  There is always at least one group.
template <typename T, typename Weight>
std::vector<std::vector<T>> BalancedGroups(const std::vector<T>& items,
                                           int fan, Weight weight) {
  std::vector<uint64_t> weights;
  weights.reserve(items.size());
  uint64_t total = 0;
  for (const T& item : items) {
    weights.push_back(weight(item));
    total += weights.back();
  }
  const uint64_t per_group = total / fan + 1;
  std::vector<std::vector<T>> groups(1);
  uint64_t acc = 0;
  for (size_t i = 0; i < items.size(); i++) {
    if (acc >= per_group && static_cast<int>(groups.size()) < fan) {
      groups.emplace_back();
      acc = 0;
    }
    groups.back().push_back(items[i]);
    acc += weights[i];
  }
  return groups;
}

}  // namespace iamdb
