// DbStats aggregation.  ShardedDB::GetStats folds per-shard snapshots with
// this operator; each metric combines by the StatMerge of its list line.
#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "core/db.h"

namespace iamdb {

namespace {

// Write amp is a ratio (bytes written / user bytes); combining two
// instances must weight each side by its denominator so the result equals
// the amp a single instance with the union of their traffic would report.
double CombineAmps(double lhs_amp, uint64_t lhs_user, double rhs_amp,
                   uint64_t rhs_user) {
  const double total_user =
      static_cast<double>(lhs_user) + static_cast<double>(rhs_user);
  if (total_user <= 0) return 0;
  return (lhs_amp * static_cast<double>(lhs_user) +
          rhs_amp * static_cast<double>(rhs_user)) /
         total_user;
}

template <typename T>
void Merge(StatMerge merge, T& lhs, const T& rhs, uint64_t lhs_user,
           uint64_t rhs_user) {
  if constexpr (kIsPerLevelStat<T>) {
    // Level by level, a level one side lacks counting as zero on that
    // side: kPadAdd adds, kWeightedAmp combines each level's amp.
    if (lhs.size() < rhs.size()) lhs.resize(rhs.size());
    const StatMerge each =
        merge == StatMerge::kPadAdd ? StatMerge::kSum : merge;
    for (size_t i = 0; i < lhs.size(); i++) {
      const typename T::value_type zero{};
      Merge(each, lhs[i], i < rhs.size() ? rhs[i] : zero, lhs_user,
            rhs_user);
    }
  } else if (merge == StatMerge::kMax) {
    lhs = std::max(lhs, rhs);
  } else if (merge == StatMerge::kWeightedAmp) {
    if constexpr (std::is_floating_point_v<T>) {
      lhs = CombineAmps(lhs, lhs_user, rhs, rhs_user);
    }
  } else {
    lhs += rhs;
  }
}

}  // namespace

DbStats& operator+=(DbStats& lhs, const DbStats& rhs) {
  // The amps' weights are read before user_bytes is summed, which also
  // keeps a self-add (x += x) right.
  const uint64_t lhs_user = lhs.user_bytes;
  const uint64_t rhs_user = rhs.user_bytes;
  ForEachDbStat(
      [&](const StatInfo& info, auto& l, const auto& r) {
        Merge(info.merge, l, r, lhs_user, rhs_user);
      },
      lhs, rhs);
  return lhs;
}

}  // namespace iamdb
