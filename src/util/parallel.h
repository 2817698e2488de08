// Deterministic data-parallel scaffolding for the day-analysis stages.
// Work is partitioned into contiguous ranges whose boundaries depend only
// on (n, n_threads) — never on scheduling — so any computation that writes
// results into per-range (or per-index) slots is bit-identical for every
// thread count, the contract the whole parallel engine is built on. The
// fan-out itself runs on util::Executor (util/executor.h).
#pragma once

#include <algorithm>
#include <cstddef>

namespace eid::util {

namespace detail {

/// The one source of truth for the partition of [0, n) into contiguous
/// ranges: both the fan-out and range_count derive from it, so per-range
/// slot arrays sized with range_count can never be out-of-sync with the
/// range indices the fan-out writes.
struct RangePartition {
  std::size_t chunk = 0;   ///< items per range (last may be short)
  std::size_t ranges = 0;  ///< number of non-empty ranges
};

inline RangePartition partition_ranges(std::size_t n, std::size_t n_threads) {
  if (n == 0) return {0, 0};
  const std::size_t workers = std::min(std::max<std::size_t>(n_threads, 1), n);
  const std::size_t chunk = (n + workers - 1) / workers;
  return {chunk, (n + chunk - 1) / chunk};
}

}  // namespace detail

/// Number of ranges a fan-out of (n, n_threads) invokes — size per-range
/// result slots with this before fanning out.
inline std::size_t range_count(std::size_t n, std::size_t n_threads) {
  return detail::partition_ranges(n, n_threads).ranges;
}

/// Run fn(range_index, begin, end) over every range of the (n, n_threads)
/// partition on the calling thread, in ascending range order — the
/// sequential form of a fan-out, with identical ranges.
template <typename Fn>
void for_each_range(std::size_t n, std::size_t n_threads, Fn&& fn) {
  const auto [chunk, ranges] = detail::partition_ranges(n, n_threads);
  for (std::size_t w = 0; w < ranges; ++w) {
    const std::size_t begin = w * chunk;
    fn(w, begin, std::min(begin + chunk, n));
  }
}

}  // namespace eid::util
