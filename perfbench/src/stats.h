// Order statistics for the benchmark's reported timings.
//
// A timing is reported as its median and, where the sample supports it,
// its 99th percentile. Percentiles use the nearest-rank rule on integer
// basis points (no floating-point rank rounding), and a percentile is only
// reported when at least kMinTail samples lie strictly beyond it: a p99 of
// 200 samples is the second-largest sample, which says nothing about a tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr std::size_t kMinTail = 10;

/// Candidate tail percentiles in basis points, highest first.
inline constexpr std::uint32_t kTailPercentilesBp[] = {9990, 9900, 9500, 9000,
                                                       5000};

/// 1-based nearest rank of the `bp`-basis-point percentile of n samples:
/// ceil(bp * n / 10000), at least 1. Requires n >= 1 and bp <= 10000.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, std::uint32_t bp);

/// Samples strictly beyond the nearest-rank percentile: n - rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, std::uint32_t bp);

/// The highest candidate percentile (basis points) with at least kMinTail
/// samples beyond it; 0 when even the median has fewer.
[[nodiscard]] std::uint32_t tail_percentile_bp(std::size_t n);

/// True when a p99 of n samples has kMinTail samples beyond it (n >= 1000).
[[nodiscard]] bool p99_holds(std::size_t n);

/// Nearest-rank percentile of `values` (sorted in place). Empty -> 0.
[[nodiscard]] double percentile(std::vector<double>& values, std::uint32_t bp);

/// Median of `values` (sorted in place): the mean of the two middle samples
/// for even n. Empty -> 0.
[[nodiscard]] double median(std::vector<double>& values);

}  // namespace perfbench
