// stats.hpp — order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Fewest samples a reported tail percentile must have beyond it.
inline constexpr std::size_t tail_samples_beyond = 10;

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, ...
/// that has at least `tail_samples_beyond` of `n` samples beyond it;
/// 0 when not even the median qualifies.
[[nodiscard]] double tail_percentile(std::size_t n);

/// True when `n` samples support reporting percentile `pct`.
[[nodiscard]] bool supports_percentile(std::size_t n, double pct);

/// Percentile `pct` (0-100) of `v` by the nearest-rank rule; sorts `v`.
/// 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double>& v, double pct);

/// Median of `v` (sorts it); 0 for an empty vector.
[[nodiscard]] double median(std::vector<double>& v);

/// Seconds on the monotonic clock.
[[nodiscard]] double now_s();
/// Nanoseconds on the monotonic clock.
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
