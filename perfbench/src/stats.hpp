#pragma once

// Summary statistics for the end-to-end benchmark.
//
// Timings are reported as a median plus the highest percentile that has at
// least kMinBeyond samples beyond it, together with the sample count, so a
// tail figure is never quoted from a handful of observations.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// The percentile ladder a summary may climb, lowest first.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// 1-based nearest rank of percentile `p` among `n` samples.  The epsilon
/// keeps decimal percentiles such as 99.9 from rounding a whole rank up.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-7));
  return std::min(std::max<std::size_t>(rank, 1), n);
}

/// Samples strictly beyond percentile `p` of `n` samples (nearest-rank).
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest ladder percentile with at least kMinBeyond samples beyond
/// it, or nullopt when even the median lacks them.
[[nodiscard]] inline std::optional<double> highest_supported_percentile(
    std::size_t n) {
  std::optional<double> best;
  for (const double p : kPercentileLadder) {
    if (samples_beyond(n, p) >= kMinBeyond) best = p;
  }
  return best;
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
template <typename T>
[[nodiscard]] T percentile_sorted(const std::vector<T>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Median of `values` (mean of the middle pair for even counts).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median plus the highest supported tail percentile of one timing.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  std::optional<double> tail_percentile;  ///< nullopt: too few samples
  double tail_value = 0.0;

  /// "median=… p99=… (n=…)" for the human-readable report.
  [[nodiscard]] std::string describe(const std::string& unit) const;
};

[[nodiscard]] Summary summarize(std::vector<double> values);

}  // namespace perfbench
