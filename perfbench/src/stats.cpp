#include "stats.hpp"

#include <cstdio>

namespace perfbench {

std::string Summary::describe(const std::string& unit) const {
  char buf[160];
  if (tail_percentile) {
    std::snprintf(buf, sizeof buf, "median=%.6g %s p%g=%.6g %s (n=%zu)",
                  median, unit.c_str(), *tail_percentile, tail_value,
                  unit.c_str(), count);
  } else {
    std::snprintf(buf, sizeof buf,
                  "median=%.6g %s (n=%zu; no percentile has %zu samples "
                  "beyond it)",
                  median, unit.c_str(), count, kMinBeyond);
  }
  return buf;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = median(values);
  s.tail_percentile = highest_supported_percentile(values.size());
  if (s.tail_percentile) {
    s.tail_value = percentile_sorted(values, *s.tail_percentile);
  }
  return s;
}

}  // namespace perfbench
