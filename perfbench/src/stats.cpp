#include "stats.h"

#include <algorithm>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, std::uint32_t bp) {
  const std::uint64_t scaled = static_cast<std::uint64_t>(n) * bp;
  const std::size_t rank = static_cast<std::size_t>((scaled + 9999) / 10000);
  return std::max<std::size_t>(rank, 1);
}

std::size_t samples_beyond(std::size_t n, std::uint32_t bp) {
  return n == 0 ? 0 : n - nearest_rank(n, bp);
}

std::uint32_t tail_percentile_bp(std::size_t n) {
  for (const auto bp : kTailPercentilesBp) {
    if (samples_beyond(n, bp) >= kMinTail) return bp;
  }
  return 0;
}

bool p99_holds(std::size_t n) { return tail_percentile_bp(n) >= 9900; }

double percentile(std::vector<double>& values, std::uint32_t bp) {
  if (values.empty()) return 0.0;
  const std::size_t k = nearest_rank(values.size(), bp) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
