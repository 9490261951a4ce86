#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// Index of the nearest-rank percentile in a sorted sample of size n > 0.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t index = RankIndex(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, q);
}

bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench
