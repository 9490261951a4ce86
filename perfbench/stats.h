// Order statistics used by the benchmark's per-run metrics. Functions that
// order their samples take them by value, so callers may pass unsorted
// vectors. Spreads across runs are computed by compare.py.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q * n
/// samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank percentile q.
size_t SamplesBeyond(size_t n, double q);

/// True when at least 10 samples lie beyond percentile q, the minimum the
/// benchmark requires before it reports that percentile.
bool PercentileSupported(size_t n, double q);

/// Middle value (mean of the two middle values for an even count).
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
