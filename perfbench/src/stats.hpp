// Exact order statistics over raw samples.  Every percentile the benchmark
// prints is one of the samples themselves (nearest rank), never a value
// read off a histogram bucket, and it travels with its sample count.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile as an order statistic: `value` is the `rank`-th smallest
/// of `count` samples and `beyond` samples are strictly above that rank.
struct OrderStat {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t rank = 0;  ///< 1-based.
  std::size_t count = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the ceil(p/100 · N)-th smallest sample
/// (the smallest sample for p = 0).  An empty sample gives count 0 and
/// value 0, here and in tail().
OrderStat percentile(std::vector<double> samples, double p);

/// The highest percentile that still has at least `min_beyond` samples
/// above it: the (N − min_beyond)-th smallest sample.  With fewer than
/// min_beyond + 1 samples it falls back to the maximum (beyond = 0).
OrderStat tail(std::vector<double> samples, std::size_t min_beyond = 10);

double mean(const std::vector<double>& samples);

/// Lower median (nearest-rank p50).
double median(std::vector<double> samples);

}  // namespace perfbench
