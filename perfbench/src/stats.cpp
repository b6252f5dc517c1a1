#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

OrderStat at_rank(std::vector<double>& sorted, std::size_t rank) {
  OrderStat s;
  s.count = sorted.size();
  s.rank = rank;
  s.value = sorted[rank - 1];
  s.beyond = s.count - rank;
  s.percentile = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(s.count);
  return s;
}

}  // namespace

OrderStat percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  OrderStat s = at_rank(samples, rank);
  s.percentile = p;
  return s;
}

OrderStat tail(std::vector<double> samples, std::size_t min_beyond) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = samples.size() > min_beyond
                               ? samples.size() - min_beyond
                               : samples.size();
  return at_rank(samples, rank);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0).value;
}

}  // namespace perfbench
