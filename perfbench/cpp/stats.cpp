#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

double Samples::sum_s() const {
  double total = 0.0;
  for (const double ns : ns_) total += ns;
  return total / 1e9;
}

void Samples::append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
}

double sum_of_medians_s(const AppSamples& per_app) {
  double total = 0.0;
  for (const auto& [app, samples] : per_app) total += samples.quantile_s(0.5);
  return total;
}

}  // namespace perfbench
