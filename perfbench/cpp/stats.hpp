// Raw-sample statistics for the benchmark. Every latency quantile the
// benchmark reports comes from its own nanosecond samples through these
// helpers — never from obs::LatencyHistogram, whose power-of-two buckets
// cannot resolve a regression smaller than 2x.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds elapsed since `start`.
inline std::int64_t elapsed_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Linearly interpolated q-quantile (q in [0, 1]) of `values` — the
/// "inclusive" definition (numpy's default): the minimum at q = 0, the
/// maximum at q = 1, and the middle element or mean of the middle pair at
/// q = 0.5. Returns 0 for an empty sample. Takes a copy so callers keep
/// their order.
double quantile(std::vector<double> values, double q);

/// A growing set of nanosecond samples with millisecond/microsecond views.
class Samples {
 public:
  void add_ns(std::int64_t ns) { ns_.push_back(static_cast<double>(ns)); }
  void add_since(Clock::time_point start) { add_ns(elapsed_ns(start)); }

  std::size_t count() const { return ns_.size(); }
  bool empty() const { return ns_.empty(); }
  const std::vector<double>& ns() const { return ns_; }

  double quantile_ms(double q) const { return quantile(ns_, q) / 1e6; }
  double quantile_us(double q) const { return quantile(ns_, q) / 1e3; }
  double quantile_s(double q) const { return quantile(ns_, q) / 1e9; }
  double sum_s() const;

  void append(const Samples& other);

 private:
  std::vector<double> ns_;
};

/// Timing samples per app, by name.
using AppSamples = std::map<std::string, Samples>;

/// The median pass time estimated per app: the sum of each app's median.
/// A burst of host interference that slows one app in one pass then moves
/// one of that app's samples instead of the whole pass.
double sum_of_medians_s(const AppSamples& per_app);

}  // namespace perfbench
