// Central metric registry: named counters, gauges, and power-of-two
// latency histograms shared by every subsystem, with text and JSON
// snapshot renderers (`exareq ... --metrics[=json]`).
//
// Naming scheme: "<subsystem>.<noun>[_<unit>]" — e.g. "model.cv_solves",
// "campaign.grid_points", "online.rows_ingested". Names sort the rendered
// snapshot, so related metrics group naturally.
//
// The registry hands out stable references: instruments are never removed,
// so hot paths resolve a name once and keep the reference. Recording on an
// instrument is a relaxed atomic operation; resolving a name takes the
// registry mutex and belongs outside loops.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace exareq::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (queue depths, thread counts, ratios).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free latency histogram over power-of-two microsecond buckets
/// (generalized out of the serving subsystem). `record` is wait-free;
/// quantiles are approximate (upper bucket bound), which is all a p99
/// health indicator needs. sum()/mean_us() track the exact total of the
/// recorded (integer-truncated) microsecond values, so a mean can be
/// reported alongside the bucketed quantiles.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;  ///< covers up to ~2^39 us

  void record(double microseconds);

  /// Approximate q-quantile in microseconds (0 when nothing was recorded).
  double quantile_us(double q) const;

  std::uint64_t count() const;

  /// Sum of recorded microseconds (exact over the truncated samples).
  double sum() const;

  /// sum() / count(), 0 when nothing was recorded.
  double mean_us() const;

  /// Adds `other`'s buckets and sum into this histogram. Lets a subsystem
  /// record into its own histogram on the hot path and publish into the
  /// registry once at shutdown.
  void merge_from(const LatencyHistogram& other);

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Process-global registry of named instruments.
class MetricRegistry {
 public:
  static MetricRegistry& instance();

  /// Resolve-or-create by name. Throws exareq::InvalidArgument when the
  /// name is already registered as a different instrument kind. The
  /// returned reference stays valid for the process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Zeroes every instrument (registrations and references survive).
  void reset();

  /// "name value" lines sorted by name; histograms render count, mean,
  /// p50, and p99.
  std::string render_text() const;

  /// One JSON object keyed by metric name; histograms nest their fields.
  std::string render_json() const;

 private:
  MetricRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace exareq::obs
