// Observability for the serving subsystem (the EngineStats of the query
// path): every layer — admission queue, result cache, model registry —
// exports counters that are merged into one MetricsSnapshot and rendered
// as the `exareq serve --status` report.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace exareq::serve {

/// Lock-free latency histogram over power-of-two microsecond buckets.
/// Lives in obs (shared with every other subsystem); the alias keeps the
/// serve-local spelling that predates the obs library.
using LatencyHistogram = obs::LatencyHistogram;

/// Plain-value snapshot of every serving counter, merged across layers.
struct MetricsSnapshot {
  // Request layer (admission queue + workers).
  std::uint64_t requests = 0;        ///< submitted, including shed ones
  std::uint64_t responses_ok = 0;    ///< "ok ..." responses
  std::uint64_t responses_error = 0; ///< "error ..." responses (excl. sheds)
  std::uint64_t sheds = 0;           ///< rejected at admission (queue full)
  std::uint64_t deadline_drops = 0;  ///< expired before a worker picked them up
  double p50_latency_us = 0.0;       ///< submit-to-response, executed requests
  double p99_latency_us = 0.0;
  double mean_latency_us = 0.0;      ///< exact mean (quantiles are bucketed)

  // Result-cache layer.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;

  // Registry layer.
  std::uint64_t registry_lookups = 0;
  std::uint64_t registry_hits = 0;       ///< answered from loaded models
  std::uint64_t fits_started = 0;        ///< fit-on-demand invocations
  std::uint64_t fits_completed = 0;
  std::uint64_t fit_failures = 0;
  std::uint64_t singleflight_waits = 0;  ///< misses that waited on another fit
  std::uint64_t in_flight_fits = 0;      ///< currently fitting
  std::uint64_t files_loaded = 0;
  std::uint64_t apps_loaded = 0;
  std::uint64_t hot_swaps = 0;  ///< publishes that replaced a live version

  /// Fraction of cache lookups answered from the cache (0 when none).
  double cache_hit_rate() const;
};

/// Thread-safe counters of the request layer; the cache and registry keep
/// their own and everything is merged by ShardedServer::metrics().
class Metrics {
 public:
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> responses_error{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<std::uint64_t> deadline_drops{0};
  LatencyHistogram latency;

  /// Copies the request-layer counters into `snapshot`.
  void merge_into(MetricsSnapshot& snapshot) const;
};

/// Multi-line status table (the `exareq serve --status` report).
std::string render_status_report(const MetricsSnapshot& snapshot);

/// One-line `key=value` form, the payload of a `status` protocol request.
std::string status_line(const MetricsSnapshot& snapshot);

}  // namespace exareq::serve
