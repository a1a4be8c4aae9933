// OnlineStats: the online service's counters as plain values.
//
// The header is self-contained (no library to link), so the sharded server
// can sum its shards' stats into one `status` line and one `--status`
// table without the serve library depending on the online service (which
// depends on serve).
#pragma once

#include <algorithm>
#include <cstdint>

namespace exareq::online {

/// Plain-value snapshot of one OnlineService's counters.
struct OnlineStats {
  std::uint64_t batches_accepted = 0;
  std::uint64_t batches_rejected = 0;  ///< validation or buffer-bound errors
  std::uint64_t rows_ingested = 0;
  std::uint64_t refits = 0;          ///< published new versions
  std::uint64_t refit_failures = 0;  ///< fit threw; current version kept
  std::uint64_t rollbacks = 0;       ///< refits the quality guard rejected
  std::uint64_t rows_pending = 0;    ///< staged, not yet refitted
  double staleness_seconds = 0.0;    ///< oldest pending row, worst key
  std::uint64_t last_version = 0;    ///< most recently published version id

  /// Folds another service's snapshot in: counters add, while staleness
  /// and the last version take the maximum (the worst key, the newest id).
  void merge(const OnlineStats& other) {
    batches_accepted += other.batches_accepted;
    batches_rejected += other.batches_rejected;
    rows_ingested += other.rows_ingested;
    refits += other.refits;
    refit_failures += other.refit_failures;
    rollbacks += other.rollbacks;
    rows_pending += other.rows_pending;
    staleness_seconds = std::max(staleness_seconds, other.staleness_seconds);
    last_version = std::max(last_version, other.last_version);
  }
};

}  // namespace exareq::online
