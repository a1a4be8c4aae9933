// Per-MeasurementSet basis-column cache, structure-of-arrays.
//
// Every hypothesis scoring step needs the column of a term's basis values
// over all coordinates of the data set — for the full-fit design matrix,
// for each leave-one-out fold, and for the left-out prediction. Without a
// cache the same `Term::evaluate_basis` column is recomputed
// O(pool x folds x search rounds) times per fit; with it, each distinct
// basis is evaluated exactly once and folds merely index into the column.
//
// Construction is layered bottom-up in SoA form: one fused log2 table per
// parameter (log2_clamped of every coordinate, computed once), factor
// columns evaluated against those tables and shared across every term that
// contains the factor, and term columns formed as ordered products of
// factor columns. Caching changes nothing numerically: each factor value is
// the very double `Factor::evaluate` returns, multiplied in the same order
// as `Term::evaluate_basis`.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/measurement.hpp"
#include "model/model.hpp"

namespace exareq::model {

/// Thread-safe memoized basis columns over one MeasurementSet. The set must
/// outlive the cache.
class TermCache {
 public:
  explicit TermCache(const MeasurementSet& data);

  /// Basis values of `term` at every coordinate of the data set, computed
  /// on first use as the ordered product of the term's factor columns. The
  /// returned reference stays valid for the cache's lifetime (entries are
  /// never evicted), and two terms get the same column exactly when they
  /// have the same structure (factors, in order; coefficients ignored), so
  /// the fit engine keys its score memo by column identity.
  const std::vector<double>& column(const Term& term);

  /// Basis values of a single factor over the data — the SoA building
  /// block; a factor shared by many terms is evaluated exactly once.
  const std::vector<double>& factor_column(const Factor& factor);

  /// Fused log2_clamped table of one parameter's coordinates.
  const std::vector<double>& log2_table(std::size_t parameter) const;

  /// Hit/miss counters of term-column lookups (basis_columns_* in
  /// EngineStats); factor-column reuse is an implementation detail below
  /// them and is not counted.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  const std::vector<double>& factor_column_locked(const Factor& factor);

  const MeasurementSet* data_;
  /// log2_tables_[l][r] = log2_clamped(coordinate(r)[l]).
  std::vector<std::vector<double>> log2_tables_;
  mutable std::mutex mutex_;
  // unique_ptr keeps returned references stable across rehashes.
  std::unordered_map<std::string, std::unique_ptr<std::vector<double>>> columns_;
  std::unordered_map<std::string, std::unique_ptr<std::vector<double>>>
      factor_columns_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace exareq::model
