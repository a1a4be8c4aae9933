// Empirical model fitting (the Extra-P substitute's core).
//
// The fitter mirrors the paper's iterative procedure (Sec. II-C): starting
// from the constant hypothesis, candidate terms from a pool are added one
// at a time; each enlarged hypothesis is refit by (weighted) least squares
// and scored by leave-one-out cross-validation on relative errors; growth
// stops when no candidate improves the score significantly or the maximum
// number of terms is reached. Among near-equal candidates the structurally
// simplest wins, which keeps models interpretable.
#pragma once

#include <memory>
#include <vector>

#include "model/measurement.hpp"
#include "model/model.hpp"
#include "model/search_space.hpp"

namespace exareq {
class ThreadPool;
}

namespace exareq::model {

/// Tuning knobs of the fitting procedure.
struct FitOptions {
  /// Maximum number of non-constant terms in a hypothesis.
  std::size_t max_terms = 3;
  /// A term is only added if it shrinks the cross-validation score by at
  /// least this fraction (the paper's "no significant improvement" rule).
  /// Genuine terms on counter-precision data improve the score by 50-100%;
  /// terms chasing measurement noise rarely exceed ~30%, so the bar sits
  /// between the two.
  double improvement_threshold = 0.35;
  /// Hypothesis growth stops once the score falls below this bound — the
  /// model already explains the data to measurement precision, and further
  /// terms would chase sub-noise residuals. The default corresponds to a
  /// 0.05% relative error, well below the reproducibility of real hardware
  /// counters. Scores below 1e-8 (far under this bound) are reported as
  /// exactly 0: their digits measure rounding noise, and collapsing them
  /// makes selection among numerically-exact hypotheses a deterministic
  /// tie-break on complexity instead of a coin flip on last-ulp CV
  /// differences between the batched and scalar engines.
  double score_tolerance = 5e-4;
  /// Reject hypotheses whose fitted term coefficients are negative;
  /// requirement metrics are counts and cannot shrink below zero.
  bool require_nonnegative = true;
  /// Score hypotheses on the batched engine: one retained QR per
  /// factorization with every leave-one-out fold obtained by a rank-one
  /// downdate, and candidate generations extending a shared selected-prefix
  /// factorization — O(candidates) solves instead of
  /// O(candidates x folds). False falls back to the per-fold scalar refits
  /// (the differential-oracle reference). The batched path solves the same
  /// equations along an algebraically equivalent route, so scores differ
  /// only by rounding: about 1e-12 relative on well-conditioned data, up to
  /// 1e-4 on ill-conditioned five-point grids. Both modes select the same
  /// models except where a coefficient that is zero in exact arithmetic
  /// changes sign between a refit and a downdate (see docs/MODELING.md,
  /// section 8).
  bool batched_cv = true;
  /// Number of first-term candidates the search branches on. PMNF grids
  /// contain near-degenerate shapes (x^1.125 vs x * log2(x) over narrow
  /// ranges); a purely greedy first pick can trap the search in a mixture
  /// that fits well but extrapolates badly. Branching on the best few first
  /// terms and keeping the best final hypothesis resolves this.
  std::size_t beam_width = 6;
  /// Threads used by the search engine: candidate scoring, replacement
  /// moves, and (one level up) per-metric fits run on a shared pool of this
  /// size. 1 runs everything inline on the caller; 0 means hardware
  /// concurrency. Every thread count selects bit-identical models: tasks
  /// are pure and reduced serially in index order.
  std::size_t threads = 1;
};

/// Observability counters of the model-search engine, aggregated per fit
/// and summable across metrics (engine-stats layer).
struct EngineStats {
  std::size_t hypotheses_scored = 0;  ///< CV scorings requested (incl. memo hits)
  std::size_t score_cache_hits = 0;   ///< served from the hypothesis-score memo
  /// Least-squares factorizations built from scratch. Candidate extensions
  /// that reuse a retained prefix factorization are not solves — they cost
  /// one Householder column, not a refactorization — and are counted in
  /// qr_extensions instead.
  std::size_t cv_solves = 0;
  std::size_t qr_extensions = 0;      ///< single-column prefix extensions (batched mode)
  std::size_t downdates = 0;          ///< rank-one LOO downdates (batched mode)
  std::size_t basis_column_hits = 0;  ///< basis columns served from the cache
  std::size_t basis_columns_built = 0;  ///< distinct basis columns evaluated
  double wall_seconds = 0.0;          ///< wall time of the fit
  std::size_t threads = 1;            ///< resolved engine thread count

  /// Fraction of score + column lookups answered from a cache.
  double cache_hit_rate() const;

  EngineStats& operator+=(const EngineStats& other);
};

/// Quality summary of a fitted model over its training data.
struct FitQuality {
  double cv_score = 0.0;  ///< leave-one-out mean relative error
  double smape = 0.0;     ///< symmetric MAPE of the final fit
  double r_squared = 0.0; ///< R^2 of the final fit (1 if constant data)
  std::vector<double> relative_errors;  ///< per measurement point
};

/// A fitted model together with its quality metrics and the engine-stats
/// counters accumulated while searching for it.
struct FitResult {
  Model model;
  FitQuality quality;
  EngineStats stats;
};

/// Memoizing scoring engine over one MeasurementSet: owns the basis-column
/// cache, a hypothesis-score memo, and the observability counters. All
/// scoring entry points are thread-safe; the free fitting functions create
/// one engine per fit, and `fit_multi_parameter` shares per-slice engines
/// across the factor-ranking loop.
class FitEngine {
 public:
  /// The data set must outlive the engine. Resolves `options.threads`
  /// (0 = hardware concurrency) and attaches the shared pool when > 1.
  FitEngine(const MeasurementSet& data, const FitOptions& options);
  ~FitEngine();

  FitEngine(const FitEngine&) = delete;
  FitEngine& operator=(const FitEngine&) = delete;

  const MeasurementSet& data() const;
  const FitOptions& options() const;

  /// Resolved thread count; the pool itself (null when serial).
  std::size_t thread_count() const;
  exareq::ThreadPool* pool() const;

  /// Memoized leave-one-out CV score of a basis (+inf when inadmissible).
  double cv_score(const std::vector<Term>& basis);

  /// Scores one hypothesis generation as a block: the CV score of
  /// `selected` + extensions[j] for every j, in extension order (+inf for
  /// inadmissible candidates). In batched mode the shared selected-prefix
  /// is QR-factored once and each candidate appends a single column to a
  /// copy — numerically identical to scoring each trial through cv_score,
  /// which is the per-candidate fallback in scalar mode. Memoized and
  /// thread-safe like cv_score; candidates run on the engine's pool.
  std::vector<double> score_extensions(const std::vector<Term>& selected,
                                       const std::vector<Term>& extensions);

  /// Snapshot of the counters (wall_seconds stays 0; the fit drivers stamp
  /// their own duration into the results they return).
  EngineStats stats() const;

  /// Opaque implementation; defined in fitter.cpp where the search helpers
  /// operate on it directly.
  struct Impl;

 private:
  friend FitResult fit_with_pool_engine(FitEngine& engine,
                                        const std::vector<Term>& pool);
  std::unique_ptr<Impl> impl_;
};

/// Fits the best hypothesis built from `pool` (terms whose coefficients are
/// ignored; only the basis matters) to `data`. The pool may reference any
/// of data's parameters. Throws InvalidArgument on an empty data set.
FitResult fit_with_pool(const MeasurementSet& data, const std::vector<Term>& pool,
                        const FitOptions& options = {});

/// Same search, but on a caller-provided engine so several fits over the
/// same data can share its caches and counters.
FitResult fit_with_pool_engine(FitEngine& engine, const std::vector<Term>& pool);

/// Single-parameter fit over the full search space (paper Eq. 1).
FitResult fit_single_parameter(const MeasurementSet& data,
                               const SearchSpace& space = SearchSpace::paper_default(),
                               const FitOptions& options = {});

/// Leave-one-out cross-validation score of a fixed basis (lower is better;
/// +inf when the hypothesis is inadmissible for this data).
double cross_validation_score(const MeasurementSet& data,
                              const std::vector<Term>& basis,
                              const FitOptions& options = {});

}  // namespace exareq::model
