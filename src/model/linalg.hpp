// The model fitter's least-squares kernel.
//
// The fitter solves least-squares problems with at most a handful of
// columns (one per model term) and a few dozen rows (one per measurement),
// so a straightforward Householder QR is both fast and numerically robust;
// basis columns can differ by many orders of magnitude (n^3 vs log n), so
// columns are equilibrated before factorization. Every fit, fold and
// candidate extension of the fitter goes through RetainedQr.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace exareq::model {

/// Incremental Householder least-squares factorization. Columns are
/// appended one at a time and reduced against the retained reflectors, so
/// the batched fitter can factor a hypothesis generation's shared
/// selected-prefix once, extend a copy per candidate with a single
/// Householder update, and obtain every leave-one-out fit from the solved
/// system by a rank-one downdate instead of a refit. A plain fit appends
/// all its columns and calls solve().
///
/// Every column is equilibrated to unit max-norm on entry and solutions
/// are reported in the original scaling; a column whose trailing norm
/// collapses below 1e-12 marks the factorization rank-deficient. The
/// reflectors, Q^T b and R above the diagonal are bit-identical to the
/// textbook right-looking Householder QR that reflects every trailing
/// column at each step, so nothing depends on whether the columns arrived
/// one at a time or all at once. R's diagonal is kept twice: solve()
/// divides by the entry the reflection computes, which makes every fit
/// bit-identical to that textbook QR; the downdates divide by the
/// reflector's exact target alpha = -+||x||, which keeps a fold whose
/// leverage is near 1 closer to a refit (on one such fold, 5e-8 relative
/// error against 4e-6). Storage is
/// structure-of-arrays (one contiguous vector per column / reflector),
/// which keeps the reflector sweeps and downdates on linear, vectorizable
/// loops.
class RetainedQr {
 public:
  /// Starts an empty factorization of a `rows`-row system against `rhs`.
  RetainedQr(std::size_t rows, std::span<const double> rhs);

  /// Appends one design column: equilibrates it, applies the retained
  /// reflectors in order (exactly the reflections a right-looking
  /// factorization of the whole design would apply), and reduces the
  /// trailing part with one new reflector.
  /// O(rows x cols()). Requires cols() < rows() and a column of rows()
  /// values; no-op once the factorization is rank-deficient.
  void append_column(std::span<const double> column);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return r_columns_.size(); }
  bool rank_deficient() const { return rank_deficient_; }

  /// Solves R x = Q^T b and caches the residuals; call after the last
  /// append. Requires a full-rank factorization with cols() >= 1.
  void solve();

  /// Coefficients in the original column scaling (call solve() first).
  const std::vector<double>& solution() const;

  /// Coefficients of the fit with row `row` removed (original scaling), by
  /// a Sherman-Morrison rank-one downdate of the factored system —
  /// O(cols^2) instead of a refit. Returns false when the downdated system
  /// is numerically singular: the row's leverage is within tolerance of 1,
  /// so removing it would drop the rank (the analogue of the per-fold
  /// rank-deficiency the scalar path detects). Requires solve() first.
  ///
  /// When `loo_residual` is non-null it receives the left-out row's
  /// prediction error under the downdated fit, b_row - a_row . x_loo, via
  /// the PRESS identity e / (1 - h). That form is exact in the factored
  /// quantities, so prefer it over re-deriving the error from the returned
  /// coefficients: the coefficient reconstruction cancels catastrophically
  /// on near-exact fits, PRESS does not.
  bool leave_one_out(std::size_t row, std::span<double> out,
                     double* loo_residual = nullptr) const;

 private:
  /// Householder reflector spanning rows [start, rows).
  struct Reflector {
    std::size_t start = 0;
    double norm_sq = 0.0;
    std::vector<double> v;
  };

  std::size_t rows_ = 0;
  bool rank_deficient_ = false;
  bool solved_ = false;
  std::vector<double> qtb_;           ///< Q^T b, updated per reflector
  std::vector<double> column_scale_;
  /// Equilibrated design, one contiguous vector per column (needed by the
  /// downdate, which reads whole rows of the design).
  std::vector<std::vector<double>> equilibrated_;
  std::vector<Reflector> reflectors_;
  /// R by column: r_columns_[c][i] = R(i, c) for i <= c, with alpha on
  /// the diagonal (what the downdates use).
  std::vector<std::vector<double>> r_columns_;
  /// R's diagonal as the reflection computes it (what solve() uses).
  std::vector<double> reflected_diagonal_;
  std::vector<double> scaled_solution_;  ///< in equilibrated scaling
  std::vector<double> solution_;         ///< in original scaling
  std::vector<double> residuals_;        ///< b - A~ x~ per row
};

}  // namespace exareq::model
