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

/// Every leave-one-out fold of a solved RetainedQr, written by
/// RetainedQr::leave_one_out_folds. The caller owns and reuses it: a call
/// resizes the buffers, which allocates only when they must grow.
struct LeaveOneOutFolds {
  /// Coefficient-major: coefficients[c * rows + row] is coefficient c
  /// (original scaling) of the fit without `row`, so one coefficient's
  /// folds are contiguous.
  std::vector<double> coefficients;
  /// press[row] = b_row - a_row . x_loo: the left-out row's prediction
  /// error under its fold's fit (the PRESS residual).
  std::vector<double> press;
  /// Non-zero where the fold's downdate is numerically singular: the row's
  /// leverage is within tolerance of 1, so the downdate divides by a
  /// vanishing 1 - h and that fold's coefficients and PRESS residual are
  /// meaningless. The fold itself may be fine — the other rows, refit and
  /// re-equilibrated, can still determine every coefficient — so a caller
  /// that needs the fold refits it (the fitter does).
  std::vector<unsigned char> singular;
};

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
/// error against 4e-6).
///
/// Storage is flat: the equilibrated design and the reflectors are
/// column-major with a stride of rows(), R is packed by column. restart()
/// and copy assignment reuse that storage, so a factorization kept in a
/// workspace allocates only while its capacity grows.
class RetainedQr {
 public:
  /// An empty factorization of zero rows; restart() it before use.
  RetainedQr() = default;

  /// Starts an empty factorization of a `rows`-row system against `rhs`.
  RetainedQr(std::size_t rows, std::span<const double> rhs);

  /// Discards every column and starts over as an empty factorization of a
  /// `rows`-row system against `rhs`, keeping the storage.
  void restart(std::size_t rows, std::span<const double> rhs);

  /// Appends one design column: equilibrates it, applies the retained
  /// reflectors in order (exactly the reflections a right-looking
  /// factorization of the whole design would apply), and reduces the
  /// trailing part with one new reflector.
  /// O(rows x cols()). Requires cols() < rows() and a column of rows()
  /// values; no-op once the factorization is rank-deficient.
  void append_column(std::span<const double> column);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool rank_deficient() const { return rank_deficient_; }

  /// Solves R x = Q^T b and caches the residuals; call after the last
  /// append. Requires a full-rank factorization with cols() >= 1.
  void solve();

  /// Coefficients in the original column scaling (call solve() first).
  const std::vector<double>& solution() const;

  /// Every leave-one-out fit at once: for each row, the coefficients of
  /// the fit with that row removed, by a Sherman-Morrison rank-one
  /// downdate of the factored system — O(cols^2) per row instead of a
  /// refit — plus its PRESS residual e / (1 - h) and whether that downdate
  /// is numerically singular (the row's leverage is within tolerance of 1;
  /// see LeaveOneOutFolds::singular). Each fold runs the same operations
  /// in the same order as a downdate of that row alone; the loops run
  /// across rows, so the folds vectorize. Requires solve() and
  /// rows() > cols().
  ///
  /// Prefer the PRESS residual over re-deriving the left-out error from
  /// the coefficients: that form is exact in the factored quantities,
  /// while the coefficient reconstruction cancels catastrophically on
  /// near-exact fits.
  void leave_one_out_folds(LeaveOneOutFolds& folds) const;

 private:
  /// R(i, c) for i <= c, with alpha on the diagonal (what the downdates
  /// use).
  double r(std::size_t i, std::size_t c) const {
    return r_packed_[c * (c + 1) / 2 + i];
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool rank_deficient_ = false;
  bool solved_ = false;
  std::vector<double> qtb_;  ///< Q^T b, updated per reflector
  std::vector<double> column_scale_;
  /// Equilibrated design: column c at [c * rows, (c + 1) * rows) (the
  /// downdates read it).
  std::vector<double> equilibrated_;
  /// Reflector k spans rows [k, rows): its rows - k entries start at
  /// k * rows.
  std::vector<double> reflectors_;
  std::vector<double> reflector_norm_sq_;
  /// R packed by column: column c's c + 1 entries start at c (c + 1) / 2.
  std::vector<double> r_packed_;
  /// R's diagonal as the reflection computes it (what solve() uses).
  std::vector<double> reflected_diagonal_;
  std::vector<double> work_;             ///< append_column's column in work
  std::vector<double> scaled_solution_;  ///< in equilibrated scaling
  std::vector<double> solution_;         ///< in original scaling
  std::vector<double> residuals_;        ///< b - A~ x~ per row
};

}  // namespace exareq::model
