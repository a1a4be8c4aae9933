#include "model/linalg.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace exareq::model {

RetainedQr::RetainedQr(std::size_t rows, std::span<const double> rhs) {
  restart(rows, rhs);
}

void RetainedQr::restart(std::size_t rows, std::span<const double> rhs) {
  exareq::require(rhs.size() == rows, "RetainedQr: rhs size mismatch");
  exareq::require(rows >= 1, "RetainedQr: need at least one row");
  rows_ = rows;
  cols_ = 0;
  rank_deficient_ = false;
  solved_ = false;
  qtb_.assign(rhs.begin(), rhs.end());
  column_scale_.clear();
  equilibrated_.clear();
  reflectors_.clear();
  reflector_norm_sq_.clear();
  r_packed_.clear();
  reflected_diagonal_.clear();
}

void RetainedQr::append_column(std::span<const double> column) {
  exareq::require(column.size() == rows_,
                  "RetainedQr::append_column: column size mismatch");
  exareq::require(!solved_, "RetainedQr::append_column: already solved");
  if (rank_deficient_) return;
  const std::size_t k = cols_;
  const std::size_t m = rows_;
  exareq::require(k < m, "RetainedQr::append_column: more columns than rows");

  // Column equilibration to unit max-norm.
  double max_abs = 0.0;
  for (double value : column) max_abs = std::max(max_abs, std::fabs(value));
  const double scale = max_abs > 0.0 ? max_abs : 1.0;
  column_scale_.push_back(scale);
  equilibrated_.resize((k + 1) * m);
  double* const scaled = equilibrated_.data() + k * m;
  for (std::size_t i = 0; i < m; ++i) {
    scaled[i] = max_abs > 0.0 ? column[i] / scale : column[i];
  }

  // Reduce against the retained reflectors, oldest first — the same
  // reflections, in the same order, that a full right-looking factorization
  // would have applied to this column.
  work_.assign(scaled, scaled + m);
  double* const work = work_.data();
  for (std::size_t j = 0; j < k; ++j) {
    const double* const v = reflectors_.data() + j * m;
    const std::size_t length = m - j;
    double dot = 0.0;
    for (std::size_t i = 0; i < length; ++i) dot += v[i] * work[j + i];
    const double factor = 2.0 * dot / reflector_norm_sq_[j];
    for (std::size_t i = 0; i < length; ++i) work[j + i] -= factor * v[i];
  }

  double norm = 0.0;
  for (std::size_t i = k; i < m; ++i) norm += work[i] * work[i];
  norm = std::sqrt(norm);
  ++cols_;
  r_packed_.insert(r_packed_.end(), work, work + k);
  if (norm < 1e-12) {
    // The column lies (numerically) in the span of its predecessors.
    rank_deficient_ = true;
    r_packed_.push_back(0.0);
    return;
  }

  const double alpha = work[k] >= 0.0 ? -norm : norm;
  reflectors_.resize((k + 1) * m);
  double* const v = reflectors_.data() + k * m;
  const std::size_t length = m - k;
  v[0] = work[k] - alpha;
  for (std::size_t i = 1; i < length; ++i) v[i] = work[k + i];
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < length; ++i) norm_sq += v[i] * v[i];
  reflector_norm_sq_.push_back(norm_sq);

  double dot = 0.0;
  for (std::size_t i = 0; i < length; ++i) dot += v[i] * qtb_[k + i];
  const double factor = 2.0 * dot / norm_sq;
  for (std::size_t i = 0; i < length; ++i) qtb_[k + i] -= factor * v[i];

  // The column's own k-th entry after its reflection: alpha up to rounding,
  // computed the way a right-looking factorization computes it.
  dot = 0.0;
  for (std::size_t i = 0; i < length; ++i) dot += v[i] * work[k + i];
  const double self_factor = 2.0 * dot / norm_sq;
  reflected_diagonal_.push_back(work[k] - self_factor * v[0]);
  r_packed_.push_back(alpha);
}

void RetainedQr::solve() {
  exareq::require(!rank_deficient_, "RetainedQr::solve: rank-deficient system");
  const std::size_t n = cols_;
  const std::size_t m = rows_;
  exareq::require(n >= 1 && n <= m, "RetainedQr::solve: bad shape");

  // Back substitution on R x = Q^T b.
  scaled_solution_.assign(n, 0.0);
  for (std::size_t ki = n; ki-- > 0;) {
    double acc = qtb_[ki];
    for (std::size_t c = ki + 1; c < n; ++c) {
      acc -= r(ki, c) * scaled_solution_[c];
    }
    scaled_solution_[ki] = acc / reflected_diagonal_[ki];
  }
  solution_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    solution_[c] = scaled_solution_[c] / column_scale_[c];
  }
  // Residuals of the equilibrated system, which the downdate needs: the
  // Q-side form Q [0; (Q^T b)_{n..m}] instead of b - A x. The direct form
  // cancels catastrophically on near-exact fits (error ~ eps * kappa, which
  // the downdate then amplifies by 1/(1-h)); the orthogonal form is
  // backward stable with no kappa in sight.
  residuals_ = qtb_;
  for (std::size_t c = 0; c < n; ++c) residuals_[c] = 0.0;
  for (std::size_t k = n; k-- > 0;) {
    const double* const v = reflectors_.data() + k * m;
    const std::size_t length = m - k;
    double dot = 0.0;
    for (std::size_t i = 0; i < length; ++i) dot += v[i] * residuals_[k + i];
    const double factor = 2.0 * dot / reflector_norm_sq_[k];
    for (std::size_t i = 0; i < length; ++i) residuals_[k + i] -= factor * v[i];
  }
  solved_ = true;
}

const std::vector<double>& RetainedQr::solution() const {
  exareq::require(solved_, "RetainedQr::solution: call solve() first");
  return solution_;
}

void RetainedQr::leave_one_out_folds(LeaveOneOutFolds& folds) const {
  exareq::require(solved_,
                  "RetainedQr::leave_one_out_folds: call solve() first");
  const std::size_t n = cols_;
  const std::size_t m = rows_;
  exareq::require(m > n, "RetainedQr::leave_one_out_folds: square system");
  folds.coefficients.resize(n * m);
  folds.press.resize(m);
  folds.singular.resize(m);

  // Sherman-Morrison downdate of the normal equations R^T R x = A^T b with
  // row a removed: with R^T u = a, leverage h = ||u||^2, R z = u, and
  // residual e = b_row - a . x, the leave-one-out solution is
  //   x_loo = x - z * e / (1 - h).
  // Every row's fold runs at once, lane by lane: u, then z in place of u,
  // live in the coefficient table, and h in the PRESS buffer.
  double* const table = folds.coefficients.data();
  double* const leverage = folds.press.data();
  for (std::size_t i = 0; i < n; ++i) {
    double* const u = table + i * m;
    const double* const a = equilibrated_.data() + i * m;
    for (std::size_t row = 0; row < m; ++row) u[row] = a[row];
    for (std::size_t j = 0; j < i; ++j) {
      const double rji = r(j, i);
      const double* const uj = table + j * m;
      for (std::size_t row = 0; row < m; ++row) u[row] -= rji * uj[row];
    }
    const double diagonal = r(i, i);
    for (std::size_t row = 0; row < m; ++row) u[row] /= diagonal;
  }
  for (std::size_t row = 0; row < m; ++row) leverage[row] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* const u = table + i * m;
    for (std::size_t row = 0; row < m; ++row) leverage[row] += u[row] * u[row];
  }
  // Leverage within 1e-12 of 1 leaves the downdate dividing by a vanishing
  // 1 - h, so its fold is flagged. That need not mean the remaining rows
  // lose rank: refit and re-equilibrated, they may still determine the fit.
  for (std::size_t row = 0; row < m; ++row) {
    folds.singular[row] = 1.0 - leverage[row] < 1e-12 ? 1 : 0;
  }

  for (std::size_t ki = n; ki-- > 0;) {
    double* const z = table + ki * m;
    for (std::size_t c = ki + 1; c < n; ++c) {
      const double rkc = r(ki, c);
      const double* const zc = table + c * m;
      for (std::size_t row = 0; row < m; ++row) z[row] -= rkc * zc[row];
    }
    const double diagonal = r(ki, ki);
    for (std::size_t row = 0; row < m; ++row) z[row] /= diagonal;
  }
  // PRESS: b_row - a_row . x_loo = e_row / (1 - h), the gain of the
  // downdate; it replaces the leverage in place.
  double* const press = folds.press.data();
  for (std::size_t row = 0; row < m; ++row) {
    press[row] = residuals_[row] / (1.0 - leverage[row]);
  }
  for (std::size_t c = 0; c < n; ++c) {
    double* const z = table + c * m;
    const double solution = scaled_solution_[c];
    const double scale = column_scale_[c];
    for (std::size_t row = 0; row < m; ++row) {
      z[row] = (solution - z[row] * press[row]) / scale;
    }
  }
}

}  // namespace exareq::model
