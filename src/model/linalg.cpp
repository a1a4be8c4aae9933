#include "model/linalg.hpp"

#include <cmath>

#include "support/error.hpp"

namespace exareq::model {

RetainedQr::RetainedQr(std::size_t rows, std::span<const double> rhs)
    : rows_(rows), qtb_(rhs.begin(), rhs.end()) {
  exareq::require(rhs.size() == rows, "RetainedQr: rhs size mismatch");
  exareq::require(rows >= 1, "RetainedQr: need at least one row");
}

void RetainedQr::append_column(std::span<const double> column) {
  exareq::require(column.size() == rows_,
                  "RetainedQr::append_column: column size mismatch");
  exareq::require(!solved_, "RetainedQr::append_column: already solved");
  if (rank_deficient_) return;
  const std::size_t k = r_columns_.size();
  exareq::require(k < rows_, "RetainedQr::append_column: more columns than rows");

  // Column equilibration to unit max-norm.
  double max_abs = 0.0;
  for (double value : column) max_abs = std::max(max_abs, std::fabs(value));
  const double scale = max_abs > 0.0 ? max_abs : 1.0;
  std::vector<double> scaled(column.begin(), column.end());
  if (max_abs > 0.0) {
    for (double& value : scaled) value /= scale;
  }
  column_scale_.push_back(scale);

  // Reduce against the retained reflectors, oldest first — the same
  // reflections, in the same order, that a full right-looking factorization
  // would have applied to this column.
  std::vector<double> work = scaled;
  for (const Reflector& reflector : reflectors_) {
    double dot = 0.0;
    for (std::size_t i = 0; i < reflector.v.size(); ++i) {
      dot += reflector.v[i] * work[reflector.start + i];
    }
    const double factor = 2.0 * dot / reflector.norm_sq;
    for (std::size_t i = 0; i < reflector.v.size(); ++i) {
      work[reflector.start + i] -= factor * reflector.v[i];
    }
  }
  equilibrated_.push_back(std::move(scaled));

  double norm = 0.0;
  for (std::size_t r = k; r < rows_; ++r) norm += work[r] * work[r];
  norm = std::sqrt(norm);
  std::vector<double> r_col(work.begin(),
                            work.begin() + static_cast<std::ptrdiff_t>(k));
  if (norm < 1e-12) {
    // The column lies (numerically) in the span of its predecessors.
    rank_deficient_ = true;
    r_col.push_back(0.0);
    r_columns_.push_back(std::move(r_col));
    return;
  }

  const double alpha = work[k] >= 0.0 ? -norm : norm;
  Reflector reflector;
  reflector.start = k;
  reflector.v.resize(rows_ - k);
  reflector.v[0] = work[k] - alpha;
  for (std::size_t r = k + 1; r < rows_; ++r) reflector.v[r - k] = work[r];
  for (double value : reflector.v) reflector.norm_sq += value * value;

  double dot = 0.0;
  for (std::size_t i = 0; i < reflector.v.size(); ++i) {
    dot += reflector.v[i] * qtb_[k + i];
  }
  const double factor = 2.0 * dot / reflector.norm_sq;
  for (std::size_t i = 0; i < reflector.v.size(); ++i) {
    qtb_[k + i] -= factor * reflector.v[i];
  }

  // The column's own k-th entry after its reflection: alpha up to rounding,
  // computed the way a right-looking factorization computes it.
  dot = 0.0;
  for (std::size_t i = 0; i < reflector.v.size(); ++i) {
    dot += reflector.v[i] * work[k + i];
  }
  const double self_factor = 2.0 * dot / reflector.norm_sq;
  reflected_diagonal_.push_back(work[k] - self_factor * reflector.v[0]);

  r_col.push_back(alpha);
  r_columns_.push_back(std::move(r_col));
  reflectors_.push_back(std::move(reflector));
}

void RetainedQr::solve() {
  exareq::require(!rank_deficient_, "RetainedQr::solve: rank-deficient system");
  const std::size_t n = cols();
  exareq::require(n >= 1 && n <= rows_, "RetainedQr::solve: bad shape");

  // Back substitution on R x = Q^T b.
  scaled_solution_.assign(n, 0.0);
  for (std::size_t ki = n; ki-- > 0;) {
    double acc = qtb_[ki];
    for (std::size_t c = ki + 1; c < n; ++c) {
      acc -= r_columns_[c][ki] * scaled_solution_[c];
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
  for (std::size_t k = reflectors_.size(); k-- > 0;) {
    const Reflector& reflector = reflectors_[k];
    double dot = 0.0;
    for (std::size_t i = 0; i < reflector.v.size(); ++i) {
      dot += reflector.v[i] * residuals_[reflector.start + i];
    }
    const double factor = 2.0 * dot / reflector.norm_sq;
    for (std::size_t i = 0; i < reflector.v.size(); ++i) {
      residuals_[reflector.start + i] -= factor * reflector.v[i];
    }
  }
  solved_ = true;
}

const std::vector<double>& RetainedQr::solution() const {
  exareq::require(solved_, "RetainedQr::solution: call solve() first");
  return solution_;
}

bool RetainedQr::leave_one_out(std::size_t row, std::span<double> out,
                               double* loo_residual) const {
  exareq::require(solved_, "RetainedQr::leave_one_out: call solve() first");
  exareq::require(row < rows_, "RetainedQr::leave_one_out: row out of range");
  const std::size_t n = cols();
  exareq::require(out.size() == n, "RetainedQr::leave_one_out: output size");
  exareq::require(rows_ > n, "RetainedQr::leave_one_out: square system");

  // Sherman-Morrison downdate of the normal equations R^T R x = A^T b with
  // row a removed: with R^T u = a, leverage h = ||u||^2, R z = u, and
  // residual e = b_row - a . x, the leave-one-out solution is
  //   x_loo = x - z * e / (1 - h).
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = equilibrated_[i][row];
    for (std::size_t j = 0; j < i; ++j) acc -= r_columns_[i][j] * u[j];
    u[i] = acc / r_columns_[i][i];
  }
  double leverage = 0.0;
  for (double value : u) leverage += value * value;
  // Leverage ~ 1 means this row alone pins a direction of the fit; without
  // it the system drops rank — the batched analogue of the scalar path's
  // per-fold rank deficiency.
  if (1.0 - leverage < 1e-12) return false;

  std::vector<double> z(n);
  for (std::size_t ki = n; ki-- > 0;) {
    double acc = u[ki];
    for (std::size_t c = ki + 1; c < n; ++c) acc -= r_columns_[c][ki] * z[c];
    z[ki] = acc / r_columns_[ki][ki];
  }
  const double gain = residuals_[row] / (1.0 - leverage);
  for (std::size_t c = 0; c < n; ++c) {
    out[c] = (scaled_solution_[c] - z[c] * gain) / column_scale_[c];
  }
  // PRESS: b_row - a_row . x_loo = e_row / (1 - h); `gain` is exactly that.
  if (loo_residual != nullptr) *loo_residual = gain;
  return true;
}

}  // namespace exareq::model
