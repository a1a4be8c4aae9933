#include "model/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace exareq::model {
namespace {

/// A design matrix as a list of columns, the layout RetainedQr consumes.
using Columns = std::vector<std::vector<double>>;

RetainedQr factor(const Columns& a, const std::vector<double>& b) {
  RetainedQr qr(b.size(), b);
  for (const std::vector<double>& column : a) qr.append_column(column);
  return qr;
}

/// b - A x.
std::vector<double> residual(const Columns& a, const std::vector<double>& b,
                             const std::vector<double>& x) {
  std::vector<double> r = b;
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (std::size_t i = 0; i < b.size(); ++i) r[i] -= a[c][i] * x[c];
  }
  return r;
}

TEST(LinalgTest, SolvesExactSquareSystem) {
  const Columns a{{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b{5.0, 10.0};
  RetainedQr qr = factor(a, b);
  EXPECT_FALSE(qr.rank_deficient());
  qr.solve();
  EXPECT_NEAR(qr.solution()[0], 1.0, 1e-12);
  EXPECT_NEAR(qr.solution()[1], 3.0, 1e-12);
  for (double r : residual(a, b, qr.solution())) EXPECT_NEAR(r, 0.0, 1e-10);
}

TEST(LinalgTest, OverdeterminedRecoversPlantedCoefficients) {
  Rng rng(123);
  const std::vector<double> truth{3.5, -2.0, 0.75};
  Columns a(3, std::vector<double>(20));
  std::vector<double> b(20);
  for (std::size_t r = 0; r < 20; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      a[c][r] = rng.uniform(-5.0, 5.0);
      acc += a[c][r] * truth[c];
    }
    b[r] = acc;
  }
  RetainedQr qr = factor(a, b);
  qr.solve();
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(qr.solution()[c], truth[c], 1e-10);
  }
}

TEST(LinalgTest, HandlesWildlyScaledColumns) {
  // Columns differing by 12 orders of magnitude (constant vs n^3 basis).
  Columns a(2, std::vector<double>(10));
  std::vector<double> b(10);
  for (std::size_t r = 0; r < 10; ++r) {
    const double x = 10.0 + static_cast<double>(r);
    a[0][r] = 1.0;
    a[1][r] = x * x * x * 1e9;
    b[r] = 4.0 + 2.5e-9 * a[1][r];
  }
  RetainedQr qr = factor(a, b);
  qr.solve();
  EXPECT_NEAR(qr.solution()[0], 4.0, 1e-6);
  EXPECT_NEAR(qr.solution()[1], 2.5e-9, 1e-15);
}

TEST(LinalgTest, DetectsCollinearColumns) {
  // The third column lies in the span of the first two (not a multiple of
  // either), so only the whole prefix can expose the dependence.
  Columns a(3, std::vector<double>(5));
  for (std::size_t r = 0; r < 5; ++r) {
    const double x = static_cast<double>(r + 1);
    a[0][r] = 1.0;
    a[1][r] = x * x;
    a[2][r] = 3.0 - 0.5 * x * x;
  }
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0, 5.0};
  RetainedQr qr(5, b);
  qr.append_column(a[0]);
  qr.append_column(a[1]);
  EXPECT_FALSE(qr.rank_deficient());
  qr.append_column(a[2]);
  EXPECT_TRUE(qr.rank_deficient());
  EXPECT_THROW(qr.solve(), exareq::InvalidArgument);
}

TEST(LinalgTest, DetectsZeroColumn) {
  // A zero column after a regular one (RetainedQrTest covers it first).
  const Columns a{{1.0, 2.0, 3.0, 4.0}, {0.0, 0.0, 0.0, 0.0}};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  RetainedQr qr(4, b);
  qr.append_column(a[0]);
  EXPECT_FALSE(qr.rank_deficient());
  qr.append_column(a[1]);
  EXPECT_TRUE(qr.rank_deficient());
}

TEST(LinalgTest, RequiresEnoughRows) {
  // Two rows take at most two independent columns; a third is rejected.
  const std::vector<double> b{1.0, 2.0};
  RetainedQr qr(2, b);
  qr.append_column(std::vector<double>{1.0, 0.0});
  qr.append_column(std::vector<double>{0.0, 1.0});
  EXPECT_THROW(qr.append_column(std::vector<double>{1.0, 1.0}),
               exareq::InvalidArgument);
}

TEST(LinalgTest, ResidualNormOfInconsistentSystem) {
  // Fit a constant to {0, 2}: best value 1, residual sqrt(2).
  const Columns a{{1.0, 1.0}};
  const std::vector<double> b{0.0, 2.0};
  RetainedQr qr = factor(a, b);
  qr.solve();
  EXPECT_NEAR(qr.solution()[0], 1.0, 1e-12);
  const std::vector<double> r = residual(a, b, qr.solution());
  EXPECT_NEAR(std::hypot(r[0], r[1]), std::sqrt(2.0), 1e-12);
}

// --- RetainedQr: extension, downdates and argument checks ---------------

TEST(RetainedQrTest, MatchesLeastSquaresOnOverdeterminedSystem) {
  // For a full-rank A the least-squares solution is the only x with
  // A^T (b - A x) = 0, so the normal equations are a complete reference.
  Rng rng(42);
  const std::vector<double> truth{1.25, -0.5, 6.0};
  Columns a(3, std::vector<double>(12));
  std::vector<double> b(12);
  for (std::size_t r = 0; r < 12; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      a[c][r] = rng.uniform(-4.0, 4.0);
      acc += a[c][r] * truth[c];
    }
    b[r] = acc + rng.uniform(-0.01, 0.01);  // keep it inconsistent
  }
  RetainedQr qr = factor(a, b);
  EXPECT_FALSE(qr.rank_deficient());
  qr.solve();
  const std::vector<double> r = residual(a, b, qr.solution());
  double residual_norm = 0.0;
  for (double value : r) residual_norm += value * value;
  EXPECT_GT(residual_norm, 1e-8);  // inconsistent, so the check has teeth
  for (std::size_t c = 0; c < 3; ++c) {
    double normal = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) normal += a[c][i] * r[i];
    EXPECT_NEAR(normal, 0.0, 1e-10);
  }
}

TEST(RetainedQrTest, ExtensionFromCopiedPrefixMatchesStandaloneBuild) {
  // The batched scorer factors the selected prefix once and extends a copy
  // per candidate; the copy-then-append path must be bit-identical to
  // appending every column into a fresh factorization.
  Rng rng(9);
  Columns a(3, std::vector<double>(10));
  std::vector<double> b(10);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a[c][r] = rng.uniform(0.5, 8.0);
    b[r] = rng.uniform(1.0, 100.0);
  }
  RetainedQr fresh = factor(a, b);
  fresh.solve();

  RetainedQr prefix(10, b);
  prefix.append_column(a[0]);
  prefix.append_column(a[1]);
  RetainedQr extended = prefix;
  extended.append_column(a[2]);
  extended.solve();

  ASSERT_EQ(extended.cols(), fresh.cols());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(extended.solution()[c], fresh.solution()[c]);
  }
}

TEST(RetainedQrTest, LeaveOneOutMatchesExplicitSubsetRefit) {
  Rng rng(77);
  const std::size_t m = 9;
  Columns a(2, std::vector<double>(m));
  std::vector<double> b(m);
  for (std::size_t r = 0; r < m; ++r) {
    a[0][r] = 1.0;
    a[1][r] = rng.uniform(1.0, 50.0);
    b[r] = 3.0 + 0.5 * a[1][r] + rng.uniform(-1.0, 1.0);
  }
  RetainedQr qr = factor(a, b);
  qr.solve();
  LeaveOneOutFolds folds;
  qr.leave_one_out_folds(folds);
  ASSERT_EQ(folds.coefficients.size(), 2 * m);
  ASSERT_EQ(folds.press.size(), m);
  ASSERT_EQ(folds.singular.size(), m);
  for (std::size_t left_out = 0; left_out < m; ++left_out) {
    ASSERT_EQ(folds.singular[left_out], 0) << left_out;
    // A fresh factorization of the other m - 1 rows.
    Columns sub(2);
    std::vector<double> sub_b;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == left_out) continue;
      sub[0].push_back(a[0][r]);
      sub[1].push_back(a[1][r]);
      sub_b.push_back(b[r]);
    }
    RetainedQr reference = factor(sub, sub_b);
    reference.solve();
    EXPECT_NEAR(folds.coefficients[left_out], reference.solution()[0], 1e-9);
    EXPECT_NEAR(folds.coefficients[m + left_out], reference.solution()[1],
                1e-9);
    // The PRESS residual is the left-out row's prediction error under the
    // subset fit.
    const double predicted = reference.solution()[0] * a[0][left_out] +
                             reference.solution()[1] * a[1][left_out];
    EXPECT_NEAR(folds.press[left_out], b[left_out] - predicted, 1e-9);
  }
}

TEST(RetainedQrTest, ReusedStorageMatchesAFreshFactorization) {
  // A factorization restarted, or copy-assigned into, after it held more
  // rows and columns keeps that storage; nothing stale may leak into the
  // smaller system's solution or folds.
  Rng rng(31);
  const auto random_system = [&rng](std::size_t rows, std::size_t cols) {
    Columns a(cols, std::vector<double>(rows));
    std::vector<double> b(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) a[c][r] = rng.uniform(0.5, 9.0);
      b[r] = rng.uniform(1.0, 100.0);
    }
    return std::make_pair(a, b);
  };
  const auto [big_a, big_b] = random_system(14, 4);
  const auto [a, b] = random_system(8, 3);

  RetainedQr fresh = factor(a, b);
  fresh.solve();
  LeaveOneOutFolds fresh_folds;
  fresh.leave_one_out_folds(fresh_folds);

  RetainedQr restarted = factor(big_a, big_b);
  restarted.solve();
  LeaveOneOutFolds folds;
  restarted.leave_one_out_folds(folds);  // sized for 14 rows, 4 columns
  restarted.restart(b.size(), b);
  for (const std::vector<double>& column : a) restarted.append_column(column);
  restarted.solve();

  RetainedQr assigned = factor(big_a, big_b);
  RetainedQr prefix(b.size(), b);
  prefix.append_column(a[0]);
  prefix.append_column(a[1]);
  assigned = prefix;
  assigned.append_column(a[2]);
  assigned.solve();

  for (const RetainedQr* reused : {&restarted, &assigned}) {
    ASSERT_EQ(reused->rows(), fresh.rows());
    ASSERT_EQ(reused->cols(), fresh.cols());
    EXPECT_EQ(reused->solution(), fresh.solution());
    reused->leave_one_out_folds(folds);
    EXPECT_EQ(folds.coefficients, fresh_folds.coefficients);
    EXPECT_EQ(folds.press, fresh_folds.press);
    EXPECT_EQ(folds.singular, fresh_folds.singular);
  }
}

TEST(RetainedQrTest, DetectsCollinearAppendedColumn) {
  std::vector<double> b{1.0, 2.0, 3.0, 4.0, 5.0};
  RetainedQr qr(5, b);
  std::vector<double> first{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> collinear{2.0, 4.0, 6.0, 8.0, 10.0};
  qr.append_column(first);
  EXPECT_FALSE(qr.rank_deficient());
  qr.append_column(collinear);
  EXPECT_TRUE(qr.rank_deficient());
  EXPECT_THROW(qr.solve(), exareq::InvalidArgument);
}

TEST(RetainedQrTest, DetectsZeroColumn) {
  std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  RetainedQr qr(4, b);
  qr.append_column(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  EXPECT_TRUE(qr.rank_deficient());
}

TEST(RetainedQrTest, LeverageOneRowReportsSingularDowndate) {
  // Row 3 is the only row with a nonzero second coordinate: removing it
  // collapses the rank, so its leverage is 1 and its fold is singular.
  const std::vector<double> b{1.0, 1.1, 0.9, 7.0};
  const Columns a{{1.0, 1.0, 1.0, 1.0}, {0.0, 0.0, 0.0, 1.0}};
  RetainedQr qr = factor(a, b);
  ASSERT_FALSE(qr.rank_deficient());
  qr.solve();
  LeaveOneOutFolds folds;
  qr.leave_one_out_folds(folds);
  EXPECT_NE(folds.singular[3], 0);
  EXPECT_EQ(folds.singular[0], 0);
  EXPECT_EQ(folds.singular[1], 0);
  EXPECT_EQ(folds.singular[2], 0);
}

TEST(RetainedQrTest, ValidatesArguments) {
  std::vector<double> b{1.0, 2.0, 3.0};
  RetainedQr qr(3, b);
  EXPECT_THROW(qr.append_column(std::vector<double>{1.0, 2.0}),
               exareq::InvalidArgument);
  EXPECT_THROW(qr.solve(), exareq::InvalidArgument);  // no columns yet
  qr.append_column(std::vector<double>{1.0, 1.0, 1.0});
  LeaveOneOutFolds folds;
  // Unsolved.
  EXPECT_THROW(qr.leave_one_out_folds(folds), exareq::InvalidArgument);
  qr.solve();
  EXPECT_THROW(qr.append_column(std::vector<double>{1.0, 2.0, 3.0}),
               exareq::InvalidArgument);  // append after solve
  EXPECT_THROW(qr.restart(2, b), exareq::InvalidArgument);  // rhs size
  // A square system has no spare row to leave out.
  RetainedQr square(1, std::vector<double>{2.0});
  square.append_column(std::vector<double>{1.0});
  square.solve();
  EXPECT_THROW(square.leave_one_out_folds(folds), exareq::InvalidArgument);
}

}  // namespace
}  // namespace exareq::model
