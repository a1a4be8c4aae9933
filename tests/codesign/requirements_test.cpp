#include "codesign/requirements.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace exareq::codesign {
namespace {

model::Model pn_model(double constant, double coefficient, double p_poly,
                      double p_log, double n_poly, double n_log) {
  model::Term term;
  term.coefficient = coefficient;
  if (p_poly != 0.0 || p_log != 0.0) {
    term.factors.push_back(model::pmnf_factor(0, p_poly, p_log));
  }
  if (n_poly != 0.0 || n_log != 0.0) {
    term.factors.push_back(model::pmnf_factor(1, n_poly, n_log));
  }
  return model::Model({"p", "n"}, constant, {term});
}

AppRequirements linear_app() {
  AppRequirements app;
  app.name = "linear";
  app.footprint = pn_model(0.0, 100.0, 0, 0, 1, 0);      // 100 * n bytes
  app.flops = pn_model(0.0, 10.0, 0, 0, 1, 0);
  app.comm_bytes = pn_model(0.0, 1.0, 0, 0, 1, 0);
  app.loads_stores = pn_model(0.0, 5.0, 0, 0, 1, 0);
  app.stack_distance = model::Model::constant_model({"n"}, 8.0);
  return app;
}

TEST(RequirementsTest, ValidateAcceptsWellFormedBundle) {
  EXPECT_NO_THROW(linear_app().validate());
}

TEST(RequirementsTest, ValidateRejectsWrongParameterOrder) {
  AppRequirements app = linear_app();
  model::Term term;
  term.coefficient = 1.0;
  term.factors = {model::pmnf_factor(0, 1.0, 0.0)};
  app.footprint = model::Model({"n", "p"}, 0.0, {term});
  EXPECT_THROW(app.validate(), exareq::InvalidArgument);
}

TEST(RequirementsTest, ValidateRejectsTwoParameterStackDistance) {
  AppRequirements app = linear_app();
  app.stack_distance = pn_model(0.0, 1.0, 0, 0, 1, 0);
  EXPECT_THROW(app.validate(), exareq::InvalidArgument);
}

TEST(RequirementsTest, FillMemoryInvertsFootprint) {
  const AppRequirements app = linear_app();
  const SystemSkeleton system{1024.0, 1e6};  // 1 MB per process
  const FilledSystem filled = fill_memory(app, system);
  EXPECT_NEAR(filled.problem_size_per_process, 1e4, 1e-3);  // 100 n == 1e6
  EXPECT_NEAR(filled.overall_problem_size, 1024.0 * 1e4, 1.0);
}

TEST(RequirementsTest, FillMemoryRespectsProcessDependentFootprint) {
  // footprint = 100 n + 1000 p: more processes leave less room for n.
  AppRequirements app = linear_app();
  model::Term n_term;
  n_term.coefficient = 100.0;
  n_term.factors = {model::pmnf_factor(1, 1.0, 0.0)};
  model::Term p_term;
  p_term.coefficient = 1000.0;
  p_term.factors = {model::pmnf_factor(0, 1.0, 0.0)};
  app.footprint = model::Model({"p", "n"}, 0.0, {n_term, p_term});

  const FilledSystem small = fill_memory(app, {10.0, 1e6});
  const FilledSystem large = fill_memory(app, {100.0, 1e6});
  EXPECT_GT(small.problem_size_per_process, large.problem_size_per_process);
  EXPECT_NEAR(small.problem_size_per_process, (1e6 - 1e4) / 100.0, 1e-3);
}

TEST(RequirementsTest, FillMemoryThrowsWhenNothingFits) {
  AppRequirements app = linear_app();
  // Footprint floor of 1 GB regardless of n.
  model::Term n_term;
  n_term.coefficient = 100.0;
  n_term.factors = {model::pmnf_factor(1, 1.0, 0.0)};
  app.footprint = model::Model({"p", "n"}, 1e9, {n_term});
  EXPECT_THROW(fill_memory(app, {8.0, 1e6}), exareq::NumericError);
}

TEST(RequirementsTest, FitsInMemoryChecksMinimumProblem) {
  AppRequirements app = linear_app();
  EXPECT_TRUE(fits_in_memory(app, {8.0, 1e6}));
  model::Term p_term;
  p_term.coefficient = 1.0;
  p_term.factors = {model::pmnf_factor(0, 1.0, 1.0)};
  app.footprint = model::Model({"p", "n"}, 0.0, {p_term});  // p log p only
  // At p = 2^20, p log2 p = 2e7 > 1e6 per-process memory.
  EXPECT_FALSE(fits_in_memory(app, {1048576.0, 1e6}));
}

TEST(RequirementsTest, FillMemoryValidatesSkeleton) {
  const AppRequirements app = linear_app();
  EXPECT_THROW(fill_memory(app, {0.0, 1e6}), exareq::InvalidArgument);
  EXPECT_THROW(fill_memory(app, {8.0, 0.0}), exareq::InvalidArgument);
}

TEST(RequirementsTest, FillMemoryRejectsNonFiniteSkeleton) {
  // Infinity passes `>= 1` and `> 0`; the fill would yield NaN ratios.
  const AppRequirements app = linear_app();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fill_memory(app, {inf, 1e6}), exareq::InvalidArgument);
  EXPECT_THROW(fill_memory(app, {8.0, inf}), exareq::InvalidArgument);
}

}  // namespace
}  // namespace exareq::codesign
