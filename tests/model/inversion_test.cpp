#include "model/inversion.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/error.hpp"

namespace exareq::model {
namespace {

Model linear_model(double coefficient, double constant = 0.0) {
  Term term;
  term.coefficient = coefficient;
  term.factors = {pmnf_factor(0, 1.0, 0.0)};
  return Model({"n"}, constant, {term});
}

Model nlogn_model(double coefficient) {
  Term term;
  term.coefficient = coefficient;
  term.factors = {pmnf_factor(0, 1.0, 1.0)};
  return Model({"n"}, 0.0, {term});
}

TEST(InversionTest, InvertsLinearModelExactly) {
  const Model m = linear_model(2.0, 10.0);
  const double n = invert_model(m, 410.0);
  EXPECT_NEAR(n, 200.0, 1e-6);
}

TEST(InversionTest, InvertsNLogNModel) {
  const Model m = nlogn_model(1e5);
  const double target = 1e5 * 4096.0 * 12.0;
  const double n = invert_model(m, target);
  EXPECT_NEAR(n, 4096.0, 1e-3);
}

TEST(InversionTest, LowerBoundHit) {
  const Model m = linear_model(1.0);
  EXPECT_NEAR(invert_model(m, 1.0), 1.0, 1e-9);
}

TEST(InversionTest, TargetBelowRangeThrows) {
  const Model m = linear_model(1.0, 100.0);
  EXPECT_THROW(invert_model(m, 50.0), exareq::NumericError);
}

TEST(InversionTest, UnreachableTargetThrows) {
  const Model m = Model::constant_model({"n"}, 5.0);
  InversionOptions options;
  options.upper_limit = 1e12;
  EXPECT_THROW(invert_model(m, 10.0, options), exareq::NumericError);
}

TEST(InversionTest, CallableOverload) {
  const double x = invert_monotone([](double v) { return v * v; }, 1e6);
  EXPECT_NEAR(x, 1000.0, 1e-6);
}

TEST(InversionTest, InvertInParameterWithOthersFixed) {
  // f(p, n) = n + p log2(p); invert in n at p = 8 for target 100:
  // n = 100 - 8*3 = 76.
  Term n_term;
  n_term.coefficient = 1.0;
  n_term.factors = {pmnf_factor(1, 1.0, 0.0)};
  Term p_term;
  p_term.coefficient = 1.0;
  p_term.factors = {pmnf_factor(0, 1.0, 1.0)};
  const Model m({"p", "n"}, 0.0, {n_term, p_term});
  const double coordinate[] = {8.0, 1.0};
  const double n = invert_model_in_parameter(m, 1, coordinate, 100.0);
  EXPECT_NEAR(n, 76.0, 1e-6);
}

TEST(InversionTest, PrecisionIsTight) {
  const Model m = linear_model(7.0);
  const double n = invert_model(m, 7.0 * 123456.789);
  EXPECT_NEAR(n, 123456.789, 1e-4);
}

// Edge cases exercised by the upgrade study (paper Sec. III-A): the
// inversion step IV of Table IV runs on fitted footprint models, which can
// come out non-monotone, carry zero/negative coefficients, or be handed a
// memory budget outside the model's range.

Model sqrt_model(double coefficient) {
  Term term;
  term.coefficient = coefficient;
  term.factors = {pmnf_factor(0, 0.5, 0.0)};
  return Model({"n"}, 0.0, {term});
}

TEST(InversionEdgeTest, DecreasingModelIsFlaggedAndRefusedCleanly) {
  // A fit with a dominant negative coefficient is decreasing: inversion
  // must refuse (f(lower_bound) already overshoots every smaller target)
  // instead of bisecting garbage.
  Term term;
  term.coefficient = -3.0;
  term.factors = {pmnf_factor(0, 1.0, 0.0)};
  const Model m({"n"}, 1e6, {term});
  EXPECT_THROW(invert_model(m, 5e5), exareq::NumericError);
}

TEST(InversionEdgeTest, LocallyDecreasingMixedSignModelNeedsShiftedBound) {
  // f(n) = 2n - 10 sqrt(n) dips until n ~ 6.25, then grows; restarting
  // above the dip makes the inversion well-defined.
  Term grow;
  grow.coefficient = 2.0;
  grow.factors = {pmnf_factor(0, 1.0, 0.0)};
  Term dip;
  dip.coefficient = -10.0;
  dip.factors = {pmnf_factor(0, 0.5, 0.0)};
  const Model m({"n"}, 0.0, {grow, dip});
  InversionOptions options;
  options.lower_bound = 10.0;
  // f(100) = 200 - 100 = 100.
  EXPECT_NEAR(invert_model(m, 100.0, options), 100.0, 1e-6);
}

TEST(InversionEdgeTest, ZeroCoefficientTermsBehaveAsConstantModel) {
  Term term;
  term.coefficient = 0.0;
  term.factors = {pmnf_factor(0, 2.0, 1.0)};
  const Model m({"n"}, 5.0, {term});
  // The flat model meets its own constant at the lower bound...
  EXPECT_NEAR(invert_model(m, 5.0), 1.0, 1e-9);
  // ...and can never reach anything above it.
  InversionOptions options;
  options.upper_limit = 1e12;
  EXPECT_THROW(invert_model(m, 6.0, options), exareq::NumericError);
}

TEST(InversionEdgeTest, OutOfRangeTargetsThrowInEitherDirection) {
  const Model m = linear_model(2.0, 100.0);  // f(n) = 2n + 100, f(1) = 102
  EXPECT_THROW(invert_model(m, 101.9), exareq::NumericError);
  InversionOptions tight;
  tight.upper_limit = 1e6;
  EXPECT_THROW(invert_model(m, 1e9, tight), exareq::NumericError);
  // The boundary itself is in range.
  EXPECT_NEAR(invert_model(m, 102.0), 1.0, 1e-9);
}

TEST(InversionEdgeTest, MultiParamBudgetBelowMinimumProblemThrows) {
  // Step IV of Table IV inverts the footprint model in n at fixed p; a
  // budget below the minimum-problem footprint must throw, not return the
  // lower bound as if it fit.
  Term n_term;
  n_term.coefficient = 4.0;
  n_term.factors = {pmnf_factor(1, 1.0, 0.0)};
  Term p_term;
  p_term.coefficient = 1.0;
  p_term.factors = {pmnf_factor(0, 1.0, 1.0)};
  const Model m({"p", "n"}, 0.0, {n_term, p_term});
  const double coordinate[] = {1024.0, 1.0};  // p log2 p = 10240
  EXPECT_THROW(invert_model_in_parameter(m, 1, coordinate, 10000.0),
               exareq::NumericError);
  EXPECT_NEAR(invert_model_in_parameter(m, 1, coordinate, 10244.0), 1.0,
              1e-9);
}

TEST(InversionEdgeTest, LinearFootprintRatiosMatchTableVKripke) {
  // Paper Table V, Kripke (linear footprint): upgrade B halves the memory
  // per process -> n ratio 0.5; upgrade C doubles it -> n ratio 2.
  const Model m = linear_model(384.0);  // bytes = 384 n
  const double budget = 3.2e10;
  const double n = invert_model(m, budget);
  EXPECT_NEAR(invert_model(m, budget / 2.0) / n, 0.5, 1e-9);
  EXPECT_NEAR(invert_model(m, budget * 2.0) / n, 2.0, 1e-9);
}

TEST(InversionEdgeTest, SqrtFootprintRatioMatchesTableVRelearn) {
  // Paper Table V, Relearn under C: footprint grows with sqrt(n), so a
  // doubled memory budget quadruples the solvable problem size.
  const Model m = sqrt_model(1.7e5);
  const double budget = 1e9;
  const double n = invert_model(m, budget);
  EXPECT_NEAR(invert_model(m, 2.0 * budget) / n, 4.0, 1e-6);
}

TEST(InversionEdgeTest, NLogNFootprintUnderDoubledRacksMatchesTableIV) {
  // Paper Table IV: doubling the racks (2p, same memory per process)
  // leaves the per-process budget unchanged, so the inverted n is
  // unchanged (n'/n = 1) and the overall problem doubles with p alone.
  const Model m = nlogn_model(640.0);  // bytes = 640 n log2 n
  const double budget_per_process = 2.4e9;
  const double n_old = invert_model(m, budget_per_process);
  const double n_new = invert_model(m, budget_per_process);
  EXPECT_NEAR(n_new / n_old, 1.0, 1e-12);
  const double p_ratio = 2.0;
  EXPECT_NEAR(p_ratio * n_new / n_old, 2.0, 1e-12);
}

}  // namespace
}  // namespace exareq::model
