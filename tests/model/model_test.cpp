#include "model/model.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace exareq::model {
namespace {

Model lulesh_flop_like() {
  // 1e5 * n * log2(n) * p^0.25 * log2(p), parameters {p, n}.
  Term term;
  term.coefficient = 1e5;
  term.factors = {pmnf_factor(0, 0.25, 1.0), pmnf_factor(1, 1.0, 1.0)};
  return Model({"p", "n"}, 0.0, {term});
}

TEST(ModelTest, EvaluateTwoParameterTerm) {
  const Model m = lulesh_flop_like();
  // p = 16 -> p^0.25 log2 p = 2 * 4 = 8; n = 8 -> n log2 n = 24.
  EXPECT_DOUBLE_EQ(m.evaluate2(16.0, 8.0), 1e5 * 8.0 * 24.0);
}

TEST(ModelTest, ConstantModel) {
  const Model m = Model::constant_model({"p", "n"}, 7.0);
  EXPECT_TRUE(m.is_constant());
  EXPECT_DOUBLE_EQ(m.evaluate2(100.0, 100.0), 7.0);
  EXPECT_EQ(m.to_string_rounded(), "Constant");
}

TEST(ModelTest, ConstantPlusTerms) {
  Term linear;
  linear.coefficient = 2.0;
  linear.factors = {pmnf_factor(0, 1.0, 0.0)};
  const Model m({"n"}, 5.0, {linear});
  EXPECT_DOUBLE_EQ(m.evaluate1(10.0), 25.0);
}

TEST(ModelTest, EvaluateRejectsWidthMismatch) {
  const Model m = lulesh_flop_like();
  const double coordinate[] = {4.0};
  EXPECT_THROW(m.evaluate(coordinate), exareq::InvalidArgument);
}

TEST(ModelTest, DependsOnReportsParameters) {
  const Model m = lulesh_flop_like();
  EXPECT_TRUE(m.depends_on(0));
  EXPECT_TRUE(m.depends_on(1));

  Term n_only;
  n_only.coefficient = 1.0;
  n_only.factors = {pmnf_factor(1, 1.0, 0.0)};
  const Model m2({"p", "n"}, 0.0, {n_only});
  EXPECT_FALSE(m2.depends_on(0));
  EXPECT_TRUE(m2.depends_on(1));
}

TEST(ModelTest, ToStringRoundedUsesPowersOfTen) {
  Term term;
  term.coefficient = 9.4e4;  // rounds to 10^5
  term.factors = {pmnf_factor(0, 1.0, 1.0)};
  const Model m({"n"}, 0.0, {term});
  EXPECT_EQ(m.to_string_rounded(), "10^5 * n * log2(n)");
}

TEST(ModelTest, ToStringRoundedOmitsUnitCoefficient) {
  Term term;
  term.coefficient = 1.2;  // rounds to 10^0
  term.factors = {pmnf_factor(0, 0.5, 0.0)};
  const Model m({"n"}, 0.0, {term});
  EXPECT_EQ(m.to_string_rounded(), "n^0.5");
}

TEST(ModelTest, ToStringListsAllTerms) {
  Term a;
  a.coefficient = 2.0;
  a.factors = {pmnf_factor(0, 1.0, 0.0)};
  Term b;
  b.coefficient = 3.0;
  b.factors = {pmnf_factor(1, 0.0, 1.0)};
  const Model m({"n", "p"}, 1.0, {a, b});
  const std::string text = m.to_string();
  EXPECT_NE(text.find("2 * n"), std::string::npos);
  EXPECT_NE(text.find("3 * log2(p)"), std::string::npos);
}

TEST(ModelTest, SameBasisComparesStructureOnly) {
  Term a;
  a.coefficient = 1.0;
  a.factors = {pmnf_factor(0, 1.0, 0.0)};
  Term b = a;
  b.coefficient = 99.0;
  EXPECT_TRUE(a.same_basis(b));
  b.factors[0].poly_exponent = 2.0;
  EXPECT_FALSE(a.same_basis(b));
}

TEST(ModelTest, TermRejectsUnknownParameter) {
  Term bad;
  bad.coefficient = 1.0;
  bad.factors = {pmnf_factor(3, 1.0, 0.0)};
  EXPECT_THROW(Model({"p"}, 0.0, {bad}), exareq::InvalidArgument);
}

TEST(ModelTest, PredictEvaluatesAllCoordinates) {
  Term linear;
  linear.coefficient = 3.0;
  linear.factors = {pmnf_factor(0, 1.0, 0.0)};
  const Model m({"n"}, 0.0, {linear});
  MeasurementSet data({"n"});
  data.add({2.0}, 0.0);
  data.add({5.0}, 0.0);
  const auto predicted = m.predict(data);
  ASSERT_EQ(predicted.size(), 2u);
  EXPECT_DOUBLE_EQ(predicted[0], 6.0);
  EXPECT_DOUBLE_EQ(predicted[1], 15.0);
}


TEST(ModelTest, SumMergesConstantsAndFoldsSharedBases) {
  Term linear;
  linear.coefficient = 2.0;
  linear.factors = {pmnf_factor(0, 1.0, 0.0)};
  const Model a({"n"}, 1.0, {linear});
  Term linear_b = linear;
  linear_b.coefficient = 5.0;
  Term log_term;
  log_term.coefficient = 3.0;
  log_term.factors = {pmnf_factor(0, 0.0, 1.0)};
  const Model b({"n"}, 2.0, {linear_b, log_term});

  const Model models[] = {a, b};
  const Model sum = Model::sum(models);
  EXPECT_DOUBLE_EQ(sum.constant(), 3.0);
  ASSERT_EQ(sum.terms().size(), 2u);  // linear folded, log kept
  EXPECT_DOUBLE_EQ(sum.evaluate1(8.0), 1.0 + 2.0 * 8.0 + 2.0 + 5.0 * 8.0 + 9.0);
}

TEST(ModelTest, SumRejectsMismatchedParameters) {
  const Model a = Model::constant_model({"n"}, 1.0);
  const Model b = Model::constant_model({"p"}, 1.0);
  const Model models[] = {a, b};
  EXPECT_THROW(Model::sum(models), exareq::InvalidArgument);
  EXPECT_THROW(Model::sum({}), exareq::InvalidArgument);
}

TEST(ModelTest, SumOfOneModelIsIdentity) {
  Term t;
  t.coefficient = 7.0;
  t.factors = {pmnf_factor(0, 2.0, 0.0)};
  const Model a({"n"}, 0.5, {t});
  const Model models[] = {a};
  const Model sum = Model::sum(models);
  EXPECT_DOUBLE_EQ(sum.evaluate1(3.0), a.evaluate1(3.0));
}

}  // namespace
}  // namespace exareq::model
