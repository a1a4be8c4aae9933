#include "codesign/upgrade.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/error.hpp"

namespace exareq::codesign {
namespace {

model::Model two_param(double coefficient, double p_poly, double p_log,
                       double n_poly, double n_log, double constant = 0.0) {
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

/// The paper's LULESH models (Table IV, coefficients omitted as the paper
/// does for relative upgrades).
AppRequirements paper_lulesh() {
  AppRequirements app;
  app.name = "LULESH";
  app.footprint = two_param(1.0, 0, 0, 1, 1);      // n log n
  app.flops = two_param(1.0, 0.25, 1, 1, 1);       // n log n * p^0.25 log p
  app.comm_bytes = two_param(1.0, 0.25, 1, 1, 0);  // n * p^0.25 log p
  app.loads_stores = two_param(1.0, 0, 1, 1, 1);   // n log n * log p
  app.stack_distance = model::Model::constant_model({"n"}, 4.0);
  return app;
}

/// Kripke per the paper: everything linear in n; loads/stores n + n*p.
AppRequirements paper_kripke() {
  AppRequirements app;
  app.name = "Kripke";
  app.footprint = two_param(1e5, 0, 0, 1, 0);
  app.flops = two_param(1e7, 0, 0, 1, 0);
  app.comm_bytes = two_param(1e4, 0, 0, 1, 0);
  model::Term linear;
  linear.coefficient = 1e8;
  linear.factors = {model::pmnf_factor(1, 1.0, 0.0)};
  model::Term coupled;
  coupled.coefficient = 1e5;
  coupled.factors = {model::pmnf_factor(0, 1.0, 0.0),
                     model::pmnf_factor(1, 1.0, 0.0)};
  app.loads_stores = model::Model({"p", "n"}, 0.0, {linear, coupled});
  app.stack_distance = model::Model::constant_model({"n"}, 16.0);
  return app;
}

/// Relearn's footprint grows with sqrt(n) (paper Table II).
AppRequirements paper_relearn() {
  AppRequirements app = paper_kripke();
  app.name = "Relearn";
  app.footprint = two_param(1e6, 0, 0, 0.5, 0);
  return app;
}

const SystemSkeleton kBase{1048576.0, 1ull << 31};  // 2^20 processes, 2 GiB

TEST(UpgradeTest, PaperUpgradesMatchTableIII) {
  const auto upgrades = paper_upgrades();
  ASSERT_EQ(upgrades.size(), 3u);
  EXPECT_DOUBLE_EQ(upgrades[0].process_factor, 2.0);
  EXPECT_DOUBLE_EQ(upgrades[0].memory_factor, 1.0);
  EXPECT_DOUBLE_EQ(upgrades[1].process_factor, 2.0);
  EXPECT_DOUBLE_EQ(upgrades[1].memory_factor, 0.5);
  EXPECT_DOUBLE_EQ(upgrades[2].process_factor, 1.0);
  EXPECT_DOUBLE_EQ(upgrades[2].memory_factor, 2.0);
}

TEST(UpgradeTest, LuleshDoubleRacksMatchesTableIV) {
  // Paper Table IV: n log n footprint -> n'/n = 1, overall = 2;
  // FLOP and comm ratios (2p)^0.25 log(2p) / (p^0.25 log p) ~ 1.2;
  // loads/stores log(2p)/log(p) ~ 1.
  const auto walk =
      evaluate_upgrade(paper_lulesh(), kBase, paper_upgrades()[0]);
  EXPECT_NEAR(walk.outcome.problem_size_ratio, 1.0, 1e-6);
  EXPECT_NEAR(walk.outcome.overall_problem_ratio, 2.0, 1e-6);
  EXPECT_NEAR(walk.outcome.computation_ratio, 1.2, 0.05);
  EXPECT_NEAR(walk.outcome.communication_ratio, 1.2, 0.05);
  EXPECT_NEAR(walk.outcome.memory_access_ratio, 1.0, 0.06);
}

TEST(UpgradeTest, WalkthroughFootprintEqualsMemoryBudget) {
  const auto walk =
      evaluate_upgrade(paper_lulesh(), kBase, paper_upgrades()[0]);
  EXPECT_NEAR(walk.footprint_old, static_cast<double>(kBase.memory_per_process),
              1.0);
  EXPECT_NEAR(walk.footprint_new, static_cast<double>(kBase.memory_per_process),
              1.0);
}

TEST(UpgradeTest, KripkeRatiosMatchTableV) {
  // Paper Table V, Kripke column: A -> (1, 2, 1, 1, 2); B -> (0.5, 1, 0.5,
  // 0.5, ~0.5...1); C -> (2, 2, 2, 2, 2). The memory-access ratio under A
  // approaches 2 because the n*p term dominates at scale.
  const AppRequirements app = paper_kripke();
  const auto upgrades = paper_upgrades();

  const auto a = evaluate_upgrade(app, kBase, upgrades[0]).outcome;
  EXPECT_NEAR(a.problem_size_ratio, 1.0, 1e-9);
  EXPECT_NEAR(a.overall_problem_ratio, 2.0, 1e-9);
  EXPECT_NEAR(a.computation_ratio, 1.0, 1e-9);
  EXPECT_NEAR(a.communication_ratio, 1.0, 1e-9);
  EXPECT_NEAR(a.memory_access_ratio, 2.0, 0.01);

  const auto b = evaluate_upgrade(app, kBase, upgrades[1]).outcome;
  EXPECT_NEAR(b.problem_size_ratio, 0.5, 1e-9);
  EXPECT_NEAR(b.overall_problem_ratio, 1.0, 1e-9);
  EXPECT_NEAR(b.computation_ratio, 0.5, 1e-9);
  EXPECT_NEAR(b.memory_access_ratio, 1.0, 0.01);  // n*p dominates: 0.5*2

  const auto c = evaluate_upgrade(app, kBase, upgrades[2]).outcome;
  EXPECT_NEAR(c.problem_size_ratio, 2.0, 1e-9);
  EXPECT_NEAR(c.computation_ratio, 2.0, 1e-9);
  EXPECT_NEAR(c.memory_access_ratio, 2.0, 0.01);
}

TEST(UpgradeTest, RelearnMemoryDoublingQuadruplesProblem) {
  // Paper Table V, Relearn under C: sqrt footprint -> n ratio 4.
  const auto walk =
      evaluate_upgrade(paper_relearn(), kBase, paper_upgrades()[2]);
  EXPECT_NEAR(walk.outcome.problem_size_ratio, 4.0, 1e-6);
  EXPECT_NEAR(walk.outcome.overall_problem_ratio, 4.0, 1e-6);
}

TEST(UpgradeTest, BaselineExpectationMatchesTableV) {
  const auto upgrades = paper_upgrades();
  const auto a = baseline_expectation(upgrades[0]);
  EXPECT_DOUBLE_EQ(a.problem_size_ratio, 1.0);
  EXPECT_DOUBLE_EQ(a.overall_problem_ratio, 2.0);
  EXPECT_DOUBLE_EQ(a.computation_ratio, 1.0);
  const auto b = baseline_expectation(upgrades[1]);
  EXPECT_DOUBLE_EQ(b.problem_size_ratio, 0.5);
  EXPECT_DOUBLE_EQ(b.overall_problem_ratio, 1.0);
  const auto c = baseline_expectation(upgrades[2]);
  EXPECT_DOUBLE_EQ(c.problem_size_ratio, 2.0);
  EXPECT_DOUBLE_EQ(c.overall_problem_ratio, 2.0);
}

TEST(UpgradeTest, NonFiniteRatioIsANumericError) {
  // Kripke's loads/stores grow with n * p, so at p = 1e300 the model
  // overflows to inf at both systems and the ratio is not a number.
  const SystemSkeleton huge{1e300, 2147483648.0};
  for (const auto& upgrade : paper_upgrades()) {
    try {
      const UpgradeOutcome outcome =
          evaluate_upgrade(paper_kripke(), huge, upgrade).outcome;
      ADD_FAILURE() << upgrade.label << " answered a memory access ratio of "
                    << outcome.memory_access_ratio;
    } catch (const exareq::NumericError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("memory access ratio"), std::string::npos)
          << message;
      EXPECT_NE(message.find(upgrade.label), std::string::npos) << message;
    }
  }
}

TEST(UpgradeTest, InvalidFactorsRejected) {
  EXPECT_THROW(
      evaluate_upgrade(paper_lulesh(), kBase, {"bad", 0.0, 1.0}),
      exareq::InvalidArgument);
}

}  // namespace
}  // namespace exareq::codesign
