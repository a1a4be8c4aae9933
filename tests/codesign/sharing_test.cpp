#include "codesign/sharing.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace exareq::codesign {
namespace {

model::Model linear_footprint(double bytes_per_element) {
  model::Term term;
  term.coefficient = bytes_per_element;
  term.factors = {model::pmnf_factor(1, 1.0, 0.0)};
  return model::Model({"p", "n"}, 0.0, {term});
}

AppRequirements app_with_footprint(std::string name, model::Model footprint) {
  AppRequirements app;
  app.name = std::move(name);
  app.footprint = std::move(footprint);
  model::Term linear;
  linear.coefficient = 1.0;
  linear.factors = {model::pmnf_factor(1, 1.0, 0.0)};
  app.flops = model::Model({"p", "n"}, 0.0, {linear});
  app.comm_bytes = app.flops;
  app.loads_stores = app.flops;
  app.stack_distance = model::Model::constant_model({"n"}, 1.0);
  return app;
}

const SystemSkeleton kMachine{1000.0, 1e6};

TEST(SharingTest, PairSplitsProcessesByFraction) {
  const AppRequirements light = app_with_footprint("light", linear_footprint(10.0));
  const AppRequirements heavy = app_with_footprint("heavy", linear_footprint(100.0));
  const auto outcomes = space_share_pair(light, heavy, 0.25, kMachine);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_DOUBLE_EQ(outcomes[0].partition.processes, 250.0);
  EXPECT_DOUBLE_EQ(outcomes[1].partition.processes, 750.0);
  // Each partition keeps the full per-process memory.
  EXPECT_DOUBLE_EQ(outcomes[0].partition.memory_per_process, 1e6);
  EXPECT_TRUE(outcomes[0].feasible);
  EXPECT_NEAR(outcomes[0].problem_size_per_process, 1e5, 1.0);   // 1e6 / 10
  EXPECT_NEAR(outcomes[1].problem_size_per_process, 1e4, 1.0);   // 1e6 / 100
  EXPECT_NEAR(outcomes[0].overall_problem_size, 250.0 * 1e5, 10.0);
}

TEST(SharingTest, FractionsNeedNotSumToOne) {
  const AppRequirements app = app_with_footprint("a", linear_footprint(10.0));
  const ShareRequest requests[] = {{&app, 0.5}};
  const auto outcomes = space_share(requests, kMachine);
  EXPECT_DOUBLE_EQ(outcomes[0].partition.processes, 500.0);
}

TEST(SharingTest, InfeasibleAppReportedNotThrown) {
  // Footprint with a constant floor above the memory budget.
  AppRequirements bloated = app_with_footprint("bloated", linear_footprint(1.0));
  bloated.footprint = model::Model({"p", "n"}, 1e9, {});
  const AppRequirements small = app_with_footprint("small", linear_footprint(1.0));
  const auto outcomes = space_share_pair(bloated, small, 0.5, kMachine);
  EXPECT_FALSE(outcomes[0].feasible);
  EXPECT_TRUE(outcomes[1].feasible);
}

TEST(SharingTest, TinyFractionStillGetsOneProcess) {
  const AppRequirements app = app_with_footprint("a", linear_footprint(10.0));
  const ShareRequest requests[] = {{&app, 1e-6}};
  const auto outcomes = space_share(requests, SystemSkeleton{100.0, 1e6});
  EXPECT_DOUBLE_EQ(outcomes[0].partition.processes, 1.0);
  EXPECT_TRUE(outcomes[0].feasible);
}

TEST(SharingTest, ValidatesArguments) {
  const AppRequirements app = app_with_footprint("a", linear_footprint(10.0));
  const ShareRequest over[] = {{&app, 0.7}, {&app, 0.7}};
  EXPECT_THROW(space_share(over, kMachine), exareq::InvalidArgument);
  const ShareRequest zero[] = {{&app, 0.0}};
  EXPECT_THROW(space_share(zero, kMachine), exareq::InvalidArgument);
  const ShareRequest null_app[] = {{nullptr, 0.5}};
  EXPECT_THROW(space_share(null_app, kMachine), exareq::InvalidArgument);
  EXPECT_THROW(space_share({}, kMachine), exareq::InvalidArgument);
  EXPECT_THROW(space_share_pair(app, app, 1.5, kMachine),
               exareq::InvalidArgument);
}

TEST(SharingTest, RejectsNonFiniteSkeleton) {
  const AppRequirements app = app_with_footprint("a", linear_footprint(10.0));
  const ShareRequest requests[] = {{&app, 0.5}};
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(space_share(requests, SystemSkeleton{inf, 1e6}),
               exareq::InvalidArgument);
  EXPECT_THROW(space_share(requests, SystemSkeleton{100.0, inf}),
               exareq::InvalidArgument);
}

TEST(SharingTest, ExclusiveAccessMatchesFillMemory) {
  // A single application with fraction 1.0 reproduces the heroic-run
  // scenario the paper's studies use.
  const AppRequirements app = app_with_footprint("hero", linear_footprint(50.0));
  const ShareRequest requests[] = {{&app, 1.0}};
  const auto shared = space_share(requests, kMachine);
  const FilledSystem exclusive = fill_memory(app, kMachine);
  EXPECT_DOUBLE_EQ(shared[0].problem_size_per_process,
                   exclusive.problem_size_per_process);
  EXPECT_DOUBLE_EQ(shared[0].overall_problem_size,
                   exclusive.overall_problem_size);
}

}  // namespace
}  // namespace exareq::codesign
