// Behavioural tests of the nine application proxies: every proxy must run,
// produce strictly positive requirements, be deterministic, and grow each
// requirement in the direction the paper's Table II prescribes.
#include <gtest/gtest.h>

#include "apps/application.hpp"
#include "pipeline/measure.hpp"
#include "support/error.hpp"

namespace exareq::apps {
namespace {

using pipeline::AppMeasurement;
using pipeline::measure_app;

class ProxyTest : public ::testing::TestWithParam<AppId> {};

std::string app_param_name(const ::testing::TestParamInfo<AppId>& info) {
  return app_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ProxyTest,
                         ::testing::Values(AppId::kKripke, AppId::kLulesh,
                                           AppId::kMilc, AppId::kRelearn,
                                           AppId::kIcoFoam, AppId::kStencil3D,
                                           AppId::kGraphBfs, AppId::kMiniDnn,
                                           AppId::kCheckpointIo),
                         app_param_name);

TEST_P(ProxyTest, RunsAndProducesPositiveRequirements) {
  const Application& app = application(GetParam());
  const AppMeasurement m = measure_app(app, 4, 64);
  EXPECT_GT(m.bytes_used, 0.0);
  EXPECT_GT(m.flops, 0.0);
  EXPECT_GT(m.loads_stores, 0.0);
  EXPECT_GT(m.bytes_sent_received, 0.0);
  EXPECT_GT(m.stack_distance, 0.0);
  EXPECT_FALSE(m.channels.empty());
}

TEST_P(ProxyTest, MeasurementsAreDeterministic) {
  const Application& app = application(GetParam());
  const AppMeasurement a = measure_app(app, 4, 64);
  const AppMeasurement b = measure_app(app, 4, 64);
  EXPECT_DOUBLE_EQ(a.bytes_used, b.bytes_used);
  EXPECT_DOUBLE_EQ(a.flops, b.flops);
  EXPECT_DOUBLE_EQ(a.loads_stores, b.loads_stores);
  EXPECT_DOUBLE_EQ(a.bytes_sent_received, b.bytes_sent_received);
  EXPECT_DOUBLE_EQ(a.stack_distance, b.stack_distance);
}

TEST_P(ProxyTest, RequirementsGrowWithProblemSize) {
  const Application& app = application(GetParam());
  const AppMeasurement small = measure_app(app, 4, 64);
  const AppMeasurement large = measure_app(app, 4, 256);
  EXPECT_GT(large.bytes_used, small.bytes_used);
  EXPECT_GT(large.flops, small.flops);
  EXPECT_GT(large.loads_stores, small.loads_stores);
  EXPECT_GT(large.bytes_sent_received, small.bytes_sent_received);
}

TEST_P(ProxyTest, RejectsTooSmallProblem) {
  const Application& app = application(GetParam());
  EXPECT_THROW(measure_app(app, 2, 1), exareq::InvalidArgument);
}

TEST_P(ProxyTest, SingleProcessRunWorks) {
  const Application& app = application(GetParam());
  const AppMeasurement m = measure_app(app, 1, 64);
  EXPECT_GT(m.flops, 0.0);
  EXPECT_DOUBLE_EQ(m.bytes_sent_received, 0.0);  // nobody to talk to
}

TEST_P(ProxyTest, LocalityTraceHasRegisteredGroups) {
  const Application& app = application(GetParam());
  const memtrace::AccessTrace trace = app.locality_trace(128);
  EXPECT_GE(trace.group_count(), 2u);
  EXPECT_GT(trace.size(), 1000u);
}

TEST_P(ProxyTest, MetadataIsPresent) {
  const Application& app = application(GetParam());
  EXPECT_FALSE(app.name().empty());
  EXPECT_FALSE(app.description().empty());
  EXPECT_FALSE(app.problem_size_meaning().empty());
  EXPECT_GE(app.min_problem_size(), 1);
}

// --- per-application growth shapes (paper Table II) -------------------------

double ratio(double a, double b) { return a / b; }

TEST(KripkeShapeTest, ComputationAndCommAreProcessIndependent) {
  const Application& app = application(AppId::kKripke);
  const AppMeasurement p4 = measure_app(app, 4, 128);
  const AppMeasurement p16 = measure_app(app, 16, 128);
  EXPECT_DOUBLE_EQ(p4.flops, p16.flops);
  EXPECT_DOUBLE_EQ(p4.bytes_sent_received, p16.bytes_sent_received);
  EXPECT_DOUBLE_EQ(p4.bytes_used, p16.bytes_used);
}

TEST(KripkeShapeTest, LoadStoreCouplingWithProcessCount) {
  // loads/stores ~ n + n*p: quadrupling p at fixed n must raise the count,
  // but by less than 4x (the linear-in-n part does not scale).
  const Application& app = application(AppId::kKripke);
  const AppMeasurement p4 = measure_app(app, 4, 128);
  const AppMeasurement p16 = measure_app(app, 16, 128);
  EXPECT_GT(p16.loads_stores, p4.loads_stores);
  EXPECT_LT(ratio(p16.loads_stores, p4.loads_stores), 4.0);
}

TEST(LuleshShapeTest, FootprintGrowsSuperlinearly) {
  const Application& app = application(AppId::kLulesh);
  const AppMeasurement small = measure_app(app, 4, 128);
  const AppMeasurement large = measure_app(app, 4, 512);
  // n log n: 512*9 / (128*7) = 5.14 > 4 (linear would be exactly 4).
  EXPECT_GT(ratio(large.bytes_used, small.bytes_used), 4.2);
}

TEST(LuleshShapeTest, CommunicationGrowsWithProcessCount) {
  const Application& app = application(AppId::kLulesh);
  const AppMeasurement p4 = measure_app(app, 4, 128);
  const AppMeasurement p32 = measure_app(app, 32, 128);
  // p^0.25 log p: (32/4)^0.25 * (5/2) = 4.2x.
  EXPECT_NEAR(ratio(p32.bytes_sent_received, p4.bytes_sent_received), 4.2, 0.5);
}

TEST(MilcShapeTest, StackDistanceGrowsLinearlyWithN) {
  const Application& app = application(AppId::kMilc);
  const AppMeasurement small = measure_app(app, 2, 256);
  const AppMeasurement large = measure_app(app, 2, 1024);
  EXPECT_NEAR(ratio(large.stack_distance, small.stack_distance), 4.0, 0.2);
}

TEST(MilcShapeTest, CommunicationHasLogTermFromAllreduce) {
  const Application& app = application(AppId::kMilc);
  const AppMeasurement p4 = measure_app(app, 4, 128);
  const AppMeasurement p16 = measure_app(app, 16, 128);
  const double allreduce4 = p4.channels.at("cg_allreduce").bytes;
  const double allreduce16 = p16.channels.at("cg_allreduce").bytes;
  EXPECT_NEAR(ratio(allreduce16, allreduce4), 2.0, 1e-9);  // log2 16 / log2 4
  EXPECT_TRUE(p4.channels.at("cg_allreduce").uses_allreduce);
  EXPECT_TRUE(p4.channels.at("param_bcast").uses_bcast);
}

TEST(RelearnShapeTest, FootprintGrowsWithSqrtOfN) {
  const Application& app = application(AppId::kRelearn);
  const AppMeasurement small = measure_app(app, 4, 256);
  const AppMeasurement large = measure_app(app, 4, 1024);
  // sqrt growth: 4x n -> ~2x bytes (plus a constant offset).
  EXPECT_LT(ratio(large.bytes_used, small.bytes_used), 2.2);
  EXPECT_GT(ratio(large.bytes_used, small.bytes_used), 1.5);
}

TEST(RelearnShapeTest, AlltoallChannelScalesLinearlyWithP) {
  const Application& app = application(AppId::kRelearn);
  const AppMeasurement p4 = measure_app(app, 4, 128);
  const AppMeasurement p16 = measure_app(app, 16, 128);
  const double a2a4 = p4.channels.at("synapse_alltoall").bytes;
  const double a2a16 = p16.channels.at("synapse_alltoall").bytes;
  // Alltoall(p) = 2(p-1): ratio 30/6 = 5.
  EXPECT_NEAR(ratio(a2a16, a2a4), 5.0, 1e-9);
}

TEST(IcoFoamShapeTest, FootprintGrowsWithProcessCount) {
  const Application& app = application(AppId::kIcoFoam);
  const AppMeasurement p4 = measure_app(app, 4, 128);
  const AppMeasurement p64 = measure_app(app, 64, 128);
  EXPECT_GT(p64.bytes_used, p4.bytes_used);  // the flagged p log p term
}

TEST(IcoFoamShapeTest, ComputationCouplesNAndP) {
  const Application& app = application(AppId::kIcoFoam);
  const AppMeasurement base = measure_app(app, 4, 128);
  const AppMeasurement more_p = measure_app(app, 16, 128);
  const AppMeasurement more_n = measure_app(app, 4, 512);
  // flops ~ n^1.5 * p^0.5: 4x p -> 2x flops; 4x n -> 8x flops.
  EXPECT_NEAR(ratio(more_p.flops, base.flops), 2.0, 0.2);
  EXPECT_NEAR(ratio(more_n.flops, base.flops), 8.0, 0.8);
}

TEST(RegistryTest, AllAppsListedAndNamed) {
  const auto ids = all_app_ids();
  ASSERT_EQ(ids.size(), 9u);
  EXPECT_EQ(app_name(AppId::kKripke), "Kripke");
  EXPECT_EQ(app_name(AppId::kLulesh), "LULESH");
  EXPECT_EQ(app_name(AppId::kMilc), "MILC");
  EXPECT_EQ(app_name(AppId::kRelearn), "Relearn");
  EXPECT_EQ(app_name(AppId::kIcoFoam), "icoFoam");
  EXPECT_EQ(app_name(AppId::kStencil3D), "Stencil3D");
  EXPECT_EQ(app_name(AppId::kGraphBfs), "GraphBFS");
  EXPECT_EQ(app_name(AppId::kMiniDnn), "MiniDNN");
  EXPECT_EQ(app_name(AppId::kCheckpointIo), "CheckpointIO");
}

TEST(RegistryTest, LookupByNameIsCaseInsensitive) {
  EXPECT_EQ(app_id_from_name("kripke"), AppId::kKripke);
  EXPECT_EQ(app_id_from_name("ICOFOAM"), AppId::kIcoFoam);
  EXPECT_EQ(app_id_from_name("stencil3d"), AppId::kStencil3D);
  EXPECT_EQ(app_id_from_name("CHECKPOINTIO"), AppId::kCheckpointIo);
  EXPECT_THROW(app_id_from_name("nbody"), exareq::InvalidArgument);
}

TEST(RegistryTest, UnknownNameErrorListsAllValidNames) {
  try {
    app_id_from_name("nbody");
    FAIL() << "unknown name accepted";
  } catch (const exareq::InvalidArgument& error) {
    const std::string what = error.what();
    for (const AppId id : all_app_ids()) {
      EXPECT_NE(what.find(app_name(id)), std::string::npos) << what;
    }
  }
}

TEST(RegistryTest, OnlyCheckpointIoPerformsFileIo) {
  for (const AppId id : all_app_ids()) {
    EXPECT_EQ(application(id).performs_file_io(), id == AppId::kCheckpointIo)
        << app_name(id);
  }
}

}  // namespace
}  // namespace exareq::apps
