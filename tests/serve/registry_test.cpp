#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "model/serialize.hpp"
#include "serve_test_util.hpp"
#include "support/error.hpp"

namespace exareq::serve {
namespace {

using testing::make_test_requirements;

std::string temp_path(const std::string& stem) {
  return "/tmp/exareq_serve_registry_" + stem + "_" +
         std::to_string(::getpid()) + ".models";
}

model::ModelBundle to_bundle(const codesign::AppRequirements& app) {
  model::ModelBundle bundle;
  bundle.name = app.name;
  bundle.models = {{"footprint", app.footprint},
                   {"flops", app.flops},
                   {"comm_bytes", app.comm_bytes},
                   {"loads_stores", app.loads_stores},
                   {"stack_distance", app.stack_distance}};
  return bundle;
}

TEST(ServeRegistryTest, InsertAndCaseInsensitiveLookup) {
  ModelRegistry registry;
  registry.insert(make_test_requirements("TestApp"));
  const auto models = registry.get("testapp");
  ASSERT_NE(models, nullptr);
  EXPECT_EQ(models->name, "TestApp");
  EXPECT_EQ(registry.app_names(), std::vector<std::string>{"TestApp"});
  EXPECT_EQ(registry.get("TESTAPP"), models);
}

TEST(ServeRegistryTest, MissWithoutFitterThrows) {
  ModelRegistry registry;
  EXPECT_THROW(registry.get("nope"), exareq::InvalidArgument);
  EXPECT_EQ(registry.version_of("nope"), nullptr);
  EXPECT_TRUE(registry.app_names().empty());
}

// Satellite: serialization round trip through the registry — write models
// with serialize.hpp, load via ModelRegistry, assert bit-identical
// evaluation at grid and extrapolation points.
TEST(ServeRegistryTest, SerializedBundleRoundTripsBitIdentical) {
  const codesign::AppRequirements original = make_test_requirements("RoundTrip");
  const std::string path = temp_path("roundtrip");
  {
    std::ofstream file(path);
    file << model::serialize_bundle(to_bundle(original));
  }

  ModelRegistry registry;
  EXPECT_EQ(registry.load_file(path), "RoundTrip");
  const auto loaded = registry.get("RoundTrip");
  ASSERT_NE(loaded, nullptr);

  const double grid_p[] = {4, 8, 16, 32, 64};
  const double grid_n[] = {64, 128, 256, 512, 1024};
  const double extrapolation_p[] = {1e6, 1e8};
  const double extrapolation_n[] = {1e9, 1e12};
  std::vector<std::pair<double, double>> points;
  for (double p : grid_p)
    for (double n : grid_n) points.emplace_back(p, n);
  for (double p : extrapolation_p)
    for (double n : extrapolation_n) points.emplace_back(p, n);

  for (const auto& [p, n] : points) {
    EXPECT_EQ(loaded->footprint.evaluate2(p, n),
              original.footprint.evaluate2(p, n));
    EXPECT_EQ(loaded->flops.evaluate2(p, n), original.flops.evaluate2(p, n));
    EXPECT_EQ(loaded->comm_bytes.evaluate2(p, n),
              original.comm_bytes.evaluate2(p, n));
    EXPECT_EQ(loaded->loads_stores.evaluate2(p, n),
              original.loads_stores.evaluate2(p, n));
    EXPECT_EQ(loaded->stack_distance.evaluate1(n),
              original.stack_distance.evaluate1(n));
  }
  EXPECT_EQ(registry.stats().files_loaded, 1u);
  std::remove(path.c_str());
}

TEST(ServeRegistryTest, LoadFileRejectsIncompleteBundles) {
  const codesign::AppRequirements app = make_test_requirements("Partial");
  model::ModelBundle bundle = to_bundle(app);
  bundle.models.pop_back();  // drop stack_distance
  const std::string path = temp_path("partial");
  {
    std::ofstream file(path);
    file << model::serialize_bundle(bundle);
  }
  ModelRegistry registry;
  EXPECT_THROW(registry.load_file(path), exareq::InvalidArgument);
  std::remove(path.c_str());
}

TEST(ServeRegistryTest, ConcurrentMissesTriggerExactlyOneFit) {
  std::atomic<int> calls{0};
  std::promise<void> gate;
  std::shared_future<void> released = gate.get_future().share();
  ModelRegistry registry([&](const std::string& name) {
    calls.fetch_add(1);
    released.wait();
    return make_test_requirements(name);
  });

  constexpr int kThreads = 8;
  std::vector<std::future<std::shared_ptr<const codesign::AppRequirements>>>
      lookups;
  lookups.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    lookups.push_back(std::async(std::launch::async,
                                 [&registry] { return registry.get("hot"); }));
  }
  // Wait until every thread has entered get() — one is fitting (blocked on
  // the gate), the rest can only be waiting on it.
  while (registry.stats().lookups < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(registry.stats().in_flight_fits, 1u);
  gate.set_value();

  std::vector<std::shared_ptr<const codesign::AppRequirements>> results;
  results.reserve(kThreads);
  for (auto& lookup : lookups) results.push_back(lookup.get());
  for (const auto& result : results) {
    EXPECT_EQ(result, results.front());  // all share one fit result
  }
  EXPECT_EQ(calls.load(), 1);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.fits_started, 1u);
  EXPECT_EQ(stats.fits_completed, 1u);
  EXPECT_EQ(stats.in_flight_fits, 0u);
  EXPECT_GE(stats.singleflight_waits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ServeRegistryTest, FailedFitIsRetriedNotCached) {
  std::atomic<int> calls{0};
  ModelRegistry registry([&](const std::string& name) {
    if (calls.fetch_add(1) == 0) {
      throw exareq::NumericError("transient failure");
    }
    return make_test_requirements(name);
  });
  EXPECT_THROW(registry.get("flaky"), exareq::NumericError);
  EXPECT_EQ(registry.stats().fit_failures, 1u);
  const auto models = registry.get("flaky");
  ASSERT_NE(models, nullptr);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(registry.stats().fits_completed, 1u);
}

TEST(ServeRegistryTest, PublishHotSwapsAndTracksVersions) {
  ModelRegistry registry;
  registry.insert(make_test_requirements("App"));
  const auto v1 = registry.version_of("app");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->source, VersionSource::kInsert);
  EXPECT_EQ(registry.stats().hot_swaps, 0u);  // first publish, no swap

  const std::uint64_t v2 = registry.publish(
      make_test_requirements("App"), VersionSource::kOnlineRefit,
      /*rows=*/25, /*mean_abs_relative_error=*/0.02);
  EXPECT_EQ(v2, 2u);
  const auto current = registry.version_of("App");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 2u);
  EXPECT_EQ(current->rows, 25u);
  EXPECT_DOUBLE_EQ(current->mean_abs_relative_error, 0.02);
  EXPECT_EQ(registry.stats().hot_swaps, 1u);
  EXPECT_EQ(registry.stats().apps, 1u);  // still one app, two versions
}

TEST(ServeRegistryTest, SourceNamesAreStable) {
  EXPECT_EQ(version_source_name(VersionSource::kInsert), "insert");
  EXPECT_EQ(version_source_name(VersionSource::kFile), "file");
  EXPECT_EQ(version_source_name(VersionSource::kFitOnDemand), "fit-on-demand");
  EXPECT_EQ(version_source_name(VersionSource::kOnlineRefit), "online-refit");
}

TEST(ServeRegistryTest, DefaultQualityIsUnknown) {
  ModelRegistry registry;
  registry.publish(make_test_requirements("app"), VersionSource::kFile);
  const auto snapshot = registry.version_of("app");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(std::isnan(snapshot->mean_abs_relative_error));
}

TEST(ServeRegistryTest, ModelInfosReportVersionProvenanceAndAge) {
  ModelRegistry registry;
  registry.insert(make_test_requirements("Beta"));
  registry.insert(make_test_requirements("Alpha"));
  registry.publish(make_test_requirements("Beta"),
                   VersionSource::kOnlineRefit, 12, 0.05);

  const auto infos = registry.model_infos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "Alpha");  // sorted by name
  EXPECT_EQ(infos[1].name, "Beta");
  EXPECT_EQ(infos[0].version, 1u);
  EXPECT_EQ(infos[1].version, 2u);
  EXPECT_EQ(infos[1].source, VersionSource::kOnlineRefit);
  EXPECT_EQ(infos[1].rows, 12u);
  EXPECT_GE(infos[0].age_seconds, 0.0);
}

TEST(ServeRegistryTest, FitGateIsExclusivePerApp) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.try_begin_fit("app"));
  EXPECT_FALSE(registry.try_begin_fit("APP"));  // same key, gate held
  EXPECT_TRUE(registry.try_begin_fit("other"));  // distinct apps don't block
  registry.end_fit("other", /*completed=*/false);
  registry.end_fit("app", /*completed=*/true);
  EXPECT_TRUE(registry.try_begin_fit("app"));  // released
  registry.end_fit("app", true);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.fits_started, 3u);
  EXPECT_EQ(stats.fits_completed, 2u);
  EXPECT_EQ(stats.fit_failures, 1u);
  EXPECT_EQ(stats.in_flight_fits, 0u);
}

}  // namespace
}  // namespace exareq::serve
