// Guards two hot paths against per-operation heap allocations. The
// measurement path: every TrackedBuffer element access runs a bounds
// check, and a check that built its message before testing its condition
// once allocated on every access. The model search: scoring a hypothesis
// once allocated about 30 times (a factorization copied per candidate, two
// vectors per leave-one-out fold, a string memo key per trial). This suite
// replaces the global allocation functions to count allocations, so it is
// its own executable (test_measure_allocations).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/application.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/measure.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete would otherwise flag the
// free() of a pointer it saw come from operator new.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* memory = std::malloc(bytes == 0 ? 1 : bytes)) return memory;
  throw std::bad_alloc();
}

// std::get_temporary_buffer (std::stable_sort) takes the nothrow form;
// replacing it too keeps it counted, and keeps a sanitizer's own nothrow
// allocation from being released by the free() below.
[[gnu::noinline]] void* operator new(std::size_t bytes,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}

[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory,
                                       const std::nothrow_t&) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace exareq::pipeline {
namespace {

std::uint64_t allocations_measuring_kripke(std::int64_t n) {
  const auto& app = apps::application(apps::AppId::kKripke);
  LocalityOptions locality;
  locality.enabled = false;
  const std::uint64_t before = g_allocations.load();
  const AppMeasurement measurement = measure_app(app, 4, n, locality);
  const std::uint64_t count = g_allocations.load() - before;
  EXPECT_GT(measurement.loads_stores, 0.0);
  return count;
}

TEST(MeasureAllocationsTest, KripkeAllocationsDoNotGrowWithProblemSize) {
  (void)allocations_measuring_kripke(64);  // first-use statics
  const std::uint64_t small = allocations_measuring_kripke(64);
  const std::uint64_t large = allocations_measuring_kripke(1024);
  EXPECT_GT(small, 0u);
  // n = 1024 counts 16x the operations of n = 64; an allocation per counted
  // operation or per element access would show up here.
  EXPECT_EQ(large, small);
}

TEST(FitAllocationsTest, ModelSearchAllocatesAtMostFivePerHypothesis) {
  CampaignConfig config;
  config.process_counts = {2, 4, 8, 16, 32};
  config.problem_sizes = {16, 32, 64, 128, 256};
  model::GeneratorOptions options;
  options.fit.threads = 1;
  for (const apps::AppId id : apps::all_app_ids()) {
    const apps::Application& app = apps::application(id);
    const CampaignData data = run_campaign(app, config);
    const std::uint64_t before = g_allocations.load();
    const RequirementModels models = model_requirements(data, options);
    const std::uint64_t count = g_allocations.load() - before;
    const std::size_t hypotheses = models.engine_stats().hypotheses_scored;
    ASSERT_GT(hypotheses, 0u) << app.name();
    // Models, pools, engines and their caches allocate per fit; scoring
    // one hypothesis reuses buffers and allocates nothing once they have
    // grown.
    EXPECT_LE(count, 5 * hypotheses)
        << app.name() << ": " << count << " allocations for " << hypotheses
        << " hypotheses ("
        << static_cast<double>(count) / static_cast<double>(hypotheses)
        << " per hypothesis)";
  }
}

}  // namespace
}  // namespace exareq::pipeline
