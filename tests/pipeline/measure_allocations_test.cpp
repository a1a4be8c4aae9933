// Guards the measurement hot path against per-operation heap allocations:
// every TrackedBuffer element access runs a bounds check, and a check that
// built its message before testing its condition once allocated on every
// access. This suite replaces the global allocation functions to count
// allocations, so it is its own executable (test_measure_allocations).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/application.hpp"
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

[[gnu::noinline]] void operator delete(void* memory) noexcept {
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

}  // namespace
}  // namespace exareq::pipeline
