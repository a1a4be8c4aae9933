// Race tests for the hot-swap path, designed for the TSan preset
// (`ctest -R 'Online'` under --preset tsan): queries must never observe a
// partially-swapped model, and version ids must only move forward while
// ingest, refit, and fit-on-demand contend on one key.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../serve/serve_test_util.hpp"
#include "online/service.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace exareq::online {
namespace {

TEST(OnlineConcurrencyTest, ReadersSeeOnlyCompleteSnapshotsDuringPublishRace) {
  serve::ModelRegistry registry;
  constexpr int kPublishes = 400;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&registry, &done, &failed] {
      std::uint64_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = registry.version_of("app");
        if (snapshot == nullptr) continue;
        // A snapshot is all-or-nothing: its models pointer is set, its
        // provenance comes from the publish that made its version (publish
        // i carries rows i), and versions never run backwards.
        if (snapshot->models == nullptr || snapshot->models->name != "app" ||
            snapshot->version == 0 || snapshot->rows != snapshot->version ||
            snapshot->version < last_seen) {
          failed.store(true, std::memory_order_release);
          return;
        }
        last_seen = snapshot->version;
      }
    });
  }

  for (int i = 0; i < kPublishes; ++i) {
    registry.publish(serve::testing::make_test_requirements("app"),
                     serve::VersionSource::kOnlineRefit,
                     static_cast<std::uint64_t>(i + 1), 0.1);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_FALSE(failed.load());
  const auto last = registry.version_of("app");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->version, static_cast<std::uint64_t>(kPublishes));
  EXPECT_EQ(registry.stats().hot_swaps,
            static_cast<std::uint64_t>(kPublishes - 1));
}

TEST(OnlineConcurrencyTest, IngestRefitAndQueryRaceOnOneKey) {
  // Fit-on-demand and the online refitter share the registry's
  // single-flight gate; queries read the current snapshot. Hammer all
  // three on the same key and check that every observation is coherent.
  serve::ModelRegistry registry(
      [](const std::string& app) {
        return serve::testing::make_test_requirements(app);
      });

  OnlineServiceOptions options;
  options.policy.refit_rows = 2;
  auto fit = [](const pipeline::CampaignData& data) {
    pipeline::FittedBundle fitted;
    fitted.requirements = serve::testing::make_test_requirements(data.app_name);
    fitted.mean_abs_relative_error = 0.05;
    return fitted;
  };
  OnlineService service(registry, options, fit);

  constexpr int kBatches = 30;
  const char* kHeader =
      "p,n,bytes_used,flops,loads_stores,bytes_sent_received,stack_distance";

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::thread ingester([&service, &failed, kHeader] {
    for (int i = 0; i < kBatches; ++i) {
      const std::string line = std::string("ingest app ") + kHeader + ";" +
                               std::to_string(1 << (1 + i % 8)) + "," +
                               std::to_string(32 + i) + ",1e3,2e6,3e5,4e4,12.5";
      const serve::Request request = serve::parse_request(line);
      const std::string response = service.handle_ingest(request);
      if (response.rfind("ok ", 0) != 0) {
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  });

  std::thread querier([&registry, &done, &failed] {
    while (!done.load(std::memory_order_acquire)) {
      // get() may fit on demand; either way the bundle must be complete.
      const auto models = registry.get("app");
      if (models == nullptr || models->name.empty()) {
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  });

  std::thread inspector([&registry, &done, &failed] {
    std::uint64_t last_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto version = registry.version_of("app");
      if (version == nullptr) continue;
      if (version->models == nullptr || version->version < last_seen) {
        failed.store(true, std::memory_order_release);
        return;
      }
      last_seen = version->version;
    }
  });

  ingester.join();
  service.drain();
  done.store(true, std::memory_order_release);
  querier.join();
  inspector.join();

  EXPECT_FALSE(failed.load());
  const OnlineStats stats = service.stats();
  EXPECT_EQ(stats.rows_ingested, static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(stats.rows_pending, 0u);
  EXPECT_GE(stats.refits, 1u);
  const auto version = registry.version_of("app");
  ASSERT_NE(version, nullptr);
  EXPECT_NE(version->models, nullptr);
  // The final refit (after drain) saw every ingested row.
  EXPECT_GE(version->version, stats.last_version);
}

}  // namespace
}  // namespace exareq::online
