// OnlineService end to end: ingest over the serve protocol, policy-driven
// refits, hot-swap, the quality guard, failure handling, and status
// reporting.
#include "online/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../serve/serve_test_util.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/sharded_server.hpp"
#include "support/error.hpp"

namespace exareq::online {
namespace {

const char* kHeader =
    "p,n,bytes_used,flops,loads_stores,bytes_sent_received,stack_distance";

std::string ingest_line(const std::string& app, int rows, int p0 = 4) {
  std::string line = "ingest " + app + " " + kHeader;
  for (int i = 0; i < rows; ++i) {
    const int p = p0 << i;
    line += ";" + std::to_string(p) + ",64,1e3,2e6,3e5,4e4,12.5";
  }
  return line;
}

/// A fit seam that records how many rows each fit saw, and of which app,
/// and returns a synthetic bundle with a scripted quality sequence.
struct ScriptedFitter {
  std::vector<double> qualities{0.1};
  std::atomic<int> calls{0};
  std::mutex mutex;
  std::vector<std::size_t> rows_seen;
  std::vector<std::string> apps_seen;

  OnlineService::FitFn fn() {
    return [this](const pipeline::CampaignData& data) {
      const int call = calls.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mutex);
        rows_seen.push_back(data.measurements.size());
        apps_seen.push_back(data.app_name);
      }
      pipeline::FittedBundle bundle;
      bundle.requirements =
          serve::testing::make_test_requirements(data.app_name);
      bundle.mean_abs_relative_error =
          qualities[std::min<std::size_t>(static_cast<std::size_t>(call),
                                          qualities.size() - 1)];
      return bundle;
    };
  }
};

/// A clock the test advances by hand while the worker reads it.
struct ManualClock {
  std::mutex mutex;
  std::chrono::steady_clock::time_point now{};

  void advance(std::chrono::milliseconds by) {
    std::lock_guard<std::mutex> lock(mutex);
    now += by;
  }
  OnlineService::Clock fn() {
    return [this] {
      std::lock_guard<std::mutex> lock(mutex);
      return now;
    };
  }
};

/// Polls `done` for up to five seconds: the worker refits asynchronously.
template <typename Done>
bool wait_until(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(OnlineServiceTest, IngestThroughServerRefitsAndHotSwaps) {
  serve::ShardedServer server(serve::ShardedServerOptions{.shards = 1});
  serve::ModelRegistry& registry = server.registry(0);
  OnlineServiceOptions options;
  options.policy.refit_rows = 3;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());
  server.set_online_hooks(0, service.hooks());

  const std::string response = server.handle_line(ingest_line("TestApp", 3));
  EXPECT_EQ(response.rfind("ok ingest accepted=3 pending=3", 0), 0u)
      << response;
  service.drain();

  const auto version = registry.version_of("TestApp");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->version, 1u);
  EXPECT_EQ(version->source, serve::VersionSource::kOnlineRefit);
  EXPECT_EQ(version->rows, 3u);
  EXPECT_DOUBLE_EQ(version->mean_abs_relative_error, 0.1);
  ASSERT_EQ(fitter.rows_seen.size(), 1u);
  EXPECT_EQ(fitter.rows_seen[0], 3u);

  // The refitted model answers queries.
  const std::string eval = server.handle_line("eval TestApp footprint 4 64");
  EXPECT_EQ(eval.rfind("ok eval ", 0), 0u) << eval;

  // The status line carries the online fields.
  const std::string status = server.handle_line("status");
  EXPECT_NE(status.find("online_rows=3"), std::string::npos) << status;
  EXPECT_NE(status.find("online_refits=1"), std::string::npos) << status;
  // The --status report gains the per-model version/age table and the
  // online table.
  const std::string report = server.status_report();
  EXPECT_NE(report.find("online-refit"), std::string::npos) << report;
  EXPECT_NE(report.find("Age [s]"), std::string::npos) << report;
  EXPECT_NE(report.find("rows ingested"), std::string::npos) << report;
  // Shard threads call the service's hooks, so the server stops first.
  server.stop();
}

TEST(OnlineServiceTest, ConcurrentIngestAndDrainRefitOnlyOnNewRows) {
  // An ingester and a draining thread race on one app. A refit runs only
  // on rows that no earlier refit took, so every refit's dataset is
  // strictly larger than the last one and the final one holds every row.
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 2;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());

  std::atomic<bool> ingesting{true};
  std::thread drainer([&service, &ingesting] {
    while (ingesting.load()) service.drain();
  });
  std::size_t total = 0;
  for (int i = 0; i < 60; ++i) {
    const int rows = 1 + i % 3;
    const std::string response = service.handle_ingest(
        serve::parse_request(ingest_line("app", rows, 4 + i)));
    EXPECT_EQ(response.rfind("ok ingest", 0), 0u) << response;
    total += static_cast<std::size_t>(rows);
  }
  ingesting.store(false);
  drainer.join();
  service.drain();

  const OnlineStats stats = service.stats();
  EXPECT_EQ(stats.rows_pending, 0u);
  ASSERT_FALSE(fitter.rows_seen.empty());
  EXPECT_EQ(stats.refits, fitter.rows_seen.size());
  for (std::size_t i = 1; i < fitter.rows_seen.size(); ++i) {
    EXPECT_GT(fitter.rows_seen[i], fitter.rows_seen[i - 1]) << "refit " << i;
  }
  EXPECT_EQ(fitter.rows_seen.back(), total);
  ASSERT_NE(registry.version_of("app"), nullptr);
  EXPECT_EQ(registry.version_of("app")->rows, total);
}

TEST(OnlineServiceTest, RowsStayPendingWhileAQueryTriggeredFitHoldsTheGate) {
  // A query-triggered fit of "app" holds the registry's single-flight gate
  // until the test releases it. Rows that reach the row trigger meanwhile
  // stay pending: counted, ageing, and refitted once the gate frees.
  std::promise<void> fit_started;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  serve::ModelRegistry registry([&](const std::string& app) {
    fit_started.set_value();
    released.wait();
    return serve::testing::make_test_requirements(app);
  });
  OnlineServiceOptions options;
  options.policy.refit_rows = 3;
  ScriptedFitter fitter;
  ManualClock clock;
  OnlineService service(registry, options, fitter.fn(), clock.fn());

  std::thread query([&registry] { registry.get("app"); });
  fit_started.get_future().wait();
  const std::string response =
      service.handle_ingest(serve::parse_request(ingest_line("app", 3)));
  EXPECT_EQ(response.rfind("ok ingest accepted=3 pending=3", 0), 0u)
      << response;
  // The app is due; give the worker time to find its gate busy.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  OnlineStats stats = service.stats();
  EXPECT_EQ(stats.rows_pending, 3u);
  EXPECT_EQ(stats.refits, 0u);
  EXPECT_DOUBLE_EQ(stats.staleness_seconds, 0.0);
  clock.advance(std::chrono::milliseconds(1500));
  stats = service.stats();
  EXPECT_EQ(stats.rows_pending, 3u);
  EXPECT_DOUBLE_EQ(stats.staleness_seconds, 1.5);

  release.set_value();
  query.join();
  service.drain();
  stats = service.stats();
  EXPECT_EQ(stats.refits, 1u);
  EXPECT_EQ(stats.rows_pending, 0u);
  EXPECT_DOUBLE_EQ(stats.staleness_seconds, 0.0);
  EXPECT_EQ(fitter.rows_seen, std::vector<std::size_t>{3});
  const auto version = registry.version_of("app");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->version, 2u);  // the query's fit, then the refit
  EXPECT_EQ(version->source, serve::VersionSource::kOnlineRefit);
  EXPECT_EQ(version->rows, 3u);
}

TEST(OnlineServiceTest, RowCountThresholdMakesKeyDue) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 3;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());

  EXPECT_EQ(service.handle_ingest(serve::parse_request(ingest_line("app", 2)))
                .rfind("ok ingest accepted=2 pending=2", 0),
            0u);
  EXPECT_EQ(service.stats().rows_pending, 2u);  // below the threshold
  EXPECT_EQ(
      service.handle_ingest(serve::parse_request(ingest_line("app", 1, 16)))
          .rfind("ok ingest accepted=1 pending=3", 0),
      0u);
  // The third row makes the app due: the worker refits without a drain.
  ASSERT_TRUE(wait_until([&service] { return service.stats().refits == 1; }));
  EXPECT_EQ(service.stats().rows_pending, 0u);
  EXPECT_EQ(fitter.rows_seen, std::vector<std::size_t>{3});
}

TEST(OnlineServiceTest, StalenessMakesKeyDueUnderInjectedClock) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 0;  // only the staleness trigger
  options.policy.max_staleness = std::chrono::milliseconds(100);
  ScriptedFitter fitter;
  ManualClock clock;
  OnlineService service(registry, options, fitter.fn(), clock.fn());

  service.handle_ingest(serve::parse_request(ingest_line("app", 1)));
  EXPECT_DOUBLE_EQ(service.stats().staleness_seconds, 0.0);
  clock.advance(std::chrono::milliseconds(50));
  EXPECT_DOUBLE_EQ(service.stats().staleness_seconds, 0.05);
  EXPECT_EQ(service.stats().rows_pending, 1u);  // not due yet

  // Hold the gate so the now-due app stays pending while its age is read.
  ASSERT_TRUE(registry.try_begin_fit("app"));
  clock.advance(std::chrono::milliseconds(200));
  EXPECT_DOUBLE_EQ(service.stats().staleness_seconds, 0.25);
  EXPECT_EQ(service.stats().rows_pending, 1u);
  registry.end_fit("app", false);

  ASSERT_TRUE(wait_until([&service] { return service.stats().refits == 1; }));
  EXPECT_EQ(service.stats().rows_pending, 0u);
  EXPECT_DOUBLE_EQ(service.stats().staleness_seconds, 0.0);
  EXPECT_EQ(fitter.rows_seen, std::vector<std::size_t>{1});
}

TEST(OnlineServiceTest, BoundedMemoryRejectsOverflowingBatch) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 0;  // nothing takes the pending rows
  options.policy.max_pending_rows = 3;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());

  service.handle_ingest(serve::parse_request(ingest_line("app", 2)));
  const std::string rejected =
      service.handle_ingest(serve::parse_request(ingest_line("app", 2, 16)));
  EXPECT_EQ(rejected.rfind("error overload:", 0), 0u) << rejected;
  // The rejected batch left nothing behind.
  EXPECT_EQ(service.stats().rows_pending, 2u);
  // A batch that fits still goes through.
  const std::string accepted =
      service.handle_ingest(serve::parse_request(ingest_line("app", 1, 64)));
  EXPECT_EQ(accepted.rfind("ok ingest accepted=1 pending=3", 0), 0u)
      << accepted;
  const OnlineStats stats = service.stats();
  EXPECT_EQ(stats.rows_pending, 3u);
  EXPECT_EQ(stats.batches_accepted, 2u);
  EXPECT_EQ(stats.batches_rejected, 1u);
}

TEST(OnlineServiceTest, KeysAreIndependent) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 2;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());

  service.handle_ingest(serve::parse_request(ingest_line("a", 1)));
  service.handle_ingest(serve::parse_request(ingest_line("b", 2)));
  // Only "b" reached the row trigger.
  ASSERT_TRUE(wait_until([&service] { return service.stats().refits == 1; }));
  EXPECT_EQ(service.stats().rows_pending, 1u);
  EXPECT_EQ(fitter.apps_seen, std::vector<std::string>{"b"});
  EXPECT_EQ(registry.version_of("a"), nullptr);

  service.drain();
  EXPECT_EQ(service.stats().rows_pending, 0u);
  EXPECT_EQ(fitter.apps_seen, (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(fitter.rows_seen, (std::vector<std::size_t>{2, 1}));
}

TEST(OnlineServiceTest, BelowThresholdRowsStayPendingUntilDrain) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 100;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());

  serve::Request request = serve::parse_request(ingest_line("app", 2));
  const std::string response = service.handle_ingest(request);
  EXPECT_EQ(response.rfind("ok ingest accepted=2 pending=2", 0), 0u);
  EXPECT_EQ(service.stats().rows_pending, 2u);
  EXPECT_EQ(registry.version_of("app"), nullptr);

  service.drain();  // force-flushes below-threshold rows
  EXPECT_EQ(service.stats().rows_pending, 0u);
  ASSERT_NE(registry.version_of("app"), nullptr);
  EXPECT_EQ(registry.version_of("app")->rows, 2u);
}

TEST(OnlineServiceTest, MalformedPayloadIsStructuredBadRequest) {
  serve::ModelRegistry registry;
  ScriptedFitter fitter;
  OnlineService service(registry, {}, fitter.fn());
  serve::Request request =
      serve::parse_request("ingest app p,n;4,not-a-number");
  const std::string response = service.handle_ingest(request);
  EXPECT_EQ(response.rfind("error bad-request:", 0), 0u) << response;
  EXPECT_EQ(service.stats().batches_rejected, 1u);
  EXPECT_EQ(service.stats().rows_ingested, 0u);
}

TEST(OnlineServiceTest, FullBufferIsStructuredOverloadError) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 0;  // nothing drains the buffer
  options.policy.max_pending_rows = 3;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());

  const serve::Request first =
      serve::parse_request(ingest_line("app", 2));
  EXPECT_EQ(service.handle_ingest(first).rfind("ok ", 0), 0u);
  const serve::Request second =
      serve::parse_request(ingest_line("app", 2, 16));
  const std::string response = service.handle_ingest(second);
  EXPECT_EQ(response.rfind("error overload:", 0), 0u) << response;
  EXPECT_NE(response.find("retry after a refit"), std::string::npos);
  EXPECT_EQ(service.stats().rows_pending, 2u);
}

TEST(OnlineServiceTest, StalenessTriggersRefitWithoutReachingRowThreshold) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 0;
  options.policy.max_staleness = std::chrono::milliseconds(50);
  ScriptedFitter fitter;
  auto now = std::chrono::steady_clock::time_point{};
  std::mutex clock_mutex;
  OnlineService service(registry, options, fitter.fn(),
                        [&now, &clock_mutex] {
                          std::lock_guard<std::mutex> lock(clock_mutex);
                          return now;
                        });

  const serve::Request request = serve::parse_request(ingest_line("app", 1));
  ASSERT_EQ(service.handle_ingest(request).rfind("ok ", 0), 0u);
  {
    std::lock_guard<std::mutex> lock(clock_mutex);
    now += std::chrono::milliseconds(200);
  }
  // The worker polls staleness every ~20ms of real time.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().refits == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.stats().refits, 1u);
  ASSERT_NE(registry.version_of("app"), nullptr);
  EXPECT_EQ(registry.version_of("app")->source,
            serve::VersionSource::kOnlineRefit);
}

TEST(OnlineServiceTest, QualityRegressionIsNeverPublished) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 1;
  options.refit.max_quality_regression = 0.1;
  ScriptedFitter fitter;
  fitter.qualities = {0.1, 0.9};  // second refit is much worse
  OnlineService service(registry, options, fitter.fn());

  const serve::Request first = serve::parse_request(ingest_line("app", 1));
  service.handle_ingest(first);
  service.drain();
  const auto v1 = registry.version_of("app");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);

  const serve::Request second =
      serve::parse_request(ingest_line("app", 1, 16));
  service.handle_ingest(second);
  service.drain();

  const OnlineStats stats = service.stats();
  EXPECT_EQ(fitter.calls.load(), 2);
  EXPECT_EQ(stats.refits, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.last_version, 1u);
  // The guard runs before the publish: the v1 snapshot itself is still
  // current and the registry never swapped, so no query could have been
  // answered from the rejected fit.
  EXPECT_EQ(registry.version_of("app"), v1);
  EXPECT_EQ(registry.stats().hot_swaps, 0u);
}

TEST(OnlineServiceTest, FitFailureKeepsServingThePreviousVersion) {
  serve::ModelRegistry registry;
  OnlineServiceOptions options;
  options.policy.refit_rows = 1;
  std::atomic<int> calls{0};
  auto fit = [&calls](const pipeline::CampaignData& data) {
    if (calls.fetch_add(1) >= 1) {
      throw exareq::InvalidArgument("synthetic fit failure");
    }
    pipeline::FittedBundle bundle;
    bundle.requirements = serve::testing::make_test_requirements(data.app_name);
    bundle.mean_abs_relative_error = 0.1;
    return bundle;
  };
  OnlineService service(registry, options, fit);

  service.handle_ingest(serve::parse_request(ingest_line("app", 1)));
  service.drain();
  const auto v1 = registry.version_of("app");
  ASSERT_NE(v1, nullptr);

  service.handle_ingest(serve::parse_request(ingest_line("app", 1, 16)));
  service.drain();
  const OnlineStats stats = service.stats();
  EXPECT_EQ(stats.refit_failures, 1u);
  EXPECT_EQ(stats.refits, 1u);
  // Still serving the last good version.
  EXPECT_EQ(registry.version_of("app")->models, v1->models);
}

TEST(OnlineServiceTest, IngestWithoutHooksIsRejectedByServer) {
  // Online hooks are per shard: a shard without them rejects ingest even
  // while another shard runs an OnlineService.
  serve::ShardedServer server(serve::ShardedServerOptions{.shards = 2});
  const std::size_t hooked = server.shard_of("app");
  std::string other;  // an app owned by the shard without hooks
  for (int i = 0; other.empty(); ++i) {
    const std::string name = "app" + std::to_string(i);
    if (server.shard_of(name) != hooked) other = name;
  }
  server.insert(serve::testing::make_test_requirements(other));
  ScriptedFitter fitter;
  OnlineService service(server.registry(hooked), OnlineServiceOptions{},
                        fitter.fn());
  server.set_online_hooks(hooked, service.hooks());

  const std::string response = server.handle_line(ingest_line(other, 1));
  EXPECT_EQ(response.rfind("error bad-request:", 0), 0u) << response;
  EXPECT_NE(response.find("not enabled"), std::string::npos) << response;
  const std::string accepted = server.handle_line(ingest_line("app", 1));
  EXPECT_EQ(accepted.rfind("ok ingest accepted=1", 0), 0u) << accepted;
  EXPECT_EQ(service.stats().rows_ingested, 1u);
  // Shard threads call the service's hooks, so the server stops first.
  server.stop();
}

TEST(OnlineServiceTest, CachedAnswersAfterARefitMatchAnUncachedEngine) {
  // The result cache holds answers of version 1 when a refit publishes
  // version 2. After the drain every answer must be version 2's: the same
  // request on a fresh engine without a cache.
  serve::ShardedServer server(serve::ShardedServerOptions{.shards = 2});
  const std::size_t owner = server.shard_of("Kripke");
  serve::ModelRegistry& registry = server.registry(owner);
  server.insert(serve::testing::make_test_requirements("Kripke"));
  OnlineServiceOptions options;
  options.policy.refit_rows = 3;
  // The refit doubles the flops and footprint models, so every answer that
  // reads them changes.
  const auto fit = [](const pipeline::CampaignData& data) {
    using model::Model;
    using model::Term;
    pipeline::FittedBundle bundle;
    bundle.requirements = serve::testing::make_test_requirements(data.app_name);
    bundle.requirements.flops =
        Model({"p", "n"}, 200.0, {Term{8.0, {model::pmnf_factor(1, 2.0, 0.0)}}});
    bundle.requirements.footprint = Model(
        {"p", "n"}, 2048.0, {Term{16.0, {model::pmnf_factor(1, 1.0, 0.0)}}});
    bundle.mean_abs_relative_error = 0.1;
    return bundle;
  };
  OnlineService service(registry, options, fit);
  server.set_online_hooks(owner, service.hooks());

  const std::vector<std::string> queries = {
      "eval Kripke flops 64 1024", "eval kripke footprint 8 256",
      "invert Kripke 65536 2e9", "upgrade Kripke 65536 2e9",
      "strawman Kripke"};
  std::vector<std::string> before;
  for (const std::string& query : queries) {
    before.push_back(server.handle_line(query));
    ASSERT_EQ(server.handle_line(query), before.back()) << query;  // cached
  }
  ASSERT_EQ(server.handle_line(ingest_line("Kripke", 3)).rfind("ok ingest", 0),
            0u);
  service.drain();
  ASSERT_EQ(registry.version_of("Kripke")->version, 2u);

  serve::QueryEngine uncached(registry);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string answer = server.handle_line(queries[i]);
    EXPECT_EQ(answer, uncached.answer_line(queries[i])) << queries[i];
    if (i < 2) {
      EXPECT_NE(answer, before[i]) << queries[i];
    }
  }
  server.stop();
}

TEST(OnlineServiceTest, StatusAfterIngestInOneBatchCountsItsRows) {
  serve::ShardedServer server(serve::ShardedServerOptions{.shards = 3});
  const std::size_t owner = server.shard_of("TestApp");
  OnlineServiceOptions options;
  options.policy.refit_rows = 100;  // no refit: only the counters move
  ScriptedFitter fitter;
  OnlineService service(server.registry(owner), options, fitter.fn());
  server.set_online_hooks(owner, service.hooks());

  const std::vector<std::string> responses = server.submit_batch(
      {serve::parse_request(ingest_line("TestApp", 25)),
       serve::parse_request("status")});
  EXPECT_EQ(responses[0].rfind("ok ingest accepted=25", 0), 0u)
      << responses[0];
  EXPECT_EQ(responses[1].rfind("ok status requests=2 ok=2 ", 0), 0u)
      << responses[1];
  EXPECT_NE(responses[1].find(" online_rows=25 "), std::string::npos)
      << responses[1];
  server.stop();
}

TEST(OnlineServiceTest, RefitKeepsTheRegisteredName) {
  // Rows ingested as "kripke" refit the bundle registered as "Kripke"; an
  // app the registry does not hold yet takes its first ingest's spelling.
  serve::ShardedServer server(serve::ShardedServerOptions{.shards = 1});
  serve::ModelRegistry& registry = server.registry(0);
  server.insert(serve::testing::make_test_requirements("Kripke"));
  OnlineServiceOptions options;
  options.policy.refit_rows = 3;
  ScriptedFitter fitter;
  OnlineService service(registry, options, fitter.fn());
  server.set_online_hooks(0, service.hooks());

  ASSERT_EQ(server.handle_line(ingest_line("kripke", 3)).rfind("ok ", 0), 0u);
  ASSERT_EQ(server.handle_line(ingest_line("NewApp", 3)).rfind("ok ", 0), 0u);
  ASSERT_EQ(server.handle_line(ingest_line("NEWAPP", 3, 64)).rfind("ok ", 0),
            0u);
  service.drain();

  const auto kripke = registry.version_of("kripke");
  ASSERT_NE(kripke, nullptr);
  EXPECT_EQ(kripke->version, 2u);
  EXPECT_EQ(kripke->source, serve::VersionSource::kOnlineRefit);
  EXPECT_EQ(kripke->models->name, "Kripke");
  const auto fresh = registry.version_of("newapp");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->models->name, "NewApp");
  EXPECT_EQ(registry.app_names(),
            (std::vector<std::string>{"Kripke", "NewApp"}));
  server.stop();
}

}  // namespace
}  // namespace exareq::online
