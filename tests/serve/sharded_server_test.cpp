#include "serve/sharded_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"
#include "serve_test_util.hpp"
#include "support/error.hpp"

using exareq::serve::ModelRegistry;
using exareq::serve::Request;
using exareq::serve::RequestKind;
using exareq::serve::ShardedServer;
using exareq::serve::ShardedServerOptions;
using exareq::serve::testing::make_test_requirements;

namespace {

const std::vector<std::string> kApps = {"lulesh", "hpcg",  "amg",
                                        "relearn", "milc", "kripke",
                                        "quicksilver", "laghos"};

ShardedServerOptions options_with(std::size_t shards) {
  ShardedServerOptions options;
  options.shards = shards;
  return options;
}

void load_apps(ShardedServer& server) {
  for (const std::string& app : kApps) {
    server.insert(make_test_requirements(app));
  }
}

Request eval_request(const std::string& app, double p, double n) {
  Request request;
  request.kind = RequestKind::kEval;
  request.app = app;
  request.metric = "flops";
  request.p = p;
  request.n = n;
  return request;
}

}  // namespace

TEST(ShardedServerTest, PartitionIsStableAndCaseInsensitive) {
  EXPECT_EQ(ShardedServer::shard_of("lulesh", 4),
            ShardedServer::shard_of("LULESH", 4));
  EXPECT_EQ(ShardedServer::shard_of("lulesh", 4),
            ShardedServer::shard_of("lulesh", 4));
  // With enough apps every shard of a small cluster owns at least one.
  std::set<std::size_t> hit;
  for (const std::string& app : kApps) {
    hit.insert(ShardedServer::shard_of(app, 2));
  }
  EXPECT_EQ(hit.size(), 2u);
}

TEST(ShardedServerTest, AnswersMatchSingleEngineAcrossShardCounts) {
  // Reference: one unsharded engine over all apps.
  ModelRegistry reference_registry;
  for (const std::string& app : kApps) {
    reference_registry.insert(make_test_requirements(app));
  }
  exareq::serve::QueryEngine reference(reference_registry);

  std::vector<std::string> lines;
  for (const std::string& app : kApps) {
    lines.push_back("eval " + app + " flops 64 100");
    lines.push_back("eval " + app + " stack_distance 1 4096");
    lines.push_back("invert " + app + " 1024 1e9");
    lines.push_back("upgrade " + app + " 512 2e9");
    lines.push_back("strawman " + app);
  }

  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardedServer server(options_with(shards));
    load_apps(server);
    for (const std::string& line : lines) {
      EXPECT_EQ(server.handle_line(line), reference.answer_line(line))
          << "shards=" << shards << " line=" << line;
    }
  }
}

TEST(ShardedServerTest, BatchPreservesRequestOrderAcrossShards) {
  ShardedServer server(options_with(4));
  load_apps(server);
  std::vector<Request> batch;
  std::vector<std::string> expected;
  for (int round = 0; round < 8; ++round) {
    for (const std::string& app : kApps) {
      const double n = 10.0 + round;
      batch.push_back(eval_request(app, 64.0, n));
      expected.push_back(server.handle(eval_request(app, 64.0, n)));
    }
  }
  const std::vector<std::string> responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(responses[i], expected[i]) << "index " << i;
  }
}

TEST(ShardedServerTest, ModelsLandOnExactlyOneShard) {
  ShardedServer server(options_with(4));
  load_apps(server);
  std::size_t total = 0;
  for (const auto& status : server.shard_statuses()) {
    total += status.apps.size();
    for (const std::string& app : status.apps) {
      EXPECT_EQ(server.shard_of(app), status.shard) << app;
    }
  }
  EXPECT_EQ(total, kApps.size());
}

TEST(ShardedServerTest, UnknownAppAndBadRequestsAnswerErrors) {
  ShardedServer server(options_with(2));
  load_apps(server);
  EXPECT_EQ(server.handle_line("eval nosuch flops 64 100").rfind("error", 0),
            0u);
  EXPECT_EQ(server.handle_line("eval lulesh watts 64 100"),
            "error bad-request: unknown metric 'watts' (expected "
            "footprint|flops|comm_bytes|loads_stores|stack_distance|"
            "io_bytes|energy_proxy)");
  EXPECT_EQ(server.handle_line("bogus").rfind("error bad-request", 0), 0u);
}

TEST(ShardedServerTest, StatusAnsweredAtFrontEndWithShardCount) {
  ShardedServer server(options_with(3));
  load_apps(server);
  server.handle_line("eval lulesh flops 64 100");
  Request status;
  status.kind = RequestKind::kStatus;
  const std::string response = server.handle(status);
  EXPECT_EQ(response.rfind("ok status ", 0), 0u);
  EXPECT_NE(response.find("shards=3"), std::string::npos);
  EXPECT_NE(response.find("requests="), std::string::npos);
}

TEST(ShardedServerTest, StatusReportListsEveryShard) {
  ShardedServer server(options_with(4));
  load_apps(server);
  server.handle_line("eval lulesh flops 64 100");
  server.handle_line("eval lulesh flops 64 100");
  const std::string report = server.status_report();
  EXPECT_NE(report.find("Shard"), std::string::npos);
  EXPECT_NE(report.find("Queue"), std::string::npos);
  EXPECT_NE(report.find("p50 [us]"), std::string::npos);
  EXPECT_NE(report.find("lulesh v1"), std::string::npos);
}

TEST(ShardedServerTest, PerShardCachesCountHitsLocally) {
  ShardedServer server(options_with(4));
  load_apps(server);
  const Request request = eval_request("lulesh", 64.0, 100.0);
  server.handle(request);  // miss
  server.handle(request);  // hit, on lulesh's shard only
  const auto statuses = server.shard_statuses();
  const std::size_t owner = server.shard_of("lulesh");
  for (const auto& status : statuses) {
    if (status.shard == owner) {
      EXPECT_EQ(status.metrics.cache_hits, 1u);
      EXPECT_EQ(status.metrics.cache_misses, 1u);
    } else {
      EXPECT_EQ(status.metrics.cache_hits, 0u);
      EXPECT_EQ(status.metrics.cache_misses, 0u);
    }
  }
  EXPECT_EQ(server.metrics().cache_hits, 1u);
}

TEST(ShardedServerTest, MixedBatchAnswersEachRecordIndependently) {
  ShardedServer server(options_with(2));
  load_apps(server);
  std::vector<Request> batch;
  batch.push_back(eval_request("lulesh", 64.0, 100.0));
  Request bad = eval_request("hpcg", 0.5, 100.0);  // coordinates below 1
  batch.push_back(bad);
  Request status;
  status.kind = RequestKind::kStatus;
  batch.push_back(status);
  const auto responses = server.submit_batch(batch);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].rfind("ok eval ", 0), 0u);
  EXPECT_EQ(responses[1], "error bad-request: eval coordinates must be >= 1");
  EXPECT_EQ(responses[2].rfind("ok status ", 0), 0u);
}

TEST(ShardedServerTest, IngestWithoutHooksIsRejected) {
  ShardedServer server(options_with(2));
  load_apps(server);
  EXPECT_EQ(server.handle_line("ingest lulesh p,n,footprint;64,100,123"),
            "error bad-request: ingest is not enabled on this server");
}

TEST(ShardedServerTest, IngestRoutesToTheOwningShardHook) {
  ShardedServer server(options_with(4));
  load_apps(server);
  std::vector<std::atomic<int>> calls(4);
  for (std::size_t i = 0; i < 4; ++i) {
    exareq::serve::OnlineHooks hooks;
    hooks.ingest = [&calls, i](const Request& request) {
      calls[i].fetch_add(1);
      return exareq::serve::ok_response("ingest shard=" + std::to_string(i) +
                                        " app=" + request.app);
    };
    server.set_online_hooks(i, hooks);
  }
  const std::size_t owner = server.shard_of("lulesh");
  const std::string response =
      server.handle_line("ingest lulesh p,n,footprint;64,100,123");
  EXPECT_EQ(response,
            "ok ingest shard=" + std::to_string(owner) + " app=lulesh");
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(calls[i].load(), i == owner ? 1 : 0);
  }
}

TEST(ShardedServerTest, DeadlineExpiredBatchesAreDropped) {
  ShardedServerOptions options = options_with(1);
  options.deadline = std::chrono::milliseconds(1);
  ShardedServer server(options);
  load_apps(server);
  // Saturate the single shard with a slow-ish batch, then observe that a
  // batch enqueued behind it can expire. Deterministic alternative: the
  // deadline is checked against the front end's enqueue stamp, so a batch
  // that sat in the shard queue past the deadline answers `error deadline`.
  // Simplest deterministic probe: drive many batches from several threads
  // and require only that every response is one of the two legal outcomes.
  std::atomic<int> deadline_errors{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const std::string response =
            server.handle(eval_request("lulesh", 64.0, 100.0 + i % 7));
        if (response.rfind("error deadline", 0) == 0) {
          deadline_errors.fetch_add(1);
        } else {
          EXPECT_EQ(response.rfind("ok eval ", 0), 0u) << response;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  // Whether any deadline fired is timing-dependent; the invariant under
  // test is that expired work is *counted* as dropped, never half-done.
  EXPECT_EQ(server.metrics().deadline_drops,
            static_cast<std::uint64_t>(deadline_errors.load()));
}

TEST(ShardedServerTest, ShedsWhenAShardQueueIsFull) {
  ShardedServerOptions options = options_with(1);
  options.queue_capacity = 1;
  ShardedServer server(options);
  load_apps(server);
  // Many concurrent clients against capacity 1: some must shed.
  std::atomic<int> sheds{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const std::string response =
            server.handle(eval_request("lulesh", 64.0, 100.0 + i % 5));
        if (response.rfind("error shed", 0) == 0) {
          sheds.fetch_add(1);
        } else {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(sheds.load() + answered.load(), 200);
  EXPECT_EQ(server.metrics().sheds, static_cast<std::uint64_t>(sheds.load()));
  EXPECT_EQ(server.metrics().requests, 200u);
}

TEST(ShardedServerTest, StopDrainsThenRejectsNewWork) {
  ShardedServer server(options_with(2));
  load_apps(server);
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 100").rfind("ok", 0), 0u);
  server.stop();
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 100"),
            "error shutdown: server is no longer accepting requests");
  server.stop();  // idempotent
}

TEST(ShardedServerTest, LoadFileRoutesToOwningShard) {
  ModelRegistry scratch;
  scratch.insert(make_test_requirements("lulesh"));
  // Round-trip through a bundle file via the registry's own serializer
  // path is covered in registry tests; here route a prebuilt bundle.
  ShardedServer server(options_with(4));
  server.insert(make_test_requirements("lulesh"));
  const std::size_t owner = server.shard_of("lulesh");
  EXPECT_EQ(server.registry(owner).app_names(),
            std::vector<std::string>{"lulesh"});
}

TEST(ShardedServerConcurrencyTest, ParallelClientsGetConsistentAnswers) {
  ShardedServer server(options_with(4));
  load_apps(server);
  // Precompute expected answers single-threaded.
  std::vector<Request> batch;
  for (const std::string& app : kApps) {
    for (int n = 10; n < 26; ++n) {
      batch.push_back(eval_request(app, 64.0, n));
    }
  }
  const std::vector<std::string> expected = server.submit_batch(batch);

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        const std::vector<std::string> responses = server.submit_batch(batch);
        if (responses != expected) failed.store(true);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(server.metrics().responses_ok,
            static_cast<std::uint64_t>(batch.size()) * (1 + 6 * 20));
}

TEST(ShardedServerConcurrencyTest, ConcurrentSubmitAndStopIsSafe) {
  for (int iteration = 0; iteration < 5; ++iteration) {
    ShardedServer server(options_with(2));
    load_apps(server);
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&] {
        for (int i = 0; i < 30; ++i) {
          const std::string response =
              server.handle(eval_request("lulesh", 64.0, 100.0 + i));
          const bool ok = response.rfind("ok eval ", 0) == 0;
          const bool shutdown = response.rfind("error shutdown", 0) == 0;
          EXPECT_TRUE(ok || shutdown) << response;
        }
      });
    }
    server.stop();
    for (auto& client : clients) client.join();
  }
}
