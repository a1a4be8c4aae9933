#include "serve/sharded_server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "codesign/requirements.hpp"
#include "model/serialize.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"
#include "serve_test_util.hpp"
#include "support/error.hpp"

using exareq::serve::MetricsSnapshot;
using exareq::serve::ModelRegistry;
using exareq::serve::Request;
using exareq::serve::RequestKind;
using exareq::serve::ShardedServer;
using exareq::serve::ShardedServerOptions;
using exareq::serve::render_value;
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

/// Polls `done` every millisecond for up to 30 s; false on timeout.
bool poll_until(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Registries whose fit-on-demand blocks until release(). A request for an
/// app no shard has loaded holds its shard inside the fit, so a test can
/// queue batches behind it deterministically. Release before the server
/// stops, or its shard never finishes the fit.
class FitGate {
 public:
  ShardedServer::RegistryFactory factory() {
    return [this] {
      return std::make_unique<ModelRegistry>([this](const std::string& name) {
        fitting_.store(true);
        released_.wait();
        return make_test_requirements(name);
      });
    };
  }
  bool fitting() const { return fitting_.load(); }
  void release() {
    std::call_once(released_once_, [this] { gate_.set_value(); });
  }

 private:
  std::atomic<bool> fitting_{false};
  std::promise<void> gate_;
  std::shared_future<void> released_ = gate_.get_future().share();
  std::once_flag released_once_;
};

std::future<std::string> submit_async(ShardedServer& server,
                                      std::string line) {
  return std::async(std::launch::async, [&server, line = std::move(line)] {
    return server.handle_line(line);
  });
}

/// True once the shard's queue holds `depth` batches.
bool queue_depth_reaches(const ShardedServer& server, std::size_t depth,
                         std::size_t shard = 0) {
  return poll_until(
      [&] { return server.shard_statuses()[shard].queue_depth == depth; });
}

/// Submits a request for the unloaded app "gated" and returns once its fit
/// holds the shard. A slow shard wake-up (e.g. under TSan) can expire the
/// gated batch's own deadline before its fit begins: each such batch must
/// answer `expired`, is counted in `drops`, and is submitted again.
std::future<std::string> hold_shard_in_fit(ShardedServer& server,
                                           const FitGate& gate,
                                           const std::string& expired,
                                           std::uint64_t& drops) {
  std::future<std::string> slow = submit_async(server, "eval gated flops 4 32");
  EXPECT_TRUE(poll_until([&] {
    if (slow.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_EQ(slow.get(), expired);
      ++drops;
      slow = submit_async(server, "eval gated flops 4 32");
    }
    return gate.fitting();
  }));
  return slow;
}

/// The trimmed cells of the first rendered table row in `report` that has
/// a cell equal to `cell`; empty when there is none.
std::vector<std::string> table_row(const std::string& report,
                                   const std::string& cell) {
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| ", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream parts(line.substr(1));
    std::string part;
    while (std::getline(parts, part, '|')) {
      const std::size_t first = part.find_first_not_of(' ');
      const std::size_t last = part.find_last_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? std::string()
                          : part.substr(first, last - first + 1));
    }
    for (const std::string& value : cells) {
      if (value == cell) return cells;
    }
  }
  return {};
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

TEST(ShardedServerTest, NonFiniteUpgradeRatioAnswersANumericError) {
  // loads_stores = 50 + 10 p^2 n overflows to inf at p = 1e200, so the
  // memory access ratio of every upgrade is not a number.
  exareq::codesign::AppRequirements app = make_test_requirements("Quad");
  app.loads_stores = exareq::model::Model(
      {"p", "n"}, 50.0,
      {exareq::model::Term{10.0, {exareq::model::pmnf_factor(0, 2.0, 0.0),
                                  exareq::model::pmnf_factor(1, 1.0, 0.0)}}});
  ShardedServer server(options_with(2));
  server.insert(app);
  const std::string answer = server.handle_line("upgrade Quad 1e200 2e9");
  EXPECT_EQ(answer.rfind("error numeric: ", 0), 0u) << answer;
  EXPECT_NE(answer.find("memory access ratio"), std::string::npos) << answer;
  // Asked again, the cached answer is the same error, and a baseline where
  // the model stays finite still answers.
  EXPECT_EQ(server.handle_line("upgrade quad 1e200 2e9"), answer);
  EXPECT_EQ(server.handle_line("upgrade Quad 1e3 2e9").rfind("ok upgrade ", 0),
            0u);
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
  // No online hooks, no online fields.
  EXPECT_EQ(response.find("online_"), std::string::npos) << response;
}

TEST(ShardedServerTest, StatusReportListsEveryShard) {
  ShardedServer server(options_with(4));
  load_apps(server);
  server.handle_line("eval lulesh flops 64 100");
  server.handle_line("eval lulesh flops 64 100");
  const std::string report = server.status_report();
  for (const char* needle :
       {"Shard", "Queue", "p50 [us]", "MeanRelErr", "Age [s]"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
  // The per-model table has one row per model, on its owning shard.
  for (const std::string& app : kApps) {
    std::vector<std::string> row = table_row(report, app);
    ASSERT_EQ(row.size(), 7u) << app << "\n" << report;
    row.pop_back();  // Age [s] follows the clock
    EXPECT_EQ(row, (std::vector<std::string>{
                       std::to_string(server.shard_of(app)), app, "1",
                       "insert", "0", "-"}));
  }
  // No online hooks, no online table.
  EXPECT_EQ(report.find("rows ingested"), std::string::npos) << report;
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

TEST(ShardedServerTest, SecondShardAddsCacheCapacityAndHits) {
  // Each shard owns a cache of cache_capacity entries, so the aggregate
  // cache grows with the shard count. A uniform stream hits an LRU cache
  // about capacity / working set of the time, so on a working set four
  // times one shard's cache a 2-shard server answers nearly twice as many
  // requests of the same stream from cache as a 1-shard server; one cache
  // of the same total size split across the shards would answer about as
  // many.
  const auto stream_cache_hits = [](std::size_t shards) {
    ShardedServerOptions options = options_with(shards);
    options.cache_capacity = 64;
    ShardedServer server(options);
    // 16 names spread over the shards (one app would land on one shard).
    std::vector<std::string> apps;
    for (int i = 0; i < 16; ++i) {
      apps.push_back("shardapp" + std::to_string(i));
      server.insert(make_test_requirements(apps.back()));
    }
    for (const auto& status : server.shard_statuses()) {
      EXPECT_FALSE(status.apps.empty()) << "shard " << status.shard;
    }
    // 256 distinct invert/upgrade requests.
    std::vector<Request> working_set;
    for (std::size_t v = 0; v < 256; ++v) {
      Request request;
      request.app = apps[v % apps.size()];
      const double scale = static_cast<double>(v);
      if (v % 2 == 0) {
        request.kind = RequestKind::kInvert;
        request.processes = 1024.0 + 64.0 * scale;
        request.memory_per_process = 1.0e9 + 7.0e6 * scale;
      } else {
        request.kind = RequestKind::kUpgrade;
        request.processes = 2048.0 + 128.0 * scale;
        request.memory_per_process = 2.0e9 + 1.1e7 * scale;
      }
      working_set.push_back(std::move(request));
    }
    const auto submit = [&server](const std::vector<Request>& batch) {
      for (const std::string& response : server.submit_batch(batch)) {
        EXPECT_EQ(response.rfind("ok ", 0), 0u) << response;
      }
    };
    // Warm-up pass, then one seeded uniform 4,096-request stream in
    // 64-request batches.
    for (std::size_t start = 0; start < working_set.size(); start += 64) {
      submit({working_set.begin() + static_cast<std::ptrdiff_t>(start),
              working_set.begin() + static_cast<std::ptrdiff_t>(start + 64)});
    }
    const std::uint64_t warm_hits = server.metrics().cache_hits;
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (int b = 0; b < 4096 / 64; ++b) {
      std::vector<Request> batch;
      for (int i = 0; i < 64; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        batch.push_back(working_set[(state >> 33) % working_set.size()]);
      }
      submit(batch);
    }
    return server.metrics().cache_hits - warm_hits;
  };
  const std::uint64_t one_shard = stream_cache_hits(1);
  const std::uint64_t two_shards = stream_cache_hits(2);
  EXPECT_GT(two_shards, one_shard + one_shard / 2)
      << "1 shard: " << one_shard << " hits, 2 shards: " << two_shards;
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
  FitGate gate;
  ShardedServerOptions options = options_with(1);
  options.deadline = std::chrono::milliseconds(5);
  ShardedServer server(options, gate.factory());
  load_apps(server);
  const std::string expired =
      "error deadline: request waited longer than 5 ms for a worker";

  std::uint64_t drops = 0;
  std::future<std::string> slow =
      hold_shard_in_fit(server, gate, expired, drops);
  // A multi-request batch queued behind the fit waits past the deadline:
  // the shard drops all of it at pickup and counts every request.
  std::vector<Request> batch;
  for (const std::string& app : kApps) {
    batch.push_back(eval_request(app, 4, 32));
  }
  std::future<std::vector<std::string>> stale = std::async(
      std::launch::async, [&] { return server.submit_batch(batch); });
  EXPECT_TRUE(queue_depth_reaches(server, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();

  EXPECT_EQ(stale.get(), std::vector<std::string>(batch.size(), expired));
  EXPECT_EQ(slow.get().rfind("ok eval ", 0), 0u);
  const MetricsSnapshot snapshot = server.metrics();
  EXPECT_EQ(snapshot.deadline_drops, drops + batch.size());
  EXPECT_EQ(snapshot.responses_error, drops + batch.size());
  EXPECT_EQ(snapshot.responses_ok, 1u);
}

TEST(ShardedServerTest, ShedsWhenAShardQueueIsFull) {
  FitGate gate;
  ShardedServerOptions options = options_with(1);
  options.queue_capacity = 1;
  ShardedServer server(options, gate.factory());
  load_apps(server);

  // The shard takes the gated batch and blocks in its fit; a second batch
  // then fills the queue.
  std::future<std::string> slow = submit_async(server, "eval gated flops 4 32");
  EXPECT_TRUE(poll_until([&] { return gate.fitting(); }));
  std::future<std::string> queued =
      submit_async(server, "eval lulesh flops 4 32");
  EXPECT_TRUE(queue_depth_reaches(server, 1));
  // The queue is full: the next submit is shed at once instead of waiting
  // for the shard.
  std::future<std::string> shed =
      submit_async(server, "eval lulesh flops 4 128");
  const bool answered_at_once =
      shed.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.release();

  EXPECT_TRUE(answered_at_once);
  EXPECT_EQ(shed.get(), "error shed: admission queue full (capacity 1)");
  EXPECT_EQ(slow.get().rfind("ok eval ", 0), 0u);
  EXPECT_EQ(queued.get().rfind("ok eval ", 0), 0u);
  const MetricsSnapshot snapshot = server.metrics();
  EXPECT_EQ(snapshot.sheds, 1u);
  EXPECT_EQ(snapshot.requests, 3u);
  EXPECT_EQ(snapshot.responses_ok, 2u);
  EXPECT_EQ(snapshot.responses_error, 1u);
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
  // A bundle file loads into its owning shard's registry only, with source
  // `file`, and answers under any spelling of its name.
  const exareq::codesign::AppRequirements app =
      make_test_requirements("LULESH");
  const exareq::model::ModelBundle bundle{
      app.name,
      {{"footprint", app.footprint},
       {"flops", app.flops},
       {"comm_bytes", app.comm_bytes},
       {"loads_stores", app.loads_stores},
       {"stack_distance", app.stack_distance}}};
  const std::string path = "/tmp/exareq_sharded_load_" +
                           std::to_string(::getpid()) + ".models";
  {
    std::ofstream file(path);
    file << exareq::model::serialize_bundle(bundle);
  }
  ShardedServer server(options_with(4));
  EXPECT_EQ(server.load_file(path), "LULESH");
  std::remove(path.c_str());

  const std::size_t owner = server.shard_of("lulesh");
  for (const auto& status : server.shard_statuses()) {
    const auto infos = server.registry(status.shard).model_infos();
    if (status.shard != owner) {
      EXPECT_TRUE(infos.empty()) << "shard " << status.shard;
      EXPECT_EQ(status.metrics.files_loaded, 0u);
      continue;
    }
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].name, "LULESH");
    EXPECT_EQ(infos[0].source, exareq::serve::VersionSource::kFile);
    EXPECT_EQ(status.metrics.files_loaded, 1u);
  }
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 1024"),
            "ok eval " + render_value(app.flops.evaluate2(64.0, 1024.0)));
}

TEST(ShardedServerTest, OnlineStatsAreSummedAcrossShards) {
  ShardedServer server(options_with(3));
  load_apps(server);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    exareq::serve::OnlineHooks hooks;
    hooks.stats = [shard] {
      exareq::online::OnlineStats stats;
      stats.rows_ingested = 10 * (shard + 1);
      stats.refits = 1;
      stats.staleness_seconds = 0.5 * static_cast<double>(shard);
      stats.last_version = 7 - shard;
      return stats;
    };
    server.set_online_hooks(shard, hooks);
  }
  // Counters add; staleness and the last version take the maximum.
  const std::string status = server.handle_line("status");
  EXPECT_EQ(status.find("online_rows="), status.rfind("online_rows="))
      << status;
  for (const char* needle :
       {" online_rows=60 ", " online_refits=3 ", " online_staleness_s=1.000 ",
        " online_version=7"}) {
    EXPECT_NE(status.find(needle), std::string::npos)
        << needle << " in " << status;
  }
  const std::string report = server.status_report();
  EXPECT_EQ(report.find("rows ingested"), report.rfind("rows ingested"))
      << report;
  EXPECT_EQ(table_row(report, "rows ingested"),
            (std::vector<std::string>{"online", "rows ingested", "60"}));
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

// ServeServerTest: the request-level contracts of one `exareq serve` server
// (exact answers, the result cache, admission, deadlines, status and
// shutdown), checked on ShardedServer, the only server.

TEST(ServeServerTest, AnswersAreBitIdenticalToDirectLibraryCalls) {
  ShardedServer server(options_with(2));
  load_apps(server);

  // The library calls the one-shot CLI makes, rendered with %.17g.
  const exareq::codesign::AppRequirements direct =
      make_test_requirements("lulesh");
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 1024"),
            "ok eval " + render_value(direct.flops.evaluate2(64.0, 1024.0)));
  EXPECT_EQ(server.handle_line("eval lulesh stack_distance 1 777"),
            "ok eval " + render_value(direct.stack_distance.evaluate1(777.0)));

  const exareq::codesign::FilledSystem filled =
      exareq::codesign::fill_memory(direct, {4096.0, 2.0e9});
  EXPECT_EQ(server.handle_line("invert lulesh 4096 2e9"),
            "ok invert " + render_value(filled.problem_size_per_process) +
                ' ' + render_value(filled.overall_problem_size));
}

TEST(ServeServerTest, ConcurrentMixedWorkloadMatchesUncachedEngine) {
  std::vector<std::string> lines;
  for (const char* app : {"lulesh", "hpcg"}) {
    for (const char* metric :
         {"footprint", "flops", "comm_bytes", "loads_stores"}) {
      for (int p : {4, 16, 64}) {
        lines.push_back(std::string("eval ") + app + ' ' + metric + ' ' +
                        std::to_string(p) + " 512");
      }
    }
    lines.push_back(std::string("invert ") + app + " 1024 1e9");
    lines.push_back(std::string("upgrade ") + app + " 1024 1e9");
    lines.push_back(std::string("strawman ") + app);
  }

  // Reference answers from an uncached engine, computed serially.
  ModelRegistry reference_registry;
  for (const std::string& app : kApps) {
    reference_registry.insert(make_test_requirements(app));
  }
  exareq::serve::QueryEngine reference(reference_registry);
  std::vector<std::string> expected;
  for (const std::string& line : lines) {
    expected.push_back(reference.answer_line(line));
  }

  // Each client submits every line one request at a time, from its own
  // starting point, twice over.
  ShardedServer server(options_with(4));
  load_apps(server);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
          const std::size_t k = (i + 7 * c) % lines.size();
          if (server.handle_line(lines[k]) != expected[k]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const MetricsSnapshot snapshot = server.metrics();
  const std::uint64_t total = lines.size() * kClients * kRounds;
  EXPECT_EQ(snapshot.requests, total);
  EXPECT_EQ(snapshot.responses_ok, total);
  EXPECT_EQ(snapshot.responses_error, 0u);
  EXPECT_EQ(snapshot.sheds, 0u);
  // Every request looks the cache up once. Clients may race on the first
  // insert of a key, but a client's second round only repeats answers its
  // first round cached, so each client misses a key at most once.
  EXPECT_EQ(snapshot.cache_hits + snapshot.cache_misses, total);
  EXPECT_LE(snapshot.cache_misses, lines.size() * kClients);
}

// A cache hit on a repeated query skips the fit path, verified via the
// metrics counters.
TEST(ServeServerTest, RepeatedQueryHitsCacheAndSkipsFitPath) {
  std::atomic<int> fit_calls{0};
  ShardedServer server(options_with(2), [&fit_calls] {
    return std::make_unique<ModelRegistry>(
        [&fit_calls](const std::string& name) {
          fit_calls.fetch_add(1);
          return make_test_requirements(name);
        });
  });

  const std::string first = server.handle_line("eval ondemand flops 8 64");
  ASSERT_EQ(first.rfind("ok eval ", 0), 0u) << first;
  EXPECT_EQ(fit_calls.load(), 1);
  const MetricsSnapshot after_first = server.metrics();
  EXPECT_EQ(after_first.cache_misses, 1u);
  EXPECT_EQ(after_first.fits_started, 1u);

  // Same query, a different but canonically equal spelling: the owning
  // shard answers it from its cache without consulting the registry.
  const std::string second =
      server.handle_line("eval ONDEMAND flops 8.0 6.4e1");
  EXPECT_EQ(second, first);
  const MetricsSnapshot after_second = server.metrics();
  EXPECT_EQ(after_second.cache_hits, 1u);
  EXPECT_EQ(after_second.cache_misses, 1u);
  EXPECT_EQ(after_second.fits_started, 1u);
  EXPECT_EQ(fit_calls.load(), 1);
  EXPECT_EQ(after_second.registry_lookups, after_first.registry_lookups);
  EXPECT_GT(after_second.cache_hit_rate(), 0.0);
}

TEST(ServeServerTest, FullQueueShedsWithExplicitError) {
  // Admission sheds per shard: while one shard's queue is full, a batch
  // spanning both shards answers `error shed` at once for that shard's
  // requests, and the other shard still answers its own.
  FitGate gate;
  ShardedServerOptions options = options_with(2);
  options.queue_capacity = 2;
  ShardedServer server(options, gate.factory());
  load_apps(server);
  const std::size_t held = server.shard_of("gated");
  std::string local, remote;  // an app on the held shard, one on the other
  for (const std::string& app : kApps) {
    (server.shard_of(app) == held ? local : remote) = app;
  }
  ASSERT_FALSE(local.empty());
  ASSERT_FALSE(remote.empty());

  // Occupy the held shard with a slow fit and fill its queue behind it.
  std::future<std::string> slow = submit_async(server, "eval gated flops 4 32");
  EXPECT_TRUE(poll_until([&] { return gate.fitting(); }));
  std::future<std::string> queued1 =
      submit_async(server, "eval " + local + " flops 4 32");
  EXPECT_TRUE(queue_depth_reaches(server, 1, held));
  std::future<std::string> queued2 =
      submit_async(server, "eval " + local + " flops 4 64");
  EXPECT_TRUE(queue_depth_reaches(server, 2, held));

  const std::vector<Request> spanning = {eval_request(local, 4, 128),
                                         eval_request(remote, 4, 128),
                                         eval_request(local, 4, 256)};
  std::future<std::vector<std::string>> answers = std::async(
      std::launch::async, [&] { return server.submit_batch(spanning); });
  const bool answered_at_once =
      answers.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.release();

  EXPECT_TRUE(answered_at_once);
  const std::vector<std::string> responses = answers.get();
  const std::string shed = "error shed: admission queue full (capacity 2)";
  EXPECT_EQ(responses[0], shed);
  EXPECT_EQ(responses[1].rfind("ok eval ", 0), 0u) << responses[1];
  EXPECT_EQ(responses[2], shed);
  EXPECT_EQ(slow.get().rfind("ok eval ", 0), 0u);
  EXPECT_EQ(queued1.get().rfind("ok eval ", 0), 0u);
  EXPECT_EQ(queued2.get().rfind("ok eval ", 0), 0u);

  const MetricsSnapshot snapshot = server.metrics();
  EXPECT_EQ(snapshot.sheds, 2u);
  EXPECT_EQ(snapshot.requests, 6u);
  EXPECT_EQ(snapshot.responses_ok, 4u);
  EXPECT_EQ(snapshot.responses_error, 2u);
  for (const auto& status : server.shard_statuses()) {
    EXPECT_EQ(status.metrics.sheds, status.shard == held ? 2u : 0u)
        << "shard " << status.shard;
  }
}

TEST(ServeServerTest, ExpiredDeadlineDropsQueuedRequest) {
  FitGate gate;
  ShardedServerOptions options = options_with(1);
  options.deadline = std::chrono::milliseconds(5);
  ShardedServer server(options, gate.factory());
  load_apps(server);
  const std::string expired =
      "error deadline: request waited longer than 5 ms for a worker";

  std::uint64_t drops = 0;
  std::future<std::string> slow =
      hold_shard_in_fit(server, gate, expired, drops);
  // A request queued behind the fit waits past the deadline before pickup.
  std::future<std::string> stale =
      submit_async(server, "eval lulesh flops 4 32");
  EXPECT_TRUE(queue_depth_reaches(server, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();

  EXPECT_EQ(stale.get(), expired);
  EXPECT_EQ(slow.get().rfind("ok eval ", 0), 0u);
  EXPECT_EQ(server.metrics().deadline_drops, drops + 1);
}

TEST(ServeServerTest, MalformedLinesAreErrorsNotCrashes) {
  // A malformed line answers `error bad-request` whether the front end
  // fails to parse it or the shard fails to validate or resolve it, and
  // the shard keeps answering afterwards.
  ShardedServer server(options_with(1));
  load_apps(server);
  for (const char* line :
       {"frobnicate", "eval lulesh watts 4 32", "eval nosuch flops 4 32"}) {
    EXPECT_EQ(server.handle_line(line).rfind("error bad-request", 0), 0u)
        << line;
  }
  EXPECT_EQ(server.handle(eval_request("lulesh", 0.5, 32.0)),
            "error bad-request: eval coordinates must be >= 1");
  EXPECT_EQ(server.handle_line("eval lulesh flops 4 32").rfind("ok eval ", 0),
            0u);
  const MetricsSnapshot snapshot = server.metrics();
  EXPECT_EQ(snapshot.responses_error, 4u);
  EXPECT_EQ(snapshot.responses_ok, 1u);
}

TEST(ServeServerTest, StatusRequestAndReportExposeCounters) {
  ShardedServer server(options_with(2));
  server.insert(make_test_requirements("alpha"));
  server.insert(make_test_requirements("beta"));
  EXPECT_EQ(server.handle_line("eval alpha flops 4 32").rfind("ok eval", 0),
            0u);

  const std::string status = server.handle_line("status");
  EXPECT_EQ(status.rfind("ok status ", 0), 0u) << status;
  for (const char* needle :
       {"requests=", "cache_misses=1", "apps=2", "mean_us="}) {
    EXPECT_NE(status.find(needle), std::string::npos)
        << needle << " in " << status;
  }

  const std::string report = server.status_report();
  for (const char* needle : {"requests", "cache", "registry", "p99 latency",
                             "mean latency", "hit rate"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
  EXPECT_GT(server.metrics().mean_latency_us, 0.0);
}

TEST(ServeServerTest, StopDrainsAdmittedRequestsAndRejectsNewOnes) {
  FitGate gate;
  ShardedServer server(options_with(1), gate.factory());
  load_apps(server);
  auto& published =
      exareq::obs::MetricRegistry::instance().counter("serve.shard.requests");
  const std::uint64_t published_before = published.value();

  // Hold the shard in a fit and admit a 16-request batch behind it.
  std::future<std::string> slow = submit_async(server, "eval gated flops 4 32");
  EXPECT_TRUE(poll_until([&] { return gate.fitting(); }));
  std::vector<Request> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(eval_request("lulesh", 4, 32 + i));
  }
  std::future<std::vector<std::string>> admitted = std::async(
      std::launch::async, [&] { return server.submit_batch(batch); });
  EXPECT_TRUE(queue_depth_reaches(server, 1));

  // stop() waits for every admitted request, so it cannot return while
  // the shard is held.
  std::future<void> stopper =
      std::async(std::launch::async, [&] { server.stop(); });
  EXPECT_EQ(stopper.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  gate.release();
  stopper.get();
  EXPECT_EQ(slow.get().rfind("ok eval ", 0), 0u);
  for (const std::string& response : admitted.get()) {
    EXPECT_EQ(response.rfind("ok eval ", 0), 0u) << response;
  }
  EXPECT_EQ(server.handle_line("eval lulesh flops 64 100"),
            "error shutdown: server is no longer accepting requests");

  // stop() publishes the server's totals exactly once: a second stop()
  // (and the destructor's) must not count them again.
  EXPECT_EQ(published.value(), published_before + 17);
  server.stop();
  EXPECT_EQ(published.value(), published_before + 17);
  EXPECT_GE(exareq::obs::MetricRegistry::instance()
                .histogram("serve.shard.latency_us")
                .count(),
            17u);
}

// End to end: fit models through the one-shot CLI, persist them with
// --models-out, load the file into a 4-shard server, and check that served
// answers are bit-identical to evaluating the parsed models directly.
TEST(ServeCliIntegrationTest, ServedAnswersMatchOneShotCliModels) {
  const std::string path = "/tmp/exareq_serve_cli_models_" +
                           std::to_string(::getpid()) + ".models";
  std::ostringstream out, err;
  ASSERT_EQ(exareq::cli::run_cli(
                {"model", "LULESH", "--processes", "2,4,8,16,32", "--sizes",
                 "16,32,64,128,256", "--models-out", path},
                out, err),
            0)
      << err.str();
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const exareq::model::ModelBundle bundle =
      exareq::model::parse_bundle(content.str());

  ShardedServer server(options_with(4));
  EXPECT_EQ(server.load_file(path), bundle.name);
  for (const auto& [label, model] : bundle.models) {
    for (const double p : {8.0, 1e6}) {
      for (const double n : {128.0, 1e9}) {
        const double direct = label == "stack_distance" ? model.evaluate1(n)
                                                        : model.evaluate2(p, n);
        EXPECT_EQ(server.handle_line("eval " + bundle.name + ' ' + label +
                                     ' ' + render_value(p) + ' ' +
                                     render_value(n)),
                  "ok eval " + render_value(direct))
            << label;
      }
    }
  }
  std::remove(path.c_str());
}
