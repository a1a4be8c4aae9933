#include "serve/frontend.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/binary_protocol.hpp"
#include "serve/protocol.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"
#include "serve_test_util.hpp"
#include "support/error.hpp"

namespace binary = exareq::serve::binary;
using exareq::serve::Client;
using exareq::serve::FrontEnd;
using exareq::serve::FrontEndOptions;
using exareq::serve::Request;
using exareq::serve::RequestKind;
using exareq::serve::ShardedServer;
using exareq::serve::ShardedServerOptions;
using exareq::serve::testing::make_test_requirements;

namespace {

std::string unique_socket_path(const std::string& stem) {
  return "/tmp/exareq_front_" + stem + "_" + std::to_string(::getpid()) +
         ".sock";
}

const char* const kApps[] = {"lulesh", "hpcg", "amg",
                             "relearn", "milc", "kripke"};

void load_apps(ShardedServer& server) {
  for (const char* app : kApps) server.insert(make_test_requirements(app));
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

TEST(ShardedFrontEndTest, TextClientsWorkOverUnixSocket) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("text")});
  front.start();
  // The one-shot text client works unchanged against the binary-capable
  // front end.
  EXPECT_EQ(exareq::serve::query_over_socket(front.options().unix_path,
                                             "eval lulesh flops 64 100"),
            server.handle_line("eval lulesh flops 64 100"));
  EXPECT_EQ(exareq::serve::query_over_socket(front.options().unix_path,
                                             "garbage")
                .rfind("error bad-request", 0),
            0u);
}

TEST(ShardedFrontEndTest, BinaryBatchOverUnixSocketMatchesInProcess) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("binary")});
  front.start();
  std::vector<Request> batch;
  for (int n = 10; n < 20; ++n) {
    batch.push_back(eval_request("lulesh", 64.0, n));
    batch.push_back(eval_request("hpcg", 64.0, n));
  }
  const std::vector<std::string> over_wire =
      exareq::serve::query_batch_over_socket(front.options().unix_path, batch);
  const std::vector<std::string> in_process = server.submit_batch(batch);
  EXPECT_EQ(over_wire, in_process);
}

TEST(ShardedFrontEndTest, BatchedFramesReachTheShardsAsFewBatches) {
  // 2,048 warm evals over one Unix-socket connection. A 64-request binary
  // frame is one submit_batch, queued as at most one batch per shard, so
  // its 32 frames raise serve.shard.batches by at most 32 x shards; single-
  // request frames raise it once per request. The shard hand-offs a frame
  // saves are what batching amortizes.
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kRequests = 2048;
  auto& published =
      exareq::obs::MetricRegistry::instance().counter("serve.shard.batches");
  const auto shard_batches = [&](std::size_t frame_size) {
    const std::uint64_t before = published.value();
    ShardedServer server(ShardedServerOptions{.shards = kShards});
    load_apps(server);
    FrontEnd front(server,
                   FrontEndOptions{.unix_path = unique_socket_path(
                                       "frames" + std::to_string(frame_size))});
    front.start();
    // 64 distinct eval points, warmed in one in-process batch: one shard
    // batch per shard they touch.
    std::vector<Request> points;
    std::set<std::size_t> owners;
    for (std::size_t v = 0; v < 64; ++v) {
      points.push_back(eval_request(kApps[v % std::size(kApps)],
                                    static_cast<double>(16 << (v / 16)),
                                    static_cast<double>(256 + v)));
      owners.insert(server.shard_of(points.back().app));
    }
    EXPECT_EQ(owners.size(), kShards);
    (void)server.submit_batch(points);
    const std::uint64_t warm_hits = server.metrics().cache_hits;

    Client client = Client::connect_unix(front.options().unix_path);
    for (std::size_t sent = 0; sent < kRequests; sent += frame_size) {
      std::vector<Request> frame;
      for (std::size_t i = sent; i < sent + frame_size; ++i) {
        frame.push_back(points[i % points.size()]);
      }
      for (const std::string& line : client.query_batch(frame)) {
        EXPECT_EQ(line.rfind("ok eval ", 0), 0u) << line;
      }
    }
    EXPECT_EQ(server.metrics().cache_hits - warm_hits, kRequests);
    front.stop();
    server.stop();  // publishes serve.shard.batches
    return published.value() - before - owners.size();
  };
  EXPECT_LE(shard_batches(64), kRequests / 64 * kShards);
  EXPECT_EQ(shard_batches(1), kRequests);
}

TEST(ShardedFrontEndTest, TcpServesBothProtocols) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEndOptions options;
  options.tcp_port = 0;  // ephemeral
  FrontEnd front(server, options);
  front.start();
  ASSERT_GT(front.tcp_port(), 0);

  EXPECT_EQ(exareq::serve::query_over_tcp("127.0.0.1", front.tcp_port(),
                                          "eval amg flops 64 100"),
            server.handle_line("eval amg flops 64 100"));

  const std::vector<Request> batch = {eval_request("amg", 64.0, 100.0),
                                      eval_request("milc", 32.0, 50.0)};
  EXPECT_EQ(exareq::serve::query_batch_over_tcp("127.0.0.1", front.tcp_port(),
                                                batch),
            server.submit_batch(batch));
}

TEST(ShardedFrontEndTest, UnixAndTcpListenersRunTogether) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("both");
  options.tcp_port = 0;
  FrontEnd front(server, options);
  front.start();
  const std::string expected = server.handle_line("strawman kripke");
  EXPECT_EQ(exareq::serve::query_over_socket(options.unix_path,
                                             "strawman kripke"),
            expected);
  EXPECT_EQ(exareq::serve::query_over_tcp("127.0.0.1", front.tcp_port(),
                                          "strawman kripke"),
            expected);
}

TEST(ShardedFrontEndTest, MixedClientsShareOneListener) {
  // Text and binary clients run concurrently against one listener; protocol
  // detection is per connection.
  ShardedServer server(ShardedServerOptions{.shards = 4});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("mixed")});
  front.start();
  const std::string text_expected =
      server.handle_line("eval lulesh flops 64 100");
  const std::vector<Request> batch = {eval_request("hpcg", 64.0, 100.0),
                                      eval_request("amg", 64.0, 100.0)};
  const std::vector<std::string> batch_expected = server.submit_batch(batch);

  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (exareq::serve::query_over_socket(front.options().unix_path,
                                             "eval lulesh flops 64 100") !=
            text_expected) {
          failed.store(true);
        }
      }
    });
    clients.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (exareq::serve::query_batch_over_socket(front.options().unix_path,
                                                   batch) != batch_expected) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_FALSE(failed.load());
}

TEST(ShardedFrontEndTest, PersistentClientReusesOneConnection) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("persist")});
  front.start();
  Client client = Client::connect_unix(front.options().unix_path);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client.query("eval lulesh flops 64 100").rfind("ok eval ", 0),
              0u);
  }
  // A text-pinned connection refuses binary batches (one protocol per
  // connection, mirroring the server's first-byte detection).
  EXPECT_THROW(client.query_batch({eval_request("lulesh", 64.0, 100.0)}),
               exareq::InvalidArgument);

  Client binary_client = Client::connect_unix(front.options().unix_path);
  for (int i = 0; i < 10; ++i) {
    const auto lines =
        binary_client.query_batch({eval_request("hpcg", 64.0, 100.0 + i)});
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].rfind("ok eval ", 0), 0u);
  }
  EXPECT_THROW(binary_client.query("status"), exareq::InvalidArgument);
}

TEST(ShardedFrontEndTest, BadRecordsInABinaryBatchFailIndependently) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("badrec")});
  front.start();
  std::vector<Request> batch;
  batch.push_back(eval_request("lulesh", 64.0, 100.0));
  batch.push_back(eval_request("hpcg", 0.25, 100.0));  // invalid coordinates
  batch.push_back(eval_request("amg", 64.0, 100.0));
  const auto lines =
      exareq::serve::query_batch_over_socket(front.options().unix_path, batch);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok eval ", 0), 0u);
  EXPECT_EQ(lines[1], "error bad-request: eval coordinates must be >= 1");
  EXPECT_EQ(lines[2].rfind("ok eval ", 0), 0u);
}

TEST(ShardedFrontEndTest, OversizedTextLineRecoversPerConnection) {
  // Satellite: oversized-frame regression coverage on the text path. The
  // offending connection is told why and dropped; the listener and fresh
  // connections keep working.
  ShardedServer server(ShardedServerOptions{.shards = 1});
  load_apps(server);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("overtext");
  options.max_frame_bytes = 128;
  FrontEnd front(server, options);
  front.start();
  Client client = Client::connect_unix(options.unix_path);
  const std::string oversized(512, 'x');
  EXPECT_EQ(client.query(oversized).rfind("error bad-request", 0), 0u);
  // The connection is gone; a new one still works.
  EXPECT_EQ(exareq::serve::query_over_socket(options.unix_path,
                                             "eval lulesh flops 64 100")
                .rfind("ok eval ", 0),
            0u);
}

TEST(ShardedFrontEndTest, OversizedBinaryFrameRecoversPerConnection) {
  // Satellite: oversized-frame regression coverage on the binary path.
  ShardedServer server(ShardedServerOptions{.shards = 1});
  load_apps(server);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("overbin");
  options.max_binary_frame_bytes = 256;
  FrontEnd front(server, options);
  front.start();

  std::vector<Request> huge;
  for (int i = 0; i < 64; ++i) huge.push_back(eval_request("lulesh", 64, 100));
  Client client = Client::connect_unix(options.unix_path);
  const auto lines = client.query_batch(huge);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("error bad-request", 0), 0u);
  EXPECT_NE(lines[0].find("exceeds"), std::string::npos);

  // A fresh connection with a frame under the limit still works.
  const auto small = exareq::serve::query_batch_over_socket(
      options.unix_path, {eval_request("lulesh", 64.0, 100.0)});
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0].rfind("ok eval ", 0), 0u);
}

TEST(ShardedFrontEndTest, StatusOverTextAndBinaryAgreeOnShardCount) {
  ShardedServer server(ShardedServerOptions{.shards = 3});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("status")});
  front.start();
  const std::string text = exareq::serve::query_over_socket(
      front.options().unix_path, "status");
  EXPECT_NE(text.find("shards=3"), std::string::npos);
  Request status;
  status.kind = RequestKind::kStatus;
  const auto lines = exareq::serve::query_batch_over_socket(
      front.options().unix_path, {status});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("shards=3"), std::string::npos);
}

// ServeSocketTest: the one-shot text client against a FrontEnd listening
// on a Unix socket.

TEST(ServeSocketTest, RoundTripsRequestsOverUnixSocket) {
  ShardedServer server(ShardedServerOptions{.shards = 2});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("roundtrip")});
  front.start();
  const std::string& path = front.options().unix_path;

  const exareq::codesign::AppRequirements direct =
      make_test_requirements("lulesh");
  EXPECT_EQ(exareq::serve::query_over_socket(path, "eval lulesh flops 64 1024"),
            "ok eval " + exareq::serve::render_value(
                             direct.flops.evaluate2(64.0, 1024.0)));
  EXPECT_EQ(exareq::serve::query_over_socket(path, "garbage")
                .rfind("error bad-request", 0),
            0u);
  // Once stopped, the front end no longer listens.
  front.stop();
  EXPECT_THROW(exareq::serve::query_over_socket(path, "status"),
               exareq::Error);
}

TEST(ServeSocketTest, ServesManyConcurrentClients) {
  ShardedServer server(ShardedServerOptions{.shards = 4});
  load_apps(server);
  FrontEnd front(server, FrontEndOptions{
                             .unix_path = unique_socket_path("concurrent")});
  front.start();

  // Reference answers from one uncached engine over the same models.
  exareq::serve::ModelRegistry reference_registry;
  for (const char* app : kApps) {
    reference_registry.insert(make_test_requirements(app));
  }
  exareq::serve::QueryEngine reference(reference_registry);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const std::string line =
            std::string("eval ") + kApps[(c + i) % std::size(kApps)] +
            " flops " + std::to_string(4 << (c % 3)) + ' ' +
            std::to_string(32 + i);
        if (exareq::serve::query_over_socket(front.options().unix_path,
                                             line) !=
            reference.answer_line(line)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.metrics().responses_ok,
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
}
