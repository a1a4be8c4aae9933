// Throughput benchmark for the serve subsystem's sharded tier: aggregate
// QPS vs shard count at a fixed per-shard cache budget, and batched-binary
// frame amortization over a Unix socket. Prints scaling tables and writes
// BENCH_serve.json.
//
//   bench_serve_throughput [--trace FILE] [--out FILE] [--smoke]
//
// --smoke runs a reduced sharded + batching sweep and exits nonzero when
// 2 shards fail to beat 1 shard on QPS or batched frames fail to beat
// single-request frames — the CI regression gate.
//
// --trace records the batch/cache/compute spans of every run into one
// Chrome trace_event file. Tracing adds per-span overhead, so traced runs
// are not comparable to untraced trend numbers.
//
// Query latency under a live ingest stream is measured end to end by
// perfbench's serve workload (perfbench/README.md).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "serve/frontend.hpp"
#include "serve/sharded_server.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

namespace {

using namespace exareq;

// ---------------------------------------------------------------------------
// Sharded tier: aggregate QPS vs shard count at a fixed PER-SHARD cache
// budget. Each shard owns its own result cache, so adding shards grows the
// aggregate cache capacity with the fleet — the scaling a sharded
// deployment buys even when shards share cores. The workload is a uniform
// random stream over a working set 4x one shard's cache, all expensive
// verbs (invert/upgrade), so the miss cost dominates and the measured
// speedup is the cache-locality win.

struct ShardedRun {
  std::size_t shards;
  double seconds;
  double requests_per_second;
  double cache_hit_rate;  ///< over the timed window only
};

struct ShardedSweepConfig {
  std::vector<std::size_t> shard_counts;
  std::size_t per_shard_cache;
  std::size_t working_set;  ///< distinct expensive requests
  std::size_t stream_length;
  std::size_t batch_size;
  std::size_t client_threads;
};

/// 16 names hash-spread across shards; each is the fitted base app under a
/// different registry key (a single app would land on one shard).
std::vector<codesign::AppRequirements> make_shard_apps(
    const codesign::AppRequirements& base, std::size_t count) {
  std::vector<codesign::AppRequirements> apps;
  apps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    codesign::AppRequirements clone = base;
    clone.name = "shardapp" + std::to_string(i);
    apps.push_back(std::move(clone));
  }
  return apps;
}

std::vector<serve::Request> make_expensive_working_set(
    const std::vector<codesign::AppRequirements>& apps, std::size_t size) {
  std::vector<serve::Request> set;
  set.reserve(size);
  for (std::size_t v = 0; v < size; ++v) {
    serve::Request request;
    request.app = apps[v % apps.size()].name;
    if (v % 2 == 0) {
      request.kind = serve::RequestKind::kInvert;
      request.processes = static_cast<double>(1024 + 64 * v);
      request.memory_per_process = 1.0e9 + 7.0e6 * static_cast<double>(v);
    } else {
      request.kind = serve::RequestKind::kUpgrade;
      request.processes = static_cast<double>(2048 + 128 * v);
      request.memory_per_process = 2.0e9 + 1.1e7 * static_cast<double>(v);
    }
    set.push_back(std::move(request));
  }
  return set;
}

ShardedRun run_sharded_one(const std::vector<codesign::AppRequirements>& apps,
                           const std::vector<serve::Request>& working_set,
                           const ShardedSweepConfig& config,
                           std::size_t shards) {
  serve::ShardedServerOptions options;
  options.shards = shards;
  options.queue_capacity = config.stream_length;
  options.cache_capacity = config.per_shard_cache;
  serve::ShardedServer server(options);
  for (const auto& app : apps) server.insert(app);

  // Warmup: one pass over the working set leaves each shard's LRU holding
  // its most recent per-shard-cache entries — the steady state a long-
  // running service converges to. The timed window measures from there.
  for (std::size_t start = 0; start < working_set.size();
       start += config.batch_size) {
    const std::size_t end =
        std::min(start + config.batch_size, working_set.size());
    (void)server.submit_batch({working_set.begin() +
                                   static_cast<std::ptrdiff_t>(start),
                               working_set.begin() +
                                   static_cast<std::ptrdiff_t>(end)});
  }
  const serve::MetricsSnapshot before = server.metrics();

  // The same deterministic uniform stream for every shard count,
  // pre-bucketed into frames so the timer sees only serving work.
  std::vector<std::vector<serve::Request>> batches;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t done = 0; done < config.stream_length;
       done += config.batch_size) {
    std::vector<serve::Request> batch;
    const std::size_t count =
        std::min(config.batch_size, config.stream_length - done);
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      batch.push_back(working_set[(state >> 33) % working_set.size()]);
    }
    batches.push_back(std::move(batch));
  }

  std::atomic<std::size_t> next{0};
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < config.client_threads; ++t) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t index = next.fetch_add(1);
        if (index >= batches.size()) return;
        (void)server.submit_batch(batches[index]);
      }
    });
  }
  for (auto& client : clients) client.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;

  const serve::MetricsSnapshot after = server.metrics();
  const double hits =
      static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  return {shards, elapsed.count(),
          static_cast<double>(config.stream_length) / elapsed.count(),
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0};
}

// ---------------------------------------------------------------------------
// Batching: the same request volume over one Unix-socket connection, sent
// as binary frames of 1 / 16 / 64 / 256 requests. The per-request work is
// a warm cache hit, so the sweep isolates what batching amortizes: the
// per-frame syscalls, frame decode, and shard dispatch round trip.

struct BatchingRun {
  std::size_t batch;
  double seconds;
  double requests_per_second;
};

std::vector<BatchingRun> run_batching_sweep(
    const std::vector<codesign::AppRequirements>& apps,
    const std::vector<std::size_t>& batch_sizes, std::size_t total_requests,
    std::size_t shards) {
  serve::ShardedServerOptions options;
  options.shards = shards;
  options.queue_capacity = total_requests;
  serve::ShardedServer server(options);
  for (const auto& app : apps) server.insert(app);

  serve::FrontEndOptions front_options;
  front_options.unix_path =
      "/tmp/exareq_bench_front_" + std::to_string(::getpid()) + ".sock";
  serve::FrontEnd front(server, front_options);
  front.start();

  // 64 distinct eval points, warmed once, then cycled.
  std::vector<serve::Request> points;
  const char* metrics[] = {"footprint", "flops", "comm_bytes", "loads_stores"};
  for (std::size_t v = 0; v < 64; ++v) {
    serve::Request request;
    request.kind = serve::RequestKind::kEval;
    request.app = apps[v % apps.size()].name;
    request.metric = metrics[v % 4];
    request.p = static_cast<double>(16 << (v / 16));
    request.n = static_cast<double>(256 + v);
    points.push_back(std::move(request));
  }
  (void)server.submit_batch(points);

  std::vector<BatchingRun> results;
  for (const std::size_t batch_size : batch_sizes) {
    // Pre-build every frame; the timer sees only wire + serving work.
    std::vector<std::vector<serve::Request>> frames;
    std::size_t cursor = 0;
    for (std::size_t sent = 0; sent < total_requests; sent += batch_size) {
      std::vector<serve::Request> frame;
      const std::size_t count = std::min(batch_size, total_requests - sent);
      frame.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        frame.push_back(points[cursor++ % points.size()]);
      }
      frames.push_back(std::move(frame));
    }
    serve::Client client = serve::Client::connect_unix(front_options.unix_path);
    const auto started = std::chrono::steady_clock::now();
    for (const auto& frame : frames) (void)client.query_batch(frame);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;
    results.push_back({batch_size, elapsed.count(),
                       static_cast<double>(total_requests) / elapsed.count()});
  }
  front.stop();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Serve throughput: shards and batching",
                      "serving subsystem (beyond the paper)");

  std::optional<obs::TraceGuard> trace;
  std::string out_path = "BENCH_serve.json";
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) trace.emplace(argv[++i]);
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else if (arg == "--smoke") smoke_mode = true;
  }

  const codesign::AppRequirements& app =
      bench::app_models(apps::AppId::kLulesh).requirements;
  const std::vector<codesign::AppRequirements> shard_apps =
      make_shard_apps(app, 16);

  // Sharded tier. Smoke keeps the same working-set : cache ratio (4x one
  // shard) so the 2-shard-beats-1 assertion tests the same mechanism the
  // full sweep measures.
  ShardedSweepConfig sharded_config;
  if (smoke_mode) {
    sharded_config = {{1, 2}, 64, 256, 4096, 64, 2};
  } else {
    sharded_config = {{1, 2, 4, 8}, 256, 1024, 16384, 64, 4};
  }
  const std::vector<serve::Request> working_set =
      make_expensive_working_set(shard_apps, sharded_config.working_set);
  std::vector<ShardedRun> sharded;
  for (const std::size_t shards : sharded_config.shard_counts) {
    sharded.push_back(
        run_sharded_one(shard_apps, working_set, sharded_config, shards));
  }

  TextTable sharded_table({"Shards", "Req/s", "Speedup", "Hit rate"});
  sharded_table.set_alignment(
      {Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  for (const ShardedRun& r : sharded) {
    sharded_table.add_row(
        {std::to_string(r.shards), format_compact(r.requests_per_second),
         format_fixed(r.requests_per_second /
                          sharded.front().requests_per_second,
                      2) +
             "x",
         format_fixed(100.0 * r.cache_hit_rate, 1) + " %"});
  }
  std::cout << "\nsharded scaling (per-shard cache "
            << sharded_config.per_shard_cache << ", working set "
            << sharded_config.working_set << ", "
            << sharded_config.client_threads << " clients, frames of "
            << sharded_config.batch_size << "):\n"
            << sharded_table.render();

  // Batching over the socket front end.
  const std::vector<std::size_t> batch_sizes =
      smoke_mode ? std::vector<std::size_t>{1, 64}
                 : std::vector<std::size_t>{1, 16, 64, 256};
  const std::size_t batch_total = smoke_mode ? 2048 : 8192;
  const std::vector<BatchingRun> batching = run_batching_sweep(
      shard_apps, batch_sizes, batch_total, smoke_mode ? 2 : 4);

  TextTable batch_table({"Batch", "Req/s", "Speedup"});
  batch_table.set_alignment({Align::kRight, Align::kRight, Align::kRight});
  for (const BatchingRun& r : batching) {
    batch_table.add_row(
        {std::to_string(r.batch), format_compact(r.requests_per_second),
         format_fixed(r.requests_per_second /
                          batching.front().requests_per_second,
                      2) +
             "x"});
  }
  std::cout << "\nbinary batching over a Unix socket (" << batch_total
            << " warm requests per run):\n"
            << batch_table.render();

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"serve_throughput\",\n"
       << "  \"app\": \"" << app.name << "\",\n"
       << "  \"smoke\": " << (smoke_mode ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"sharded_scaling\": [\n";
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const ShardedRun& r = sharded[i];
    json << "    {\"shards\": " << r.shards << ", \"seconds\": " << r.seconds
         << ", \"requests_per_second\": " << r.requests_per_second
         << ", \"speedup\": "
         << r.requests_per_second / sharded.front().requests_per_second
         << ", \"cache_hit_rate\": " << r.cache_hit_rate << '}'
         << (i + 1 < sharded.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"batching\": [\n";
  for (std::size_t i = 0; i < batching.size(); ++i) {
    const BatchingRun& r = batching[i];
    json << "    {\"batch\": " << r.batch << ", \"seconds\": " << r.seconds
         << ", \"requests_per_second\": " << r.requests_per_second
         << ", \"speedup\": "
         << r.requests_per_second / batching.front().requests_per_second
         << '}' << (i + 1 < batching.size() ? "," : "") << '\n';
  }
  json << "  ]\n}\n";
  std::ofstream(out_path) << json.str();
  std::cout << "\nwrote " << out_path << '\n';
  if (trace.has_value()) {
    trace->finish();
    std::cout << "wrote " << trace->spans_written() << " trace spans to "
              << trace->path() << '\n';
  }

  if (smoke_mode) {
    // CI regression gate: more shards must mean more QPS (the per-shard
    // cache budget makes this hold even on one core), and batched frames
    // must beat single-request frames.
    const double shard_speedup = sharded.back().requests_per_second /
                                 sharded.front().requests_per_second;
    const double batch_speedup = batching.back().requests_per_second /
                                 batching.front().requests_per_second;
    std::cout << "\nsmoke: " << sharded.back().shards << " shards vs 1: "
              << format_fixed(shard_speedup, 2) << "x, batch "
              << batching.back().batch << " vs 1: "
              << format_fixed(batch_speedup, 2) << "x\n";
    if (shard_speedup <= 1.0) {
      std::cerr << "FAIL: " << sharded.back().shards
                << " shards did not beat 1 shard on QPS\n";
      return 1;
    }
    if (batch_speedup <= 1.0) {
      std::cerr << "FAIL: batched frames did not beat single-request "
                   "frames on QPS\n";
      return 1;
    }
  }
  return 0;
}
