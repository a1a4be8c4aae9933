// The `serve` workload, mirroring `exareq serve`: a 2-shard ShardedServer
// with one OnlineService per shard (CLI defaults, refit every 25 rows)
// behind a Unix-socket FrontEnd, preloaded with the nine bundles fitted in
// set-up.
//
//   reads  — a closed loop of 2 binary connections, each sending 64-request
//            frames drawn with Zipf(s = 1) over a working set 4x the total
//            result-cache capacity; 70% eval, 15% invert, 10% upgrade,
//            5% strawman.
//   writes — a 1-connection open loop sending a 25-row (5x5) ingest batch
//            for one of three fixed apps on a fixed schedule; each batch
//            is that app's measured campaign with its work counts scaled,
//            so every refit really changes the served model.
//
// Gates: every response is `ok`, and sampled responses for the apps that
// get no ingest are byte-identical to a fresh, uncached QueryEngine on the
// owning shard's registry. After the final drain the stale-answer probe
// re-asks a fixed set of questions about the ingested apps and counts the
// answers that differ from a fresh engine: a finding, not a gate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"
#include "online/service.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "pipeline/serve_bridge.hpp"
#include "probes.hpp"
#include "serve/frontend.hpp"
#include "serve/query_engine.hpp"
#include "serve/sharded_server.hpp"
#include "stats.hpp"
#include "support/csv.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace exareq;

namespace {

using serve::Request;
using serve::RequestKind;

constexpr std::size_t kShards = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kFrameSize = 64;
constexpr std::size_t kWorkingSetFactor = 4;  ///< working set / cache entries
constexpr double kIngestScale = 10.0;  ///< ingested rows = measured rows x this
const char* const kIngestApps[] = {"Kripke", "LULESH", "Stencil3D"};

/// Zipf(s) over ranks 0..size-1, sampled by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t size, double s) : cdf_(size) {
    double total = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& value : cdf_) value /= total;
  }
  std::size_t sample(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The read working set, one list per kind in Zipf rank order.
struct WorkingSet {
  std::vector<std::vector<Request>> lists;  ///< eval, invert, upgrade, strawman
  std::vector<Zipf> zipf;

  std::vector<Request> frame(Rng& rng, std::size_t size) const {
    std::vector<Request> requests;
    requests.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      const double u = rng.uniform();
      const std::size_t kind = u < 0.70 ? 0 : u < 0.85 ? 1 : u < 0.95 ? 2 : 3;
      requests.push_back(lists[kind][zipf[kind].sample(rng)]);
    }
    return requests;
  }
};

bool is_ok(const std::string& response) { return response.rfind("ok", 0) == 0; }

/// The campaign with its work counts (flops, loads/stores, energy) scaled:
/// the same requirement shapes at another size, so a refit on it really
/// changes the served answers.
pipeline::CampaignData scaled_campaign(pipeline::CampaignData data) {
  for (pipeline::AppMeasurement& m : data.measurements) {
    m.flops *= kIngestScale;
    m.loads_stores *= kIngestScale;
    m.energy_proxy *= kIngestScale;
  }
  return data;
}

/// Ingest payload: the campaign CSV with records joined by ';'.
std::string ingest_payload(const pipeline::CampaignData& data) {
  std::string csv = data.to_csv().to_string();
  while (!csv.empty() && csv.back() == '\n') csv.pop_back();
  std::replace(csv.begin(), csv.end(), '\n', ';');
  return csv;
}

/// What one measured window saw.
struct Window {
  Samples frames;
  Samples ingests;  ///< from each batch's due time to its response
  double ingest_late_max_ms = 0.0;
  std::uint64_t queries = 0;
  double seconds = 0.0;
  std::vector<std::size_t> frames_per_connection;
  /// When each frame in `frames` completed, in seconds since the window
  /// opened (same order as `frames`).
  std::vector<double> frame_end_s;
};

/// Medians over a window's one-second slices of the queries answered per
/// second and of each slice's median frame round trip. A burst of stolen
/// CPU then moves one slice instead of the run's figures.
struct SliceMedians {
  double qps = 0.0;
  double frame_p50_ms = 0.0;
  std::size_t slices = 0;
};

SliceMedians slice_medians(const Window& window, double seconds) {
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double slice_s = seconds / static_cast<double>(slices);
  std::vector<double> queries(slices, 0.0);
  std::vector<std::vector<double>> latencies(slices);
  for (std::size_t i = 0; i < window.frame_end_s.size(); ++i) {
    const auto slice = static_cast<std::size_t>(window.frame_end_s[i] / slice_s);
    if (slice >= slices) continue;  // completed after the window closed
    queries[slice] += static_cast<double>(kFrameSize);
    latencies[slice].push_back(window.frames.ns()[i]);
  }
  std::vector<double> qps, p50_ms;
  for (std::size_t s = 0; s < slices; ++s) {
    qps.push_back(queries[s] / slice_s);
    if (!latencies[s].empty()) p50_ms.push_back(quantile(latencies[s], 0.5) / 1e6);
  }
  return {quantile(qps, 0.5), quantile(p50_ms, 0.5), slices};
}

}  // namespace

RunResult run_serve(const RunConfig& config) {
  RunResult result;
  const auto setup_start = Clock::now();

  // Inputs: the campaigns and their fitted bundles.
  std::vector<pipeline::CampaignData> campaigns;
  std::vector<codesign::AppRequirements> bundles;
  std::vector<std::string> names;
  model::GeneratorOptions fit_options;
  fit_options.fit.threads = 0;
  for (const AppInput& input : measure_inputs(config)) {
    campaigns.push_back(pipeline::CampaignData::from_csv(
        CsvDocument::parse_string(input.csv), input.name));
    bundles.push_back(pipeline::to_requirements(
        pipeline::model_requirements(campaigns.back(), fit_options)));
    names.push_back(input.name);
  }

  // Ingest batches for the ingest apps that are part of this run, and a
  // bundle fitted on one batch so the working set can avoid questions a
  // refitted model cannot answer.
  std::vector<std::string> ingest_apps;
  std::vector<std::string> payloads;
  serve::ModelRegistry scaled_registry;
  for (const std::string app : kIngestApps) {
    const auto it = std::find(names.begin(), names.end(), app);
    if (it == names.end()) continue;
    const pipeline::CampaignData scaled =
        scaled_campaign(campaigns[it - names.begin()]);
    ingest_apps.push_back(app);
    payloads.push_back(ingest_payload(scaled));
    codesign::AppRequirements bundle =
        pipeline::fit_requirement_bundle(scaled).requirements;
    bundle.name = app;
    scaled_registry.insert(std::move(bundle));
  }
  const auto ingested = [&ingest_apps](const std::string& app) {
    return std::find(ingest_apps.begin(), ingest_apps.end(), app) !=
           ingest_apps.end();
  };

  // Working set: 4x the total cache capacity, every item answerable. Apps
  // take Zipf ranks round-robin in a fixed order, so every seed puts the
  // same app mix on the hot ranks and the seed only moves coordinates.
  Rng rng(config.seed);
  serve::ModelRegistry base_registry;
  for (const auto& bundle : bundles) base_registry.insert(bundle);
  serve::QueryEngine base_engine(base_registry);
  serve::QueryEngine scaled_engine(scaled_registry);
  const std::size_t total =
      kWorkingSetFactor * kShards * config.cache_capacity;
  WorkingSet set;
  const RequestKind kinds[] = {RequestKind::kEval, RequestKind::kInvert,
                               RequestKind::kUpgrade};
  const double shares[] = {0.70, 0.15, 0.10};
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<Request> list;
    const auto want = static_cast<std::size_t>(shares[k] * static_cast<double>(total));
    for (std::size_t attempt = 0; list.size() < want && attempt < 20 * want;
         ++attempt) {
      Request request =
          random_request(kinds[k], names[list.size() % names.size()], rng);
      if (!is_ok(base_engine.answer(request))) continue;
      if (ingested(request.app) && !is_ok(scaled_engine.answer(request))) continue;
      list.push_back(std::move(request));
    }
    set.lists.push_back(std::move(list));
  }
  std::vector<Request> strawmen;
  for (const std::string& app : names) {
    strawmen.push_back(random_request(RequestKind::kStrawman, app, rng));
  }
  set.lists.push_back(std::move(strawmen));
  for (const auto& list : set.lists) set.zipf.emplace_back(list.size(), 1.0);

  // Stale-answer probe set: the hottest eval items of each ingested app,
  // plus its strawman.
  std::vector<Request> probes;
  for (const std::string& app : ingest_apps) {
    std::size_t taken = 0;
    for (const Request& request : set.lists[0]) {
      if (request.app != app || taken == config.probes_per_app) continue;
      probes.push_back(request);
      ++taken;
    }
    for (const Request& request : set.lists[3]) {
      if (request.app == app) probes.push_back(request);
    }
  }

  // The serving stack, wired like cmd_serve.
  serve::ShardedServerOptions options;
  options.shards = kShards;
  options.cache_capacity = config.cache_capacity;
  serve::ShardedServer server(options, [] {
    return std::make_unique<serve::ModelRegistry>(
        pipeline::make_registry_fitter());
  });
  for (const auto& bundle : bundles) server.insert(bundle);
  std::vector<std::unique_ptr<online::OnlineService>> services;
  for (std::size_t shard = 0; shard < server.shard_count(); ++shard) {
    services.push_back(
        std::make_unique<online::OnlineService>(server.registry(shard)));
    server.set_online_hooks(shard, services.back()->hooks());
  }
  serve::FrontEndOptions front_options;
  front_options.unix_path = config.work_dir + "/serve.sock";
  make_dirs(config.work_dir);
  serve::FrontEnd front(server, front_options);
  // Shard threads call into the online hooks, so on every exit path the
  // front end and server stop before the services (declared earlier) die.
  struct StopGuard {
    serve::FrontEnd& front;
    serve::ShardedServer& server;
    ~StopGuard() {
      front.stop();
      server.stop();
    }
  } stop_guard{front, server};
  front.start();
  const double setup_s = elapsed_ns(setup_start) / 1e9;

  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> attempted{0};
  std::mutex sampled_mutex;
  std::vector<std::pair<Request, std::string>> sampled;

  // Warm the probe set so the cache holds pre-refit answers.
  {
    serve::Client client = serve::Client::connect_unix(front_options.unix_path);
    for (const std::string& response : client.query_batch(probes)) {
      ++attempted;
      if (!is_ok(response)) ++failed;
    }
  }

  std::size_t ingest_cursor = 0;
  const auto run_window = [&](double seconds, std::size_t batches,
                              std::uint64_t window_seed) {
    Window window;
    window.frames_per_connection.assign(kConnections, 0);
    std::atomic<bool> stop{false};
    std::mutex window_mutex;
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Rng frame_rng(window_seed * 1000003ULL + c);
        Samples latencies;
        std::vector<double> ends;
        std::uint64_t queries = 0;
        std::size_t frames = 0;
        try {
          serve::Client client =
              serve::Client::connect_unix(front_options.unix_path);
          while (!stop.load(std::memory_order_relaxed)) {
            const std::vector<Request> frame = set.frame(frame_rng, kFrameSize);
            const auto sent = Clock::now();
            const std::vector<std::string> responses = client.query_batch(frame);
            latencies.add_since(sent);
            ends.push_back(elapsed_ns(start) / 1e9);
            queries += frame.size();
            attempted += frame.size();
            for (std::size_t i = 0; i < responses.size(); ++i) {
              if (!is_ok(responses[i])) ++failed;
            }
            if (frames++ % 8 == 0) {
              const std::lock_guard<std::mutex> lock(sampled_mutex);
              for (std::size_t i = 0; i < frame.size(); i += 16) {
                if (!ingested(frame[i].app)) sampled.emplace_back(frame[i], responses[i]);
              }
            }
          }
        } catch (const std::exception& error) {
          ++failed;
          std::cerr << "serve client: " << error.what() << "\n";
        }
        const std::lock_guard<std::mutex> lock(window_mutex);
        window.frames.append(latencies);
        window.frame_end_s.insert(window.frame_end_s.end(), ends.begin(), ends.end());
        window.queries += queries;
        window.frames_per_connection[c] = frames;
      });
    }
    threads.emplace_back([&] {
      try {
        serve::Client client =
            serve::Client::connect_unix(front_options.unix_path);
        for (std::size_t i = 0; i < batches && !ingest_apps.empty(); ++i) {
          const auto due =
              start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          (static_cast<double>(i) + 0.5) * seconds * 1e9 /
                          static_cast<double>(batches)));
          std::this_thread::sleep_until(due);
          const double late_ms = elapsed_ns(due) / 1e6;
          Request request;
          request.kind = RequestKind::kIngest;
          const std::size_t slot = ingest_cursor++ % ingest_apps.size();
          request.app = ingest_apps[slot];
          request.payload = payloads[slot];
          const std::vector<std::string> responses = client.query_batch({request});
          const std::int64_t latency = elapsed_ns(due);
          ++attempted;
          if (responses.size() != 1 || !is_ok(responses[0])) ++failed;
          const std::lock_guard<std::mutex> lock(window_mutex);
          window.ingests.add_ns(latency);
          window.ingest_late_max_ms = std::max(window.ingest_late_max_ms, late_ms);
        }
      } catch (const std::exception& error) {
        ++failed;
        std::cerr << "serve ingest: " << error.what() << "\n";
      }
    });
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9)));
    stop = true;
    for (std::size_t c = 0; c < kConnections; ++c) threads[c].join();
    window.seconds = elapsed_ns(start) / 1e9;
    threads.back().join();
    return window;
  };

  const serve::MetricsSnapshot before = server.metrics();
  Window untraced;
  Window traced;
  Samples inproc;
  if (!config.trace) {
    const double cpu_start = process_cpu_s();
    untraced = run_window(config.seconds, config.ingest_batches, config.seed);
    result.detail("cpu_us_per_query", (process_cpu_s() - cpu_start) * 1e6 /
                                          static_cast<double>(untraced.queries),
                  "us");
  } else {
    untraced = run_window(config.seconds / 2, config.ingest_batches / 2, config.seed);
    // The same frames again, in process: submit_batch without the socket.
    std::vector<std::thread> threads;
    std::mutex inproc_mutex;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Rng frame_rng(config.seed * 1000003ULL + c);
        Samples latencies;
        try {
          for (std::size_t f = 0; f < untraced.frames_per_connection[c]; ++f) {
            const std::vector<Request> frame = set.frame(frame_rng, kFrameSize);
            const auto sent = Clock::now();
            for (const std::string& response : server.submit_batch(frame)) {
              ++attempted;
              if (!is_ok(response)) ++failed;
            }
            latencies.add_since(sent);
          }
        } catch (const std::exception& error) {
          ++failed;
          std::cerr << "serve in-process: " << error.what() << "\n";
        }
        const std::lock_guard<std::mutex> lock(inproc_mutex);
        inproc.append(latencies);
      });
    }
    for (std::thread& thread : threads) thread.join();
    obs::TraceRecorder::instance().start();
    traced = run_window(config.seconds / 2,
                        config.ingest_batches - config.ingest_batches / 2,
                        config.seed + 1);
  }
  for (const auto& service : services) service->drain();
  obs::TraceRecorder::instance().stop();
  const serve::MetricsSnapshot after = server.metrics();

  // Stale-answer probe: after the drain every refit is live, so a fresh
  // engine answers with the newest model; a cached answer that differs is
  // stale.
  std::size_t stale = 0;
  {
    serve::Client client = serve::Client::connect_unix(front_options.unix_path);
    const std::vector<std::string> responses = client.query_batch(probes);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ++attempted;
      if (!is_ok(responses[i])) ++failed;
      serve::QueryEngine fresh(server.registry(server.shard_of(probes[i].app)));
      if (fresh.answer(probes[i]) != responses[i]) ++stale;
    }
  }

  // Gate: sampled answers for apps without ingest equal a fresh engine's.
  for (const auto& [request, response] : sampled) {
    const std::string why = check_served_answer(
        server.registry(server.shard_of(request.app)), request, response);
    if (!why.empty()) {
      result.fail_gate(why);
      break;
    }
  }
  result.attempted = attempted.load();
  result.failed = failed.load();
  if (result.failed > 0) {
    result.fail_gate("serve: " + std::to_string(result.failed) +
                     " responses were not ok");
  }

  std::vector<serve::ShardStatus> shard_statuses = server.shard_statuses();
  front.stop();
  server.stop();
  online::OnlineStats online_stats;
  for (const auto& service : services) {
    const online::OnlineStats stats = service->stats();
    online_stats.refits += stats.refits;
    online_stats.rows_ingested += stats.rows_ingested;
    online_stats.rollbacks += stats.rollbacks;
    online_stats.refit_failures += stats.refit_failures;
    service->stop();
  }

  const SliceMedians slices =
      slice_medians(untraced, config.trace ? config.seconds / 2 : config.seconds);
  const double lookups =
      static_cast<double>((after.cache_hits - before.cache_hits) +
                          (after.cache_misses - before.cache_misses));
  result.detail("serve_qps", slices.qps, "1/s");
  result.detail("serve_frame_p50_ms", slices.frame_p50_ms, "ms");
  result.detail("slices", static_cast<double>(slices.slices), "count");
  result.detail("serve_qps_whole_window",
                static_cast<double>(untraced.queries) / untraced.seconds, "1/s");
  result.detail("serve_frame_p90_ms", untraced.frames.quantile_ms(0.90), "ms");
  result.detail("serve_frame_p99_ms", untraced.frames.quantile_ms(0.99), "ms");
  result.detail("frames", static_cast<double>(untraced.frames.count()), "count");
  result.detail("ingest_p50_ms", untraced.ingests.quantile_ms(0.5), "ms");
  result.detail("ingest_samples", static_cast<double>(untraced.ingests.count()), "count");
  result.detail("serve.stale_answers", static_cast<double>(stale), "count");
  result.detail("stale_probe_size", static_cast<double>(probes.size()), "count");
  result.detail("verified_samples", static_cast<double>(sampled.size()), "count");
  result.detail("online.refit_failures", static_cast<double>(online_stats.refit_failures), "count");
  report_end_to_end(result, setup_s, slices.qps, slices.frame_p50_ms);
  std::vector<double>& raw = result.raw_ms["frame"];
  for (const double ns : untraced.frames.ns()) raw.push_back(ns / 1e6);
  if (!config.trace) return result;

  Layers layers;
  layers.serve_cache_hit_ratio =
      lookups > 0 ? static_cast<double>(after.cache_hits - before.cache_hits) / lookups
                  : 0.0;
  layers.serve_cache_lookups = lookups;
  layers.serve_batch_inproc_us_p50 = inproc.quantile_us(0.5);
  layers.frontend_overhead_us_p50 =
      untraced.frames.quantile_us(0.5) - inproc.quantile_us(0.5);
  double busiest = 0.0, requests = 0.0;
  for (const serve::ShardStatus& status : shard_statuses) {
    busiest = std::max(busiest, static_cast<double>(status.metrics.requests));
    requests += static_cast<double>(status.metrics.requests);
  }
  layers.serve_shard_imbalance =
      requests > 0 ? busiest / (requests / static_cast<double>(shard_statuses.size()))
                   : 0.0;
  layers.serve_errors = static_cast<double>(after.responses_error);
  layers.serve_shed = static_cast<double>(after.sheds);
  layers.serve_deadline_drops = static_cast<double>(after.deadline_drops);
  layers.serve_stale_answers = static_cast<double>(stale);
  layers.online_refits = static_cast<double>(online_stats.refits);
  layers.online_rows_ingested = static_cast<double>(online_stats.rows_ingested);
  layers.online_rollbacks = static_cast<double>(online_stats.rollbacks);
  Samples refits;
  for (const obs::SpanEvent& span : obs::TraceRecorder::instance().snapshot()) {
    if (span.name == "online_refit") refits.add_ns(span.duration_us * 1000);
  }
  layers.online_refit_ms_p50 = refits.quantile_ms(0.5);
  Samples ingests = untraced.ingests;
  ingests.append(traced.ingests);
  layers.ingest_p50_ms = ingests.quantile_ms(0.5);
  layers.ingest_generator_late_ms_max =
      std::max(untraced.ingest_late_max_ms, traced.ingest_late_max_ms);
  std::vector<Request> compute_requests;
  for (const auto& list : set.lists) {
    for (std::size_t i = 0; i < std::min<std::size_t>(list.size(), 256); ++i) {
      compute_requests.push_back(list[i]);
    }
  }
  const ComputeSamples compute = probe_compute(bundles, compute_requests, 1.0);
  layers.codesign_invert_us_p50 = compute.invert.quantile_us(0.5);
  layers.codesign_upgrade_us_p50 = compute.upgrade.quantile_us(0.5);
  layers.codesign_strawman_us_p50 = compute.strawman.quantile_us(0.5);
  layers.model_eval_us_p50 = compute.eval.quantile_us(0.5);
  layers.obs_trace_overhead =
      traced.frames.quantile_ms(0.5) / untraced.frames.quantile_ms(0.5);
  layers.report(result);
  return result;
}

}  // namespace perfbench
