#include "probes.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "memtrace/locality.hpp"
#include "obs/trace.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/measure.hpp"
#include "serve/query_engine.hpp"
#include "serve/registry.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {

using namespace exareq;

std::vector<std::int64_t> timed_parallel_for(
    std::size_t count, std::size_t threads,
    const std::function<void(std::size_t)>& fn) {
  std::vector<std::int64_t> durations(count, 0);
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      const auto start = Clock::now();
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      durations[i] = elapsed_ns(start);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
  return durations;
}

namespace {

struct GridPoint {
  const apps::Application* app;
  int p;
  std::int64_t n;
};

std::vector<GridPoint> grid_points(const RunConfig& config) {
  std::vector<GridPoint> points;
  for (const apps::AppId id : config.apps) {
    for (const std::int64_t n : config.sizes) {
      for (const int p : config.processes) {
        points.push_back({&apps::application(id), p, n});
      }
    }
  }
  return points;
}

Samples to_samples(const std::vector<std::int64_t>& durations) {
  Samples samples;
  for (const std::int64_t ns : durations) samples.add_ns(ns);
  return samples;
}

}  // namespace

Samples probe_measure(const RunConfig& config, std::size_t threads) {
  obs::ScopedSpan span("probe_measure", "bench");
  const std::vector<GridPoint> points = grid_points(config);
  pipeline::LocalityOptions no_locality;
  no_locality.enabled = false;
  return to_samples(timed_parallel_for(points.size(), threads, [&](std::size_t i) {
    (void)pipeline::measure_app(*points[i].app, points[i].p, points[i].n,
                                no_locality);
  }));
}

Samples probe_simmpi_floor(const RunConfig& config) {
  obs::ScopedSpan span("probe_simmpi_floor", "bench");
  const std::vector<GridPoint> points = grid_points(config);
  return to_samples(timed_parallel_for(points.size(), 1, [&](std::size_t i) {
    (void)simmpi::run(points[i].p,
                      [](simmpi::Communicator& comm) { comm.barrier(); });
  }));
}

Samples probe_locality(const RunConfig& config, std::size_t threads,
                       double& accesses) {
  obs::ScopedSpan span("probe_locality", "bench");
  std::vector<std::pair<const apps::Application*, std::int64_t>> calls;
  for (const apps::AppId id : config.apps) {
    for (const std::int64_t n : config.sizes) {
      calls.emplace_back(&apps::application(id), n);
    }
  }
  const memtrace::LocalityConfig locality = pipeline::LocalityOptions{}.config;
  std::vector<double> recorded(calls.size(), 0.0);
  const Samples samples = to_samples(
      timed_parallel_for(calls.size(), threads, [&](std::size_t i) {
        memtrace::LocalityAnalyzer analyzer(locality);
        calls[i].first->trace_locality(calls[i].second, analyzer);
        recorded[i] = static_cast<double>(analyzer.recorded());
        (void)analyzer.finish(recorded[i]);
      }));
  accesses = 0.0;
  for (const double count : recorded) accesses += count;
  return samples;
}

Samples probe_checkpoint(const std::vector<pipeline::CampaignData>& campaigns,
                         const std::string& dir, double& bytes) {
  obs::ScopedSpan span("probe_checkpoint", "bench");
  Samples samples;
  bytes = 0.0;
  for (const pipeline::CampaignData& campaign : campaigns) {
    pipeline::CheckpointOptions options;
    options.directory = dir + "/" + campaign.app_name;
    options.fsync = true;
    make_dirs(options.directory);
    {
      pipeline::CheckpointWriter writer(options, 0);
      for (std::size_t slot = 0; slot < campaign.measurements.size(); ++slot) {
        const auto start = Clock::now();
        writer.append(static_cast<std::uint32_t>(slot),
                      campaign.measurements[slot]);
        samples.add_since(start);
      }
      bytes += static_cast<double>(writer.bytes_written());
    }
    remove_tree(options.directory);
  }
  return samples;
}

ComputeSamples probe_compute(
    const std::vector<codesign::AppRequirements>& bundles,
    const std::vector<serve::Request>& requests, double budget_s) {
  obs::ScopedSpan span("probe_compute", "bench");
  serve::ModelRegistry registry;
  for (const auto& bundle : bundles) registry.insert(bundle);
  serve::QueryEngine engine(registry);
  ComputeSamples samples;
  const auto started = Clock::now();
  do {
    for (const serve::Request& request : requests) {
      const auto start = Clock::now();
      try {
        (void)engine.compute(request);
      } catch (const std::exception&) {
        continue;  // an infeasible query is not a timing sample
      }
      const std::int64_t ns = elapsed_ns(start);
      switch (request.kind) {
        case serve::RequestKind::kEval: samples.eval.add_ns(ns); break;
        case serve::RequestKind::kInvert: samples.invert.add_ns(ns); break;
        case serve::RequestKind::kUpgrade: samples.upgrade.add_ns(ns); break;
        case serve::RequestKind::kStrawman: samples.strawman.add_ns(ns); break;
        default: break;
      }
    }
  } while (elapsed_ns(started) < static_cast<std::int64_t>(budget_s * 1e9));
  return samples;
}

serve::Request random_request(serve::RequestKind kind, const std::string& app,
                              Rng& rng) {
  serve::Request request;
  request.kind = kind;
  request.app = app;
  switch (kind) {
    case serve::RequestKind::kEval: {
      const auto& metrics = serve::metric_names();
      request.metric = metrics[rng.below(metrics.size())];
      request.p = std::round(rng.log_uniform(2.0, 1e6));
      request.n = std::round(rng.log_uniform(16.0, 1e6));
      break;
    }
    case serve::RequestKind::kInvert:
    case serve::RequestKind::kUpgrade:
      request.processes = std::round(rng.log_uniform(1e3, 1e6));
      request.memory_per_process = std::round(rng.log_uniform(1e9, 1.6e10));
      break;
    default:
      break;
  }
  return request;
}

std::vector<serve::Request> probe_requests(const std::vector<std::string>& apps,
                                           std::uint64_t seed) {
  Rng rng(seed ^ 0xC0DE5167ULL);
  std::vector<serve::Request> requests;
  for (const std::string& app : apps) {
    for (int i = 0; i < 16; ++i) {
      requests.push_back(random_request(serve::RequestKind::kEval, app, rng));
    }
    for (int i = 0; i < 4; ++i) {
      requests.push_back(random_request(serve::RequestKind::kInvert, app, rng));
      requests.push_back(random_request(serve::RequestKind::kUpgrade, app, rng));
    }
    requests.push_back(random_request(serve::RequestKind::kStrawman, app, rng));
  }
  return requests;
}

}  // namespace perfbench
