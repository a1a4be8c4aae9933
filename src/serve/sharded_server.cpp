#include "serve/sharded_server.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

namespace exareq::serve {
namespace {

/// Lock stripes of each shard's result cache.
constexpr std::size_t kCacheStripes = 4;

/// The `online_*` key=value fields of the status line.
std::string online_status_fields(const online::OnlineStats& stats) {
  std::ostringstream os;
  os << "online_rows=" << stats.rows_ingested
     << " online_pending=" << stats.rows_pending
     << " online_refits=" << stats.refits
     << " online_refit_failures=" << stats.refit_failures
     << " online_rollbacks=" << stats.rollbacks
     << " online_staleness_s=" << format_fixed(stats.staleness_seconds, 3)
     << " online_version=" << stats.last_version;
  return os.str();
}

/// Adds one shard's cache and registry counters to `snapshot`.
void add_cache_and_registry(const ShardedLruCache& cache,
                            const ModelRegistry& registry,
                            MetricsSnapshot& snapshot) {
  const CacheStats cache_stats = cache.stats();
  snapshot.cache_hits += cache_stats.hits;
  snapshot.cache_misses += cache_stats.misses;
  snapshot.cache_evictions += cache_stats.evictions;
  snapshot.cache_entries += cache_stats.entries;
  const RegistryStats registry_stats = registry.stats();
  snapshot.registry_lookups += registry_stats.lookups;
  snapshot.registry_hits += registry_stats.hits;
  snapshot.fits_started += registry_stats.fits_started;
  snapshot.fits_completed += registry_stats.fits_completed;
  snapshot.fit_failures += registry_stats.fit_failures;
  snapshot.singleflight_waits += registry_stats.singleflight_waits;
  snapshot.in_flight_fits += registry_stats.in_flight_fits;
  snapshot.files_loaded += registry_stats.files_loaded;
  snapshot.apps_loaded += registry_stats.apps;
  snapshot.hot_swaps += registry_stats.hot_swaps;
}

/// The online table of the `--status` report.
std::string online_status_table(const online::OnlineStats& stats) {
  TextTable table({"Layer", "Counter", "Value"});
  table.set_alignment({Align::kLeft, Align::kLeft, Align::kRight});
  const auto count = [](std::uint64_t value) { return format_count(value); };
  table.add_row({"online", "batches accepted", count(stats.batches_accepted)});
  table.add_row({"online", "batches rejected", count(stats.batches_rejected)});
  table.add_row({"online", "rows ingested", count(stats.rows_ingested)});
  table.add_row({"online", "rows pending", count(stats.rows_pending)});
  table.add_row({"online", "refits", count(stats.refits)});
  table.add_row({"online", "refit failures", count(stats.refit_failures)});
  table.add_row({"online", "rollbacks", count(stats.rollbacks)});
  table.add_row({"online", "staleness [s]",
                 format_fixed(stats.staleness_seconds, 3)});
  table.add_row({"online", "last version", count(stats.last_version)});
  return table.render();
}

}  // namespace

ShardedServer::ShardedServer(ShardedServerOptions options,
                             RegistryFactory factory)
    : options_(options) {
  exareq::require(options_.shards >= 1, "ShardedServer: shards must be >= 1");
  exareq::require(options_.queue_capacity >= 1,
                  "ShardedServer: queue capacity must be >= 1");
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->registry =
        factory ? factory() : std::make_unique<ModelRegistry>();
    exareq::require(shard->registry != nullptr,
                    "ShardedServer: registry factory returned null");
    shard->cache = std::make_unique<ShardedLruCache>(options_.cache_capacity,
                                                     kCacheStripes);
    shard->engine = std::make_unique<QueryEngine>(
        *shard->registry,
        options_.cache_capacity > 0 ? shard->cache.get() : nullptr);
    shards_.push_back(std::move(shard));
  }
  for (const auto& owned : shards_) {
    owned->thread = std::thread([this, &shard = *owned] { shard_loop(shard); });
  }
}

ShardedServer::~ShardedServer() { stop(); }

std::size_t ShardedServer::shard_of(std::string_view app,
                                    std::size_t shard_count) {
  // FNV-1a over the lower-cased name, matching the registry's
  // case-insensitive keys so "LULESH" and "lulesh" land on one shard.
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : app) {
    hash ^= static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(c)));
    hash *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(hash % shard_count);
}

std::size_t ShardedServer::shard_of(std::string_view app) const {
  return shard_of(app, shards_.size());
}

ModelRegistry& ShardedServer::registry(std::size_t shard) {
  exareq::require(shard < shards_.size(),
                  "ShardedServer: shard index out of range");
  return *shards_[shard]->registry;
}

void ShardedServer::set_online_hooks(std::size_t shard, OnlineHooks hooks) {
  exareq::require(shard < shards_.size(),
                  "ShardedServer: shard index out of range");
  shards_[shard]->online = std::move(hooks);
}

void ShardedServer::insert(codesign::AppRequirements models) {
  exareq::require(!models.name.empty(),
                  "ShardedServer: bundle has no name to route by");
  registry(shard_of(models.name)).insert(std::move(models));
}

std::string ShardedServer::load_file(const std::string& path) {
  // Load into a scratch registry first to learn the application name, then
  // load the file again into its owning shard, whose registry counts it in
  // files_loaded. Bundle files are a startup-time path, so the second
  // parse is irrelevant.
  ModelRegistry scratch;
  const std::string name = scratch.load_file(path);
  registry(shard_of(name)).load_file(path);
  return name;
}

std::vector<std::string> ShardedServer::submit_batch(
    const std::vector<Request>& requests) {
  std::vector<std::string> responses(requests.size());
  if (requests.empty()) return responses;
  obs::ScopedSpan span("serve_batch", "serve");

  std::shared_lock<std::shared_mutex> lock(lifecycle_);
  if (stopping_.load(std::memory_order_acquire)) {
    front_metrics_.requests.fetch_add(requests.size(),
                                      std::memory_order_relaxed);
    front_metrics_.responses_error.fetch_add(requests.size(),
                                             std::memory_order_relaxed);
    const std::string line =
        error_response("shutdown", "server is no longer accepting requests");
    std::fill(responses.begin(), responses.end(), line);
    return responses;
  }

  // Bucket by owning shard; status requests are answered here, at the
  // front end, because only it sees the cross-shard aggregate — and after
  // the rest of the batch, so they report its effects.
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  std::vector<std::size_t> statuses;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == RequestKind::kStatus) {
      statuses.push_back(i);
    } else {
      buckets[shard_of(requests[i].app)].push_back(i);
    }
  }

  std::size_t buckets_used = 0;
  for (const std::vector<std::size_t>& indices : buckets) {
    if (!indices.empty()) ++buckets_used;
  }
  // Every non-empty bucket counts down once: on its shard, or here if shed.
  std::latch done(static_cast<std::ptrdiff_t>(buckets_used));
  const auto enqueued = std::chrono::steady_clock::now();
  for (std::size_t index = 0; index < buckets.size(); ++index) {
    const std::vector<std::size_t>& indices = buckets[index];
    if (indices.empty()) continue;
    Shard& shard = *shards_[index];
    shard.metrics.requests.fetch_add(indices.size(), std::memory_order_relaxed);
    bool admitted = false;
    {
      const std::lock_guard<std::mutex> queue_lock(shard.mutex);
      if (shard.queue.size() < options_.queue_capacity) {
        shard.queue.push_back(
            Batch{&requests, &indices, &responses, enqueued, &done});
        admitted = true;
      }
    }
    if (admitted) {
      shard.work_ready.notify_one();
      batches_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    shard.metrics.sheds.fetch_add(indices.size(), std::memory_order_relaxed);
    shard.metrics.responses_error.fetch_add(indices.size(),
                                            std::memory_order_relaxed);
    const std::string line = error_response(
        "shed", "admission queue full (capacity " +
                    std::to_string(options_.queue_capacity) + ")");
    for (const std::size_t i : indices) responses[i] = line;
    done.count_down();
  }
  // The buckets execute on their shards in parallel; each writes its own
  // response slots before counting down.
  done.wait();
  for (const std::size_t i : statuses) {
    front_metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    front_metrics_.responses_ok.fetch_add(1, std::memory_order_relaxed);
    responses[i] = ok_response("status " + front_status_line());
  }
  return responses;
}

std::string ShardedServer::handle(const Request& request) {
  return submit_batch({request})[0];
}

std::string ShardedServer::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    front_metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    front_metrics_.responses_error.fetch_add(1, std::memory_order_relaxed);
    return error_response("bad-request", error.what());
  }
  return handle(request);
}

void ShardedServer::shard_loop(Shard& shard) {
  for (;;) {
    Batch batch{};
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.work_ready.wait(
          lock, [&shard] { return !shard.queue.empty() || shard.exiting; });
      if (shard.queue.empty()) return;  // exiting, and every batch answered
      batch = shard.queue.front();
      shard.queue.pop_front();
    }
    run_batch(shard, batch);
    batch.done->count_down();
  }
}

void ShardedServer::run_batch(Shard& shard, const Batch& batch) {
  obs::ScopedSpan span("serve_shard_batch", "serve");
  const bool expired =
      options_.deadline.count() > 0 &&
      std::chrono::steady_clock::now() - batch.enqueued > options_.deadline;
  for (const std::size_t index : *batch.indices) {
    std::string line;
    if (expired) {
      shard.metrics.deadline_drops.fetch_add(1, std::memory_order_relaxed);
      line = error_response("deadline",
                            "request waited longer than " +
                                std::to_string(options_.deadline.count()) +
                                " ms for a worker");
    } else {
      line = process_one(shard, (*batch.requests)[index]);
    }
    shard.metrics.latency.record(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - batch.enqueued)
            .count());
    if (line.rfind("ok", 0) == 0) {
      shard.metrics.responses_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard.metrics.responses_error.fetch_add(1, std::memory_order_relaxed);
    }
    (*batch.responses)[index] = std::move(line);
  }
}

std::string ShardedServer::process_one(Shard& shard, const Request& request) {
  try {
    validate_request(request);
  } catch (const std::exception& error) {
    return error_response("bad-request", error.what());
  }
  try {
    if (request.kind == RequestKind::kIngest) {
      if (!shard.online.ingest) {
        return error_response("bad-request",
                              "ingest is not enabled on this server");
      }
      return shard.online.ingest(request);
    }
    return shard.engine->answer(request);
  } catch (const std::exception& error) {
    // Answering instead of rethrowing keeps the shard alive for the next
    // batch.
    return error_response("internal", error.what());
  }
}

std::string ShardedServer::front_status_line() const {
  std::string line = status_line(metrics());
  line += " shards=" + std::to_string(shards_.size());
  if (const auto online = online_stats()) {
    line += " " + online_status_fields(*online);
  }
  return line;
}

std::optional<online::OnlineStats> ShardedServer::online_stats() const {
  std::optional<online::OnlineStats> total;
  for (const auto& shard : shards_) {
    if (!shard->online.stats) continue;
    if (!total) total.emplace();
    total->merge(shard->online.stats());
  }
  return total;
}

MetricsSnapshot ShardedServer::metrics() const {
  MetricsSnapshot total;
  front_metrics_.merge_into(total);
  LatencyHistogram merged;
  for (const auto& shard : shards_) {
    MetricsSnapshot s;
    shard->metrics.merge_into(s);
    total.requests += s.requests;
    total.responses_ok += s.responses_ok;
    total.responses_error += s.responses_error;
    total.sheds += s.sheds;
    total.deadline_drops += s.deadline_drops;
    merged.merge_from(shard->metrics.latency);
    add_cache_and_registry(*shard->cache, *shard->registry, total);
  }
  merged.merge_from(front_metrics_.latency);
  total.p50_latency_us = merged.quantile_us(0.50);
  total.p99_latency_us = merged.quantile_us(0.99);
  total.mean_latency_us = merged.mean_us();
  return total;
}

std::vector<ShardStatus> ShardedServer::shard_statuses() const {
  std::vector<ShardStatus> statuses;
  statuses.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStatus status;
    status.shard = i;
    status.apps = shard.registry->app_names();
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      status.queue_depth = shard.queue.size();
    }
    shard.metrics.merge_into(status.metrics);
    add_cache_and_registry(*shard.cache, *shard.registry, status.metrics);
    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::string ShardedServer::status_report() const {
  std::string report = render_status_report(metrics());

  TextTable table({"Shard", "Models", "Requests", "Cache hits", "Hit rate",
                   "Queue", "p50 [us]"});
  table.set_alignment({Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight, Align::kRight, Align::kRight,
                       Align::kRight});
  for (const ShardStatus& status : shard_statuses()) {
    table.add_row(
        {std::to_string(status.shard), std::to_string(status.apps.size()),
         format_count(status.metrics.requests),
         format_count(status.metrics.cache_hits),
         format_fixed(100.0 * status.metrics.cache_hit_rate(), 1) + " %",
         std::to_string(status.queue_depth),
         format_compact(status.metrics.p50_latency_us)});
  }
  report += "\n" + table.render();

  TextTable models({"Shard", "Model", "Version", "Source", "Rows",
                    "MeanRelErr", "Age [s]"});
  models.set_alignment({Align::kRight, Align::kLeft, Align::kRight,
                        Align::kLeft, Align::kRight, Align::kRight,
                        Align::kRight});
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const ModelInfo& info : shards_[i]->registry->model_infos()) {
      models.add_row({std::to_string(i), info.name,
                      std::to_string(info.version),
                      version_source_name(info.source),
                      std::to_string(info.rows),
                      std::isnan(info.mean_abs_relative_error)
                          ? std::string("-")
                          : format_compact(info.mean_abs_relative_error),
                      format_fixed(info.age_seconds, 1)});
    }
  }
  if (models.row_count() > 0) report += "\n" + models.render();
  if (const auto online = online_stats()) {
    report += "\n" + online_status_table(*online);
  }
  return report;
}

void ShardedServer::stop() {
  stopping_.store(true, std::memory_order_release);
  std::unique_lock<std::shared_mutex> lock(lifecycle_);
  if (joined_) return;
  joined_ = true;
  // Every in-flight batch (shared holders) has its responses by now; a
  // shard still drains its queue before it exits.
  for (auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> queue_lock(shard->mutex);
      shard->exiting = true;
    }
    shard->work_ready.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  publish_metrics();
}

void ShardedServer::publish_metrics() {
  const MetricsSnapshot snapshot = metrics();
  auto& registry = obs::MetricRegistry::instance();
  registry.counter("serve.shard.requests").add(snapshot.requests);
  registry.counter("serve.shard.batches")
      .add(batches_.load(std::memory_order_relaxed));
  registry.counter("serve.shard.errors").add(snapshot.responses_error);
  registry.counter("serve.shard.sheds").add(snapshot.sheds);
  registry.counter("serve.shard.deadline_drops").add(snapshot.deadline_drops);
  registry.counter("serve.shard.cache_hits").add(snapshot.cache_hits);
  registry.gauge("serve.shard.count").set(static_cast<double>(shards_.size()));
  auto& histogram = registry.histogram("serve.shard.latency_us");
  for (const auto& shard : shards_) {
    histogram.merge_from(shard->metrics.latency);
  }
}

}  // namespace exareq::serve
