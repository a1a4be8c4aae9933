#include "online/service.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/ingest.hpp"
#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace exareq::online {
namespace {

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

void publish_gauges(const OnlineStats& stats) {
  auto& metrics = obs::MetricRegistry::instance();
  metrics.gauge("online.rows_pending")
      .set(static_cast<double>(stats.rows_pending));
  metrics.gauge("online.staleness_seconds").set(stats.staleness_seconds);
  metrics.gauge("online.model_version")
      .set(static_cast<double>(stats.last_version));
}

}  // namespace

OnlineService::OnlineService(serve::ModelRegistry& registry,
                             OnlineServiceOptions options, FitFn fit,
                             Clock clock)
    : registry_(registry),
      options_(std::move(options)),
      fit_(std::move(fit)),
      clock_(clock ? std::move(clock)
                   : [] { return std::chrono::steady_clock::now(); }) {
  exareq::require(options_.policy.max_pending_rows >= 1,
                  "OnlineService: max_pending_rows must be >= 1");
  if (!fit_) {
    fit_ = [generator = options_.refit.generator](
               const pipeline::CampaignData& data) {
      return pipeline::fit_requirement_bundle(data, generator);
    };
  }
  worker_ = std::thread([this] { worker_loop(); });
}

OnlineService::~OnlineService() { stop(); }

std::string OnlineService::handle_ingest(const serve::Request& request) {
  obs::ScopedSpan span("online_ingest", "online");
  const std::string key = lowercase(request.app);

  std::vector<pipeline::AppMeasurement> rows;
  try {
    rows = parse_ingest_payload(request.payload);
  } catch (const std::exception& error) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.batches_rejected;
    return serve::error_response("bad-request", error.what());
  }
  const std::size_t accepted = rows.size();
  span.arg("rows", static_cast<double>(accepted));

  std::size_t pending = 0;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = apps_.find(key);
    const std::size_t before =
        it == apps_.end() ? 0 : it->second.pending.size();
    if (before + accepted > options_.policy.max_pending_rows) {
      // Bounded memory: the batch is refused whole; the client retries
      // after a refit has taken the pending rows.
      ++stats_.batches_rejected;
      return serve::error_response(
          "overload",
          "ingest buffer for '" + key + "' is full (" +
              std::to_string(before) + " rows pending, batch of " +
              std::to_string(accepted) + " exceeds the bound of " +
              std::to_string(options_.policy.max_pending_rows) +
              "); retry after a refit");
    }
    if (it == apps_.end()) {
      it = apps_.try_emplace(key).first;
      it->second.name = request.app;
    }
    AppRows& app = it->second;
    if (app.pending.empty()) app.oldest = clock_();
    app.pending.insert(app.pending.end(), std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
    pending = app.pending.size();
    if (!app.queued && options_.policy.refit_rows > 0 &&
        pending >= options_.policy.refit_rows) {
      app.queued = wake = true;
    }
    ++stats_.batches_accepted;
    stats_.rows_ingested += accepted;
    publish_gauges(snapshot_locked());
  }
  obs::MetricRegistry::instance().counter("online.rows_ingested").add(accepted);
  if (wake) work_ready_.notify_one();

  const auto version = registry_.version_of(key);
  std::ostringstream os;
  os << "ingest accepted=" << accepted << " pending=" << pending
     << " version=" << (version ? version->version : 0);
  return serve::ok_response(os.str());
}

bool OnlineService::due(const AppRows& app,
                        std::chrono::steady_clock::time_point now) const {
  const auto staleness = options_.policy.max_staleness;
  return app.queued || (!app.pending.empty() && staleness.count() > 0 &&
                        now - app.oldest >= staleness);
}

void OnlineService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Scan from the app after the last one refitted, wrapping around, so a
    // busy app cannot starve the others. An app is taken only once its
    // single-flight gate is held; with the gate busy (a query-triggered fit
    // of the same app is running) its rows stay pending.
    const auto now = clock_();
    auto start = apps_.upper_bound(last_refit_);
    auto taken = apps_.end();
    bool gate_busy = false;
    for (std::size_t i = 0; i < apps_.size() && taken == apps_.end(); ++i) {
      if (start == apps_.end()) start = apps_.begin();
      const auto it = start++;
      if (!due(it->second, now)) continue;
      if (registry_.try_begin_fit(it->first)) {
        taken = it;
      } else {
        gate_busy = true;
      }
    }

    if (taken == apps_.end()) {
      if (!gate_busy) {
        idle_.notify_all();
        if (stopping_) return;
      }
      if (gate_busy) {
        work_ready_.wait_for(lock, std::chrono::milliseconds(5));
      } else if (options_.policy.max_staleness.count() > 0) {
        // Staleness triggers are time-driven: poll for apps that aged past
        // the threshold without reaching the row-count trigger.
        work_ready_.wait_for(lock, std::chrono::milliseconds(20));
        publish_gauges(snapshot_locked());
      } else {
        work_ready_.wait(lock);
      }
      continue;
    }

    const std::string key = taken->first;
    AppRows& app = taken->second;
    std::vector<pipeline::AppMeasurement> rows = std::move(app.pending);
    app.pending.clear();
    app.queued = false;
    last_refit_ = key;
    busy_ = true;
    lock.unlock();

    const Refit outcome = refit(key, app, std::move(rows));

    auto& metrics = obs::MetricRegistry::instance();
    lock.lock();
    busy_ = false;
    if (outcome.failed) {
      ++stats_.refit_failures;
      metrics.counter("online.refit_failures").add(1);
    }
    if (outcome.published) {
      ++stats_.refits;
      stats_.last_version = outcome.version;
      metrics.counter("online.refits").add(1);
    }
    if (outcome.rejected) {
      ++stats_.rollbacks;
      metrics.counter("online.rollbacks").add(1);
    }
    publish_gauges(snapshot_locked());
  }
}

OnlineService::Refit OnlineService::refit(
    const std::string& key, AppRows& app,
    std::vector<pipeline::AppMeasurement> rows) {
  Refit outcome;
  // The fit publishes under the registered bundle's name, so a refit keeps
  // the spelling the model was loaded with; a first version takes the
  // first ingest's.
  const auto registered = registry_.version_of(key);
  pipeline::CampaignData& dataset = app.dataset;
  dataset.app_name = registered ? registered->models->name : app.name;
  dataset.measurements.insert(dataset.measurements.end(),
                              std::make_move_iterator(rows.begin()),
                              std::make_move_iterator(rows.end()));
  // Canonical order: any arrival permutation of the same rows yields the
  // same dataset, hence the same fit as a cold run over that dataset.
  std::sort(dataset.measurements.begin(), dataset.measurements.end(),
            pipeline::measurement_row_less);
  const std::uint64_t rows_total = dataset.measurements.size();

  obs::ScopedSpan span("online_refit", "online");
  span.arg("rows", static_cast<double>(rows_total));

  pipeline::FittedBundle bundle;
  try {
    bundle = fit_(dataset);
  } catch (const std::exception&) {
    registry_.end_fit(key, false);
    outcome.failed = true;
    return outcome;
  }
  // The guard runs before the publish: a refit that regresses never
  // becomes the current version, so no query is answered from it. It
  // compares with the version current after the fit; the held gate keeps
  // fit-on-demand from publishing meanwhile.
  const double quality = bundle.mean_abs_relative_error;
  const auto current = registry_.version_of(key);
  outcome.rejected =
      options_.refit.max_quality_regression > 0.0 && current &&
      !std::isnan(current->mean_abs_relative_error) && !std::isnan(quality) &&
      quality > current->mean_abs_relative_error +
                    options_.refit.max_quality_regression;
  if (!outcome.rejected) {
    outcome.version = registry_.publish(std::move(bundle.requirements),
                                        serve::VersionSource::kOnlineRefit,
                                        rows_total, quality);
    outcome.published = true;
  }
  registry_.end_fit(key, true);
  return outcome;
}

void OnlineService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return;
    bool pending = false;
    for (auto& [key, app] : apps_) {
      if (app.pending.empty()) continue;
      app.queued = pending = true;
    }
    if (!pending && !busy_) return;
    work_ready_.notify_one();
    idle_.wait(lock);
  }
}

void OnlineService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !worker_.joinable()) return;
  }
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  if (worker_.joinable()) worker_.join();
}

OnlineStats OnlineService::snapshot_locked() const {
  OnlineStats snapshot = stats_;
  const auto now = clock_();
  for (const auto& [key, app] : apps_) {
    if (app.pending.empty()) continue;
    snapshot.rows_pending += app.pending.size();
    snapshot.staleness_seconds = std::max(
        snapshot.staleness_seconds,
        std::chrono::duration<double>(now - app.oldest).count());
  }
  return snapshot;
}

OnlineStats OnlineService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked();
}

serve::OnlineHooks OnlineService::hooks() {
  serve::OnlineHooks hooks;
  hooks.ingest = [this](const serve::Request& request) {
    return handle_ingest(request);
  };
  hooks.stats = [this] { return stats(); };
  return hooks;
}

}  // namespace exareq::online
