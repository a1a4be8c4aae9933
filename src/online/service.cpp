#include "online/service.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/ingest.hpp"
#include "serve/protocol.hpp"

namespace exareq::online {
namespace {

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

}  // namespace

OnlineService::OnlineService(serve::ModelRegistry& registry,
                             OnlineServiceOptions options,
                             IncrementalRefitter::FitFn fit,
                             IngestBuffer::Clock clock, BeforeTake before_take)
    : registry_(registry),
      options_(std::move(options)),
      buffer_(options_.policy, std::move(clock)),
      refitter_(registry, options_.refit, std::move(fit)),
      before_take_(std::move(before_take)) {
  worker_ = std::thread([this] { worker_loop(); });
}

OnlineService::~OnlineService() { stop(); }

void OnlineService::enqueue_key(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    if (!queued_.insert(key).second) return;  // already queued
    queue_.push_back(key);
  }
  work_ready_.notify_one();
}

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
  try {
    pending = buffer_.add(key, std::move(rows));
  } catch (const std::exception& error) {
    // Bounded memory: the buffer refused the batch; the client retries
    // after the refitter catches up.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.batches_rejected;
    return serve::error_response("overload", error.what());
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.batches_accepted;
    stats_.rows_ingested += accepted;
    names_.emplace(key, request.app);
  }
  obs::MetricRegistry::instance().counter("online.rows_ingested").add(accepted);

  if (options_.policy.refit_rows > 0 && pending >= options_.policy.refit_rows) {
    enqueue_key(key);
  }
  publish_gauges();

  const auto version = registry_.version_of(key);
  std::ostringstream os;
  os << "ingest accepted=" << accepted << " pending=" << pending
     << " version=" << (version ? version->version : 0);
  return serve::ok_response(os.str());
}

void OnlineService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      busy_ = false;
      idle_.notify_all();
      if (stopping_) return;
      if (options_.policy.max_staleness.count() > 0) {
        // Staleness triggers are time-driven: poll for keys that aged past
        // the threshold without reaching the row-count trigger.
        work_ready_.wait_for(lock, std::chrono::milliseconds(20));
        if (queue_.empty() && !stopping_) {
          lock.unlock();
          for (const std::string& key : buffer_.due_keys()) enqueue_key(key);
          publish_gauges();
          lock.lock();
        }
      } else {
        work_ready_.wait(lock);
      }
      continue;
    }

    const std::string key = queue_.front();
    queue_.pop_front();
    queued_.erase(key);
    const bool retry = retry_.erase(key) > 0;
    const auto named = names_.find(key);
    const std::string name = named == names_.end() ? key : named->second;
    busy_ = true;
    lock.unlock();

    if (before_take_) before_take_(key);
    std::vector<pipeline::AppMeasurement> rows = buffer_.take(key);
    if (rows.empty() && !retry) {
      // Queued again (by drain() or an ingest) after an earlier pass had
      // already dequeued the key and then took its rows: nothing is new.
      lock.lock();
      continue;
    }
    const RefitOutcome outcome = refitter_.refit(name, std::move(rows));

    auto& metrics = obs::MetricRegistry::instance();
    lock.lock();
    if (!outcome.attempted && outcome.rows_total > 0) {
      // The registry's single-flight gate was busy (a query-triggered fit
      // of the same app is running); the rows are already accumulated in
      // the refitter, so retry shortly with an empty batch.
      retry_.insert(key);
      if (queued_.insert(key).second) queue_.push_back(key);
      work_ready_.wait_for(lock, std::chrono::milliseconds(5));
      continue;
    }
    if (!outcome.error.empty()) {
      ++stats_.refit_failures;
      metrics.counter("online.refit_failures").add(1);
    }
    if (outcome.published) {
      ++stats_.refits;
      stats_.last_version = outcome.version;
      metrics.counter("online.refits").add(1);
    }
    if (outcome.rolled_back) {
      ++stats_.rollbacks;
      metrics.counter("online.rollbacks").add(1);
    }
    lock.unlock();
    publish_gauges();
    lock.lock();
  }
}

void OnlineService::drain() {
  for (;;) {
    for (const std::string& key : buffer_.pending_keys()) enqueue_key(key);
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] {
      return stopping_ || (queue_.empty() && !busy_);
    });
    if (stopping_ || buffer_.total_pending() == 0) return;
    // New rows arrived (or a flush raced the worker); flush again.
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

void OnlineService::publish_gauges() {
  auto& metrics = obs::MetricRegistry::instance();
  metrics.gauge("online.rows_pending")
      .set(static_cast<double>(buffer_.total_pending()));
  metrics.gauge("online.staleness_seconds")
      .set(buffer_.max_staleness_seconds());
  std::lock_guard<std::mutex> lock(mutex_);
  metrics.gauge("online.model_version")
      .set(static_cast<double>(stats_.last_version));
}

OnlineStats OnlineService::stats() const {
  OnlineStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = stats_;
  }
  snapshot.rows_pending = buffer_.total_pending();
  snapshot.staleness_seconds = buffer_.max_staleness_seconds();
  return snapshot;
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
