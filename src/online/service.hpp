// OnlineService: the always-on half of `exareq serve`.
//
// One service owns the whole streaming loop: ingest requests (parsed and
// validated by online/ingest.hpp) are staged in an IngestBuffer, a single
// background worker picks up due keys per the refit policy and runs the
// IncrementalRefitter, and every successful refit hot-swaps the registry's
// VersionedModel slot while queries keep being answered. The server stays
// decoupled: it only sees the serve::OnlineHooks bundle (`hooks()`), which
// routes `ingest` requests here and hands `status` the online counters.
//
// One worker, not a pool: refits are serialized so at most one model fit
// runs off the query path at a time (the fit engine itself is serial — the
// process-wide shared pool admits one top-level client, which the server's
// fit-on-demand may already be), and a second concurrent refit would only
// compete for the same cores the query workers need. Keys queue and are
// deduplicated, so a burst of ingests costs one refit, not one per batch.
//
// Observability: counters online.rows_ingested / online.refits /
// online.refit_failures / online.rollbacks, gauges online.rows_pending /
// online.staleness_seconds / online.model_version, spans in category
// "online" (see docs/OBSERVABILITY.md).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "online/ingest_buffer.hpp"
#include "online/refitter.hpp"
#include "online/stats.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"

namespace exareq::online {

struct OnlineServiceOptions {
  RefitPolicy policy;
  RefitterOptions refit;
};

class OnlineService {
 public:
  /// Test seam: runs on the worker after it dequeued `key` and before it
  /// takes the key's staged rows — the window in which a concurrent
  /// drain() or ingest can queue the same key again.
  using BeforeTake = std::function<void(const std::string& key)>;

  /// `registry` must outlive the service. `fit`/`clock`/`before_take` are
  /// test seams (empty = real fitter / steady_clock / nothing).
  explicit OnlineService(serve::ModelRegistry& registry,
                         OnlineServiceOptions options = {},
                         IncrementalRefitter::FitFn fit = {},
                         IngestBuffer::Clock clock = {},
                         BeforeTake before_take = {});
  ~OnlineService();

  OnlineService(const OnlineService&) = delete;
  OnlineService& operator=(const OnlineService&) = delete;

  /// Handles one parsed ingest request; returns the full response line
  /// (`ok ingest accepted=<rows> pending=<rows> ...` or `error ...`).
  /// Never throws — this runs on server workers.
  std::string handle_ingest(const serve::Request& request);

  /// The callback bundle to install with ShardedServer::set_online_hooks.
  /// The service must outlive the server using them.
  serve::OnlineHooks hooks();

  /// Blocks until every staged row has been through a refit attempt and
  /// the worker is idle — the shutdown barrier, also used by tests and the
  /// differential oracle to observe a quiescent state.
  void drain();

  /// Drains, then stops and joins the worker. Idempotent.
  void stop();

  OnlineStats stats() const;

  const OnlineServiceOptions& options() const { return options_; }

 private:
  void worker_loop();
  void enqueue_key(const std::string& key);
  void publish_gauges();

  serve::ModelRegistry& registry_;
  OnlineServiceOptions options_;
  IngestBuffer buffer_;
  IncrementalRefitter refitter_;
  BeforeTake before_take_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::string> queue_;
  std::set<std::string> queued_;  ///< dedupe: a key is queued at most once
  /// Queued keys whose single-flight gate was busy: their rows are already
  /// in the refitter, so the next pass refits even when it takes none.
  std::set<std::string> retry_;
  /// Key -> the app name as first ingested; a refit of a model the
  /// registry does not hold yet publishes under it.
  std::map<std::string, std::string> names_;
  bool busy_ = false;             ///< worker is mid-refit
  bool stopping_ = false;
  OnlineStats stats_;

  std::thread worker_;
};

}  // namespace exareq::online
