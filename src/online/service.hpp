// OnlineService: the always-on half of `exareq serve`.
//
// One service owns the whole streaming loop and every online row: ingest
// requests (parsed and validated by online/ingest.hpp) stage rows per
// application, a single background worker refits applications the refit
// policy declares due, and every accepted refit is published to the
// registry (a hot swap) while queries keep being answered. The server stays
// decoupled: it only sees the serve::OnlineHooks bundle (`hooks()`), which
// routes `ingest` requests here and hands `status` the online counters.
//
// All per-application state (pending rows, the oldest pending row's
// arrival, the first-ingested name, the dataset of record and the queued
// flag) lives in one map under one mutex. The worker takes an application's
// pending rows only after it holds the registry's single-flight gate for
// that application, so a query-triggered fit in progress leaves the rows
// pending, counted and ageing, until the gate frees.
//
// A refit is always a full fit over the dataset of record (every row ever
// accepted) in canonical row order. "Incremental" refers to when fits
// happen, not to an approximate update: PMNF model selection is a discrete
// hypothesis search, so the only way the served model is guaranteed to
// equal a cold fit on the concatenated data (the differential-oracle
// contract) is to refit from the full canonical dataset. On fit failure the
// current version stays; a refit whose quality regresses beyond the
// configured tolerance is rejected before it is published, so no query is
// ever answered from it, and the current version stays as well.
//
// One worker, not a pool: refits are serialized so at most one model fit
// runs off the query path at a time (the fit engine itself is serial — the
// process-wide shared pool admits one top-level client, which the server's
// fit-on-demand may already be), and a second concurrent refit would only
// compete for the same cores the query workers need. A refit takes every
// row pending for its application, so a burst of ingests costs one refit,
// not one per batch.
//
// Observability: counters online.rows_ingested / online.refits /
// online.refit_failures / online.rollbacks, gauges online.rows_pending /
// online.staleness_seconds / online.model_version, spans in category
// "online" (see docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "online/stats.hpp"
#include "pipeline/serve_bridge.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"

namespace exareq::online {

/// When the worker refits an application, and how much it may stage.
struct RefitPolicy {
  /// Pending rows that make an app due; 0 disables the row-count trigger.
  std::size_t refit_rows = 25;
  /// Age of the oldest pending row that makes an app due; 0 disables.
  std::chrono::milliseconds max_staleness{0};
  /// Hard per-app bound; a batch that would exceed it is rejected.
  std::size_t max_pending_rows = 4096;
};

struct RefitOptions {
  /// Search space and fit configuration (threads forced to 1 by the fit).
  model::GeneratorOptions generator;
  /// Allowed increase of mean absolute relative error over the current
  /// version before a refit is rejected unpublished; 0 disables the guard
  /// (required for bit-exact cold-fit equivalence, hence the default).
  double max_quality_regression = 0.0;
};

struct OnlineServiceOptions {
  RefitPolicy policy;
  RefitOptions refit;
};

class OnlineService {
 public:
  /// Fits a bundle from an in-memory campaign; injectable so failure and
  /// regression paths are testable without a pathological dataset. Empty =
  /// pipeline::fit_requirement_bundle with `options.refit.generator`.
  using FitFn =
      std::function<pipeline::FittedBundle(const pipeline::CampaignData&)>;
  using Clock = std::function<std::chrono::steady_clock::time_point()>;

  /// `registry` must outlive the service. `fit`/`clock` are test seams
  /// (empty = real fitter / steady_clock).
  explicit OnlineService(serve::ModelRegistry& registry,
                         OnlineServiceOptions options = {}, FitFn fit = {},
                         Clock clock = {});
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
  /// One application's online rows, keyed by lower-cased name in `apps_`.
  struct AppRows {
    std::string name;  ///< first-ingested spelling; names a first version
    std::vector<pipeline::AppMeasurement> pending;  ///< not yet refitted
    std::chrono::steady_clock::time_point oldest{};  ///< first pending row
    bool queued = false;  ///< the row trigger or a drain asked for a refit
    /// Every refitted row, in canonical order. Only the worker touches it,
    /// and it does so with the mutex released.
    pipeline::CampaignData dataset;
  };

  /// What one refit did.
  struct Refit {
    bool published = false;
    bool rejected = false;  ///< the quality guard kept the current version
    bool failed = false;
    std::uint64_t version = 0;
  };

  void worker_loop();
  bool due(const AppRows& app,
           std::chrono::steady_clock::time_point now) const;
  /// Fits `app`'s dataset of record after appending `rows`, and publishes
  /// the fit unless the quality guard rejects it. The caller holds the
  /// app's single-flight gate; this releases it.
  Refit refit(const std::string& key, AppRows& app,
              std::vector<pipeline::AppMeasurement> rows);
  /// Counters plus the pending rows and worst staleness; needs `mutex_`.
  OnlineStats snapshot_locked() const;

  serve::ModelRegistry& registry_;
  OnlineServiceOptions options_;
  FitFn fit_;
  Clock clock_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::map<std::string, AppRows> apps_;
  std::string last_refit_;  ///< the worker resumes its scan after this key
  bool busy_ = false;       ///< worker is mid-refit
  bool stopping_ = false;
  OnlineStats stats_;

  std::thread worker_;
};

}  // namespace exareq::online
