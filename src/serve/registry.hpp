// ModelRegistry: the serving subsystem's store of fitted requirement
// models, one codesign::AppRequirements bundle per application.
//
// Models enter the registry four ways: preloaded in process (`insert`),
// loaded from a serialized bundle file written by `exareq model
// --models-out` (`load_file`, via model/serialize.hpp), fitted on demand
// through a caller-supplied Fitter (the pipeline's campaign runner, wired
// by pipeline/serve_bridge.hpp), or hot-swapped by the online refit loop
// (src/online) through `publish`. On-demand fits are single-flight: when
// several queries miss the same application concurrently, exactly one
// thread runs the fit while the others wait on it and share the result —
// the fit is seconds of work, so stampeding it would multiply the service's
// heaviest operation. The online service's refits reuse the same gate
// (`try_begin_fit`/`end_fit`), so a background refit and a query-triggered
// fit of the same application never race.
//
// Each entry holds one immutable ModelVersion snapshot and its
// single-flight flag, both guarded by the registry mutex. A publish swaps
// the snapshot pointer under that mutex, so a query sees either the old
// bundle or the new one, never half of each; fits run with the mutex
// released, so readers of an already-loaded model never wait on a fit.
// The returned shared_ptr keeps a snapshot alive across its use even if
// the registry is mutated concurrently. Keys are case-insensitive
// (matching the CLI's app lookup).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codesign/requirements.hpp"

namespace exareq::serve {

/// How a model version entered the registry (rendered in `serve --status`).
enum class VersionSource {
  kInsert,       ///< preloaded in process (ModelRegistry::insert)
  kFile,         ///< loaded from a serialized bundle file
  kFitOnDemand,  ///< registry fit-on-demand (query-triggered)
  kOnlineRefit,  ///< incremental refit over streamed ingest rows
};

std::string version_source_name(VersionSource source);

/// One immutable published version. Everything a query needs — the model
/// bundle plus its provenance — travels in one snapshot so a reader never
/// has to correlate separately-updated fields.
struct ModelVersion {
  std::uint64_t version = 0;  ///< 1 for an app's first publish, +1 per publish
  std::shared_ptr<const codesign::AppRequirements> models;
  VersionSource source = VersionSource::kInsert;
  /// Measurement rows behind the fit (0 when unknown, e.g. loaded bundles).
  std::uint64_t rows = 0;
  /// Mean absolute relative error of the fit over its own measurements
  /// (NaN when unknown) — the quality the refit regression guard compares.
  double mean_abs_relative_error = std::numeric_limits<double>::quiet_NaN();
  std::chrono::steady_clock::time_point published_at{};
};

/// Registry counters (merged into MetricsSnapshot by the server).
struct RegistryStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;  ///< answered from already-loaded models
  std::uint64_t fits_started = 0;
  std::uint64_t fits_completed = 0;
  std::uint64_t fit_failures = 0;
  std::uint64_t singleflight_waits = 0;
  std::uint64_t in_flight_fits = 0;
  std::uint64_t files_loaded = 0;
  std::uint64_t apps = 0;
  std::uint64_t hot_swaps = 0;  ///< publishes that replaced a live version
};

/// Per-model provenance for `serve --status`: which version is live, how it
/// got there, and how stale it is.
struct ModelInfo {
  std::string name;
  std::uint64_t version = 0;
  VersionSource source = VersionSource::kInsert;
  std::uint64_t rows = 0;
  double mean_abs_relative_error = 0.0;  ///< NaN when unknown
  double age_seconds = 0.0;              ///< since this version was published
};

class ModelRegistry {
 public:
  /// Produces requirement models for an application name; may take seconds
  /// (measure + fit). Called outside the registry lock; must be thread-safe
  /// for distinct names.
  using Fitter = std::function<codesign::AppRequirements(const std::string&)>;

  /// Without a fitter, a miss throws InvalidArgument instead of fitting.
  explicit ModelRegistry(Fitter fit_on_demand = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Stores (or replaces) a validated bundle under its name.
  void insert(codesign::AppRequirements models);

  /// Loads one serialized bundle file (required labels footprint/flops/
  /// comm_bytes/loads_stores/stack_distance, optional io_bytes/
  /// energy_proxy); returns the application name. Throws
  /// InvalidArgument on unreadable or malformed files.
  std::string load_file(const std::string& path);

  /// Returns the application's models, fitting on demand on a miss. Throws
  /// when the app is unknown and no fitter is configured, or the fit fails
  /// (a failed fit is not cached; the next lookup retries).
  std::shared_ptr<const codesign::AppRequirements> get(const std::string& app);

  /// The full versioned snapshot of one app (version id, provenance,
  /// publish time), without fit-on-demand; nullptr on a miss.
  std::shared_ptr<const ModelVersion> version_of(const std::string& app) const;

  /// Publishes a new model version for `app` (validated), flipping
  /// concurrent queries to it in one step. Returns the new version id. This
  /// is the hot-swap entry point of the online refit loop; `insert` and
  /// `load_file` route through it too.
  std::uint64_t publish(codesign::AppRequirements models,
                        VersionSource source, std::uint64_t rows = 0,
                        double mean_abs_relative_error =
                            std::numeric_limits<double>::quiet_NaN());

  /// Single-flight gate, shared between query-triggered fit-on-demand and
  /// the online service's refits: returns true when the caller acquired the
  /// exclusive right to fit `app` (it must call `end_fit` when done),
  /// false when another fit for the same app is already in flight.
  bool try_begin_fit(const std::string& app);
  void end_fit(const std::string& app, bool completed);

  /// Loaded application names, sorted.
  std::vector<std::string> app_names() const;

  /// Per-model version/staleness rows, sorted by name (`serve --status`).
  std::vector<ModelInfo> model_infos() const;

  RegistryStats stats() const;

 private:
  /// Entries are never erased, so a reference to one stays valid while
  /// the mutex is released.
  struct Entry {
    std::shared_ptr<const ModelVersion> current;  ///< null until a publish
    bool fitting = false;  ///< the single-flight gate is held
  };

  static std::string key_of(const std::string& app);

  // The helpers below need `mutex_` held.
  bool begin_fit_locked(Entry& entry);
  void end_fit_locked(Entry& entry, bool completed);
  std::uint64_t publish_locked(
      Entry& entry, std::shared_ptr<const codesign::AppRequirements> models,
      VersionSource source, std::uint64_t rows = 0,
      double mean_abs_relative_error =
          std::numeric_limits<double>::quiet_NaN());

  Fitter fitter_;
  mutable std::mutex mutex_;
  std::condition_variable fit_done_;
  std::map<std::string, Entry> entries_;
  RegistryStats stats_;
};

}  // namespace exareq::serve
