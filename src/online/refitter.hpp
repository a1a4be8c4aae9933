// IncrementalRefitter: turns staged ingest rows into a hot-swapped model
// version, off the query path.
//
// The refitter keeps the dataset of record per application — every row ever
// accepted — and a refit is always a full fit over that dataset in
// canonical (sorted) row order. "Incremental" refers to when fits happen
// (as rows stream in, per the refit policy), not to an approximate update:
// PMNF model selection is a discrete hypothesis search, so the only way the
// served model is guaranteed to equal a cold fit on the concatenated data —
// the differential-oracle contract — is to refit from the full canonical
// dataset. Row counts are campaign-sized (tens), so a full refit is the
// same seconds-scale cost the registry's fit-on-demand already pays.
//
// A refit competes with query-triggered fit-on-demand through the
// registry's single-flight gate; when the gate is busy the refit returns
// without fitting (rows stay accumulated) and the caller retries. On fit
// failure the previous version simply stays current; on a quality
// regression beyond the configured tolerance the freshly published version
// is explicitly rolled back to the previous one.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pipeline/serve_bridge.hpp"
#include "serve/registry.hpp"

namespace exareq::online {

struct RefitterOptions {
  /// Search space and fit configuration (threads forced to 1 by the fit).
  model::GeneratorOptions generator;
  /// Allowed increase of mean absolute relative error over the previous
  /// version before the new one is rolled back; 0 disables the guard
  /// (required for bit-exact cold-fit equivalence, hence the default).
  double max_quality_regression = 0.0;
};

/// What one refit attempt did (all fields valid regardless of outcome).
struct RefitOutcome {
  bool attempted = false;    ///< false: single-flight gate was busy, retry
  bool published = false;    ///< a new version went live (maybe rolled back)
  bool rolled_back = false;  ///< quality guard restored the previous version
  std::uint64_t version = 0;           ///< published version id (0 if none)
  std::uint64_t rows_total = 0;        ///< dataset-of-record size after append
  double mean_abs_relative_error =
      std::numeric_limits<double>::quiet_NaN();  ///< quality of the new fit
  std::string error;  ///< non-empty when the fit itself threw
};

class IncrementalRefitter {
 public:
  /// Fits a bundle from an in-memory campaign; injectable so failure and
  /// regression paths are testable without a pathological dataset. Empty =
  /// pipeline::fit_requirement_bundle with `options.generator`.
  using FitFn =
      std::function<pipeline::FittedBundle(const pipeline::CampaignData&)>;

  explicit IncrementalRefitter(serve::ModelRegistry& registry,
                               RefitterOptions options = {}, FitFn fit = {});

  IncrementalRefitter(const IncrementalRefitter&) = delete;
  IncrementalRefitter& operator=(const IncrementalRefitter&) = delete;

  /// Appends `new_rows` (possibly empty, e.g. a retry after a busy gate) to
  /// the application's dataset of record and attempts one refit over it.
  /// The new version keeps the name of the registered bundle (the registry
  /// matches `app` case-insensitively); an app not yet registered is
  /// published as `app`. Never throws: fit errors are reported in the
  /// outcome.
  RefitOutcome refit(const std::string& app,
                     std::vector<pipeline::AppMeasurement> new_rows);

  /// Rows in the dataset of record (accepted, whether or not fitted yet).
  std::uint64_t accumulated_rows(const std::string& app) const;

  /// Copy of the dataset of record, in canonical order (tests/oracle).
  pipeline::CampaignData dataset(const std::string& app) const;

 private:
  serve::ModelRegistry& registry_;
  RefitterOptions options_;
  FitFn fit_;
  mutable std::mutex mutex_;
  std::map<std::string, pipeline::CampaignData> datasets_;
};

}  // namespace exareq::online
