#include "online/refitter.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"

namespace exareq::online {

IncrementalRefitter::IncrementalRefitter(serve::ModelRegistry& registry,
                                         RefitterOptions options, FitFn fit)
    : registry_(registry), options_(std::move(options)), fit_(std::move(fit)) {
  if (!fit_) {
    fit_ = [generator = options_.generator](const pipeline::CampaignData& data) {
      return pipeline::fit_requirement_bundle(data, generator);
    };
  }
}

RefitOutcome IncrementalRefitter::refit(
    const std::string& app, std::vector<pipeline::AppMeasurement> new_rows) {
  RefitOutcome outcome;
  // The fit publishes under the registered bundle's name, so a refit keeps
  // the spelling the model was loaded with; a first version takes `app`'s.
  const auto registered = registry_.version_of(app);
  pipeline::CampaignData snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pipeline::CampaignData& dataset = datasets_[app];
    dataset.app_name = registered ? registered->models->name : app;
    dataset.measurements.insert(dataset.measurements.end(),
                                std::make_move_iterator(new_rows.begin()),
                                std::make_move_iterator(new_rows.end()));
    // Canonical order: any arrival permutation of the same rows yields the
    // same dataset, hence the same fit as a cold run over that dataset.
    std::sort(dataset.measurements.begin(), dataset.measurements.end(),
              pipeline::measurement_row_less);
    snapshot = dataset;
  }
  outcome.rows_total = snapshot.measurements.size();
  if (outcome.rows_total == 0) return outcome;

  if (!registry_.try_begin_fit(app)) {
    // A query-triggered fit (or another refit) holds the single-flight
    // gate; the rows stay accumulated and the caller retries.
    return outcome;
  }
  outcome.attempted = true;

  obs::ScopedSpan span("online_refit", "online");
  span.arg("rows", static_cast<double>(outcome.rows_total));

  pipeline::FittedBundle bundle;
  try {
    bundle = fit_(snapshot);
  } catch (const std::exception& error) {
    outcome.error = error.what();
    registry_.end_fit(app, false);
    return outcome;
  }
  outcome.mean_abs_relative_error = bundle.mean_abs_relative_error;

  const auto displaced = registry_.version_of(app);
  outcome.version =
      registry_.publish(std::move(bundle.requirements),
                        VersionSource::kOnlineRefit, outcome.rows_total,
                        bundle.mean_abs_relative_error);
  outcome.published = true;
  registry_.end_fit(app, true);

  if (options_.max_quality_regression > 0.0 && displaced &&
      !std::isnan(displaced->mean_abs_relative_error) &&
      !std::isnan(outcome.mean_abs_relative_error) &&
      outcome.mean_abs_relative_error >
          displaced->mean_abs_relative_error + options_.max_quality_regression) {
    outcome.rolled_back = registry_.rollback(app);
  }
  return outcome;
}

std::uint64_t IncrementalRefitter::accumulated_rows(
    const std::string& app) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = datasets_.find(app);
  return it == datasets_.end() ? 0 : it->second.measurements.size();
}

pipeline::CampaignData IncrementalRefitter::dataset(
    const std::string& app) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = datasets_.find(app);
  return it == datasets_.end() ? pipeline::CampaignData{} : it->second;
}

}  // namespace exareq::online
