#include "serve/registry.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <sstream>

#include "model/serialize.hpp"
#include "support/error.hpp"

namespace exareq::serve {

ModelRegistry::ModelRegistry(Fitter fit_on_demand)
    : fitter_(std::move(fit_on_demand)) {}

std::string ModelRegistry::key_of(const std::string& app) {
  std::string key = app;
  std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return key;
}

std::string version_source_name(VersionSource source) {
  switch (source) {
    case VersionSource::kInsert:
      return "insert";
    case VersionSource::kFile:
      return "file";
    case VersionSource::kFitOnDemand:
      return "fit-on-demand";
    case VersionSource::kOnlineRefit:
      return "online-refit";
  }
  return "?";
}

void ModelRegistry::insert(codesign::AppRequirements models) {
  publish(std::move(models), VersionSource::kInsert);
}

std::uint64_t ModelRegistry::publish(codesign::AppRequirements models,
                                     VersionSource source, std::uint64_t rows,
                                     double mean_abs_relative_error) {
  models.validate();
  exareq::require(!models.name.empty(), "ModelRegistry: bundle has no name");
  auto shared =
      std::make_shared<const codesign::AppRequirements>(std::move(models));
  const std::string key = key_of(shared->name);
  std::lock_guard<std::mutex> lock(mutex_);
  return publish_locked(entries_[key], std::move(shared), source, rows,
                        mean_abs_relative_error);
}

std::uint64_t ModelRegistry::publish_locked(
    Entry& entry, std::shared_ptr<const codesign::AppRequirements> models,
    VersionSource source, std::uint64_t rows,
    double mean_abs_relative_error) {
  auto snapshot = std::make_shared<ModelVersion>();
  snapshot->version = entry.current ? entry.current->version + 1 : 1;
  snapshot->models = std::move(models);
  snapshot->source = source;
  snapshot->rows = rows;
  snapshot->mean_abs_relative_error = mean_abs_relative_error;
  snapshot->published_at = std::chrono::steady_clock::now();
  if (entry.current) {
    ++stats_.hot_swaps;
  } else {
    ++stats_.apps;
  }
  entry.current = std::move(snapshot);
  // A publish can satisfy lookups waiting on an in-flight fit of this app.
  fit_done_.notify_all();
  return entry.current->version;
}

bool ModelRegistry::try_begin_fit(const std::string& app) {
  const std::string key = key_of(app);
  std::lock_guard<std::mutex> lock(mutex_);
  return begin_fit_locked(entries_[key]);
}

void ModelRegistry::end_fit(const std::string& app, bool completed) {
  const std::string key = key_of(app);
  std::lock_guard<std::mutex> lock(mutex_);
  end_fit_locked(entries_[key], completed);
}

bool ModelRegistry::begin_fit_locked(Entry& entry) {
  if (entry.fitting) return false;
  entry.fitting = true;
  ++stats_.fits_started;
  ++stats_.in_flight_fits;
  return true;
}

void ModelRegistry::end_fit_locked(Entry& entry, bool completed) {
  entry.fitting = false;
  --stats_.in_flight_fits;
  if (completed) {
    ++stats_.fits_completed;
  } else {
    ++stats_.fit_failures;
  }
  fit_done_.notify_all();
}

std::string ModelRegistry::load_file(const std::string& path) {
  std::ifstream file(path);
  exareq::require(file.good(), "cannot open model file '" + path + "'");
  std::stringstream content;
  content << file.rdbuf();
  const model::ModelBundle bundle = model::parse_bundle(content.str());
  exareq::require(!bundle.name.empty(),
                  "model file '" + path + "' has no application name header");

  codesign::AppRequirements requirements;
  requirements.name = bundle.name;
  bool have_footprint = false, have_flops = false, have_comm = false,
       have_loads = false, have_stack = false;
  for (const auto& [label, m] : bundle.models) {
    if (label == "footprint") {
      requirements.footprint = m;
      have_footprint = true;
    } else if (label == "flops") {
      requirements.flops = m;
      have_flops = true;
    } else if (label == "comm_bytes") {
      requirements.comm_bytes = m;
      have_comm = true;
    } else if (label == "loads_stores") {
      requirements.loads_stores = m;
      have_loads = true;
    } else if (label == "stack_distance") {
      requirements.stack_distance = m;
      have_stack = true;
    } else if (label == "io_bytes") {
      requirements.io_bytes = m;
    } else if (label == "energy_proxy") {
      requirements.energy_proxy = m;
    } else {
      throw exareq::InvalidArgument("model file '" + path +
                                    "' has unknown model label '" + label + "'");
    }
  }
  exareq::require(
      have_footprint && have_flops && have_comm && have_loads && have_stack,
      "model file '" + path +
          "' must contain footprint, flops, comm_bytes, loads_stores and "
          "stack_distance models");
  publish(std::move(requirements), VersionSource::kFile);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.files_loaded;
  return bundle.name;
}

std::shared_ptr<const ModelVersion> ModelRegistry::version_of(
    const std::string& app) const {
  const std::string key = key_of(app);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.current;
}

std::shared_ptr<const codesign::AppRequirements> ModelRegistry::get(
    const std::string& app) {
  const std::string key = key_of(app);
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.lookups;
  for (;;) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.current) {
        ++stats_.hits;
        return it->second.current->models;
      }
      if (it->second.fitting) {
        // Another thread — a query-triggered fit or an online refit — is
        // fitting this app: wait for it instead of starting a duplicate
        // fit (single-flight).
        ++stats_.singleflight_waits;
        fit_done_.wait(lock);
        continue;
      }
    }
    break;
  }
  exareq::require(static_cast<bool>(fitter_),
                  "no models loaded for '" + app +
                      "' and the registry has no fit-on-demand callback");
  Entry& entry = entries_[key];
  begin_fit_locked(entry);
  lock.unlock();

  std::shared_ptr<const codesign::AppRequirements> fitted;
  std::exception_ptr failure;
  try {
    codesign::AppRequirements models = fitter_(app);
    models.validate();
    if (models.name.empty()) models.name = app;
    fitted =
        std::make_shared<const codesign::AppRequirements>(std::move(models));
  } catch (...) {
    failure = std::current_exception();
  }

  lock.lock();
  // A failed fit is not cached: the entry keeps no version, so the next
  // lookup retries; ending the fit wakes the waiters so one of them can.
  end_fit_locked(entry, failure == nullptr);
  if (failure) std::rethrow_exception(failure);
  publish_locked(entry, fitted, VersionSource::kFitOnDemand);
  return fitted;
}

std::vector<std::string> ModelRegistry::app_names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mutex_);
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (entry.current) names.push_back(entry.current->models->name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<ModelInfo> ModelRegistry::model_infos() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<ModelInfo> infos;
  std::lock_guard<std::mutex> lock(mutex_);
  infos.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    const auto& snapshot = entry.current;
    if (!snapshot) continue;
    ModelInfo info;
    info.name = snapshot->models->name;
    info.version = snapshot->version;
    info.source = snapshot->source;
    info.rows = snapshot->rows;
    info.mean_abs_relative_error = snapshot->mean_abs_relative_error;
    info.age_seconds =
        std::chrono::duration<double>(now - snapshot->published_at).count();
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const ModelInfo& a, const ModelInfo& b) {
              return a.name < b.name;
            });
  return infos;
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace exareq::serve
