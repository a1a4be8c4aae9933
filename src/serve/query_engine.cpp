#include "serve/query_engine.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "codesign/strawman.hpp"
#include "codesign/upgrade.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace exareq::serve {
namespace {

const model::Model& metric_model(const codesign::AppRequirements& app,
                                 const std::string& metric) {
  if (metric == "footprint") return app.footprint;
  if (metric == "flops") return app.flops;
  if (metric == "comm_bytes") return app.comm_bytes;
  if (metric == "loads_stores") return app.loads_stores;
  if (metric == "stack_distance") return app.stack_distance;
  if (metric == "io_bytes" || metric == "energy_proxy") {
    const std::optional<model::Model>& channel =
        metric == "io_bytes" ? app.io_bytes : app.energy_proxy;
    if (!channel.has_value()) {
      throw exareq::InvalidArgument(
          "app '" + app.name + "' has no '" + metric +
          "' model (bundle predates the suite-v2 channels; refit to add it)");
    }
    return *channel;
  }
  throw exareq::InvalidArgument("unknown metric '" + metric + "'");
}

std::string without_spaces(std::string text) {
  std::replace(text.begin(), text.end(), ' ', '_');
  return text;
}

std::string compute_eval(const codesign::AppRequirements& app,
                         const Request& request) {
  const model::Model& m = metric_model(app, request.metric);
  // The stack-distance model is a function of n only (paper Table II).
  const double value = request.metric == "stack_distance"
                           ? m.evaluate1(request.n)
                           : m.evaluate2(request.p, request.n);
  return "eval " + render_value(value);
}

std::string compute_invert(const codesign::AppRequirements& app,
                           const Request& request) {
  const codesign::SystemSkeleton skeleton{request.processes,
                                          request.memory_per_process};
  const codesign::FilledSystem filled = codesign::fill_memory(app, skeleton);
  return "invert " + render_value(filled.problem_size_per_process) + ' ' +
         render_value(filled.overall_problem_size);
}

std::string compute_upgrade(const codesign::AppRequirements& app,
                            const Request& request) {
  const codesign::SystemSkeleton base{request.processes,
                                      request.memory_per_process};
  std::ostringstream os;
  os << "upgrade";
  bool first = true;
  for (const auto& upgrade : codesign::paper_upgrades()) {
    const codesign::UpgradeOutcome outcome =
        codesign::evaluate_upgrade(app, base, upgrade).outcome;
    // "A: Double the racks" -> scenario id "A".
    const std::string id = upgrade.label.substr(0, upgrade.label.find(':'));
    os << (first ? " " : ";") << id << ':'
       << render_value(outcome.problem_size_ratio) << ','
       << render_value(outcome.overall_problem_ratio) << ','
       << render_value(outcome.computation_ratio) << ','
       << render_value(outcome.communication_ratio) << ','
       << render_value(outcome.memory_access_ratio);
    first = false;
  }
  return os.str();
}

std::string compute_strawman(const codesign::AppRequirements& app) {
  const auto systems = codesign::paper_strawmen();
  std::optional<double> benchmark;
  try {
    benchmark = codesign::common_benchmark_problem(app, systems);
  } catch (const exareq::NumericError&) {
    benchmark = std::nullopt;
  }
  std::ostringstream os;
  os << "strawman";
  bool first = true;
  for (const auto& system : systems) {
    const codesign::StrawmanOutcome outcome =
        codesign::evaluate_strawman(app, system);
    os << (first ? " " : ";") << without_spaces(system.name) << ':';
    first = false;
    if (!outcome.feasible) {
      os << "no,-,-";
      continue;
    }
    os << "yes," << render_value(outcome.max_overall_problem) << ',';
    std::optional<double> seconds;
    if (benchmark.has_value()) {
      seconds = codesign::wall_time_lower_bound(app, system, *benchmark);
    }
    if (seconds.has_value()) {
      os << render_value(*seconds);
    } else {
      os << '-';
    }
  }
  return os.str();
}

/// Answers one eval/invert/upgrade/strawman request from `app`'s models.
std::string compute_for(const codesign::AppRequirements& app,
                        const Request& request) {
  switch (request.kind) {
    case RequestKind::kEval:
      return compute_eval(app, request);
    case RequestKind::kInvert:
      return compute_invert(app, request);
    case RequestKind::kUpgrade:
      return compute_upgrade(app, request);
    case RequestKind::kStrawman:
      return compute_strawman(app);
    case RequestKind::kStatus:
    case RequestKind::kIngest:
      break;
  }
  throw exareq::InvalidArgument("unhandled request kind");
}

/// The response line of the library error being handled; call it from a
/// catch block.
std::string current_error_response() {
  try {
    throw;
  } catch (const exareq::NumericError& error) {
    return error_response("numeric", error.what());
  } catch (const exareq::InvalidArgument& error) {
    return error_response("bad-request", error.what());
  } catch (const std::exception& error) {
    return error_response("internal", error.what());
  }
}

}  // namespace

QueryEngine::QueryEngine(ModelRegistry& registry, ShardedLruCache* cache)
    : registry_(registry), cache_(cache) {}

std::string QueryEngine::compute(const Request& request) {
  exareq::require(request.kind != RequestKind::kStatus,
                  "status requests are answered by the server");
  exareq::require(request.kind != RequestKind::kIngest,
                  "ingest requests are routed to the online service");
  return compute_for(*registry_.get(request.app), request);
}

std::string QueryEngine::answer(const Request& request) {
  const bool use_cache = cache_ != nullptr && cacheable(request);
  std::shared_ptr<const ModelVersion> version;
  std::string key;
  if (use_cache) {
    // The key carries the model version the answer is computed from, so a
    // hot swap leaves the previous version's answers unreachable — they
    // age out of the LRU — instead of serving them.
    version = registry_.version_of(request.app);
    if (version == nullptr) {
      // Not loaded yet: fit on demand first. An unknown app or a failed
      // fit is answered without caching, so a later load shows at once.
      try {
        registry_.get(request.app);
      } catch (const std::exception&) {
        return current_error_response();
      }
      version = registry_.version_of(request.app);
    }
    key = canonical_key(request);
    key += "|v";
    key += std::to_string(version->version);
    obs::ScopedSpan lookup("cache_lookup", "serve");
    if (auto cached = cache_->get(key)) {
      return *cached;
    }
  }
  std::string response;
  {
    obs::ScopedSpan span("compute", "serve");
    span.arg("kind", static_cast<double>(request.kind));
    try {
      response = ok_response(use_cache ? compute_for(*version->models, request)
                                       : compute(request));
    } catch (const std::exception&) {
      response = current_error_response();
    }
  }
  // Negative results are cached too: an infeasible co-design query is just
  // as deterministic (and as expensive to recompute) as a feasible one.
  if (use_cache) cache_->put(key, response);
  return response;
}

std::string QueryEngine::answer_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    return error_response("bad-request", error.what());
  }
  return answer(request);
}

}  // namespace exareq::serve
