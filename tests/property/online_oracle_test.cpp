// Differential oracle (6): the online incremental refit loop — rows
// streamed in shuffled batches through OnlineService (each batch ingested
// over the wire format, then drained, so every batch triggers a full refit
// over the canonical dataset of record) — vs one cold fit over the
// concatenated data.
//
// The contract `docs/ONLINE.md` states: when the stream quiesces, the
// served model equals the model a batch job would have fitted from the
// same rows, regardless of arrival order and batch boundaries. The refit
// path earns this by sorting the dataset of record into canonical row
// order before every fit, so both paths hand the fitter the same
// MeasurementSet and PMNF selection is deterministic from there. Same
// comparison discipline as the batched-fitter oracle: exact term sets
// (order-canonicalized), coefficients to 1e-9 relative, fit quality to a
// 1e-7 relative band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "codesign/requirements.hpp"
#include "model/search_space.hpp"
#include "online/service.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/measure.hpp"
#include "pipeline/serve_bridge.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "support/error.hpp"
#include "testkit/domain_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/property.hpp"

namespace exareq::testkit {
namespace {

/// One generated stream: rows synthesized from a planted requirement
/// bundle over a power-of-two (p, n) grid, shuffled, and cut into batches.
struct StreamCase {
  std::vector<std::vector<pipeline::AppMeasurement>> batches;
  std::size_t total_rows = 0;

  std::string describe() const {
    std::string text = "stream{" + std::to_string(total_rows) + " rows in [";
    for (std::size_t b = 0; b < batches.size(); ++b) {
      if (b > 0) text += ", ";
      text += std::to_string(batches[b].size());
    }
    return text + "]}";
  }
};

Gen<StreamCase> stream_case_gen() {
  return Gen<StreamCase>([](Rng& rng) {
    const codesign::AppRequirements app =
        planted_requirements_gen("planted")(rng);

    // ≥5 distinct values per parameter (the paper's rule of thumb, and the
    // generator's min_distinct_values gate for the full dataset).
    std::vector<pipeline::AppMeasurement> rows;
    for (int pe = 1; pe <= 5; ++pe) {
      for (int ne = 6; ne <= 10; ++ne) {
        const double p = std::pow(2.0, pe);
        const double n = std::pow(2.0, ne);
        pipeline::AppMeasurement row;
        row.processes = static_cast<int>(p);
        row.problem_size = static_cast<std::int64_t>(n);
        row.bytes_used = app.footprint.evaluate2(p, n);
        row.flops = app.flops.evaluate2(p, n);
        row.loads_stores = app.loads_stores.evaluate2(p, n);
        row.bytes_sent_received = app.comm_bytes.evaluate2(p, n);
        row.stack_distance = app.stack_distance.evaluate1(n);
        rows.push_back(std::move(row));
      }
    }

    // Shuffle (Fisher-Yates over the deterministic Rng stream), then cut
    // into 1-4 batches at random boundaries.
    for (std::size_t i = rows.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(rows[i], rows[j]);
    }
    StreamCase stream;
    stream.total_rows = rows.size();
    const std::size_t batch_count =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    std::vector<std::size_t> cuts = {0, rows.size()};
    for (std::size_t c = 1; c < batch_count; ++c) {
      cuts.push_back(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(rows.size()) - 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      stream.batches.emplace_back(rows.begin() + cuts[c],
                                  rows.begin() + cuts[c + 1]);
    }
    return stream;
  });
}

// --- summary + tolerance idiom, mirroring the batched-fitter oracle ---

struct SummaryTerm {
  std::string basis;
  double coefficient = 0.0;
};

struct ModelSummary {
  std::string parameters;
  double constant = 0.0;
  std::vector<SummaryTerm> terms;
};

struct BundleSummary {
  std::vector<std::pair<std::string, ModelSummary>> models;
  double mean_abs_relative_error = 0.0;
};

std::string basis_signature(const model::Term& term) {
  std::vector<std::string> parts;
  for (const model::Factor& factor : term.factors) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "f %zu %.17g %.17g %d;",
                  factor.parameter, factor.poly_exponent, factor.log_exponent,
                  static_cast<int>(factor.special));
    parts.emplace_back(buffer);
  }
  std::sort(parts.begin(), parts.end());
  std::string signature;
  for (const std::string& part : parts) signature += part;
  return signature;
}

ModelSummary summarize_model(const model::Model& model) {
  ModelSummary summary;
  for (const std::string& name : model.parameter_names()) {
    summary.parameters += name + " ";
  }
  summary.constant = model.constant();
  for (const model::Term& term : model.terms()) {
    summary.terms.push_back({basis_signature(term), term.coefficient});
  }
  std::sort(summary.terms.begin(), summary.terms.end(),
            [](const SummaryTerm& a, const SummaryTerm& b) {
              return a.basis < b.basis;
            });
  return summary;
}

BundleSummary summarize_bundle(const codesign::AppRequirements& app,
                               double quality) {
  BundleSummary summary;
  summary.models = {{"footprint", summarize_model(app.footprint)},
                    {"flops", summarize_model(app.flops)},
                    {"comm_bytes", summarize_model(app.comm_bytes)},
                    {"loads_stores", summarize_model(app.loads_stores)},
                    {"stack_distance", summarize_model(app.stack_distance)}};
  summary.mean_abs_relative_error = quality;
  return summary;
}

std::string render(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string diff_coefficient(const std::string& label, double fast,
                             double reference) {
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(reference));
  if (std::fabs(fast - reference) <= tolerance) return {};
  return label + " coefficient diverges: incremental " + render(fast) +
         " vs cold " + render(reference);
}

std::string diff_models(const std::string& metric, const ModelSummary& fast,
                        const ModelSummary& reference) {
  if (fast.parameters != reference.parameters) {
    return metric + " parameter lists diverge: " + fast.parameters + " vs " +
           reference.parameters;
  }
  if (fast.terms.size() != reference.terms.size()) {
    return metric + " term counts diverge: incremental " +
           std::to_string(fast.terms.size()) + " vs cold " +
           std::to_string(reference.terms.size());
  }
  for (std::size_t t = 0; t < fast.terms.size(); ++t) {
    if (fast.terms[t].basis != reference.terms[t].basis) {
      return metric + " selected term sets diverge:\n" +
             text_diff(fast.terms[t].basis, reference.terms[t].basis);
    }
  }
  std::string diff =
      diff_coefficient(metric + " constant", fast.constant, reference.constant);
  for (std::size_t t = 0; t < fast.terms.size() && diff.empty(); ++t) {
    diff = diff_coefficient(metric + " " + fast.terms[t].basis,
                            fast.terms[t].coefficient,
                            reference.terms[t].coefficient);
  }
  return diff;
}

std::string diff_bundles(const BundleSummary& fast,
                         const BundleSummary& reference) {
  for (std::size_t m = 0; m < fast.models.size(); ++m) {
    const std::string diff = diff_models(fast.models[m].first,
                                         fast.models[m].second,
                                         reference.models[m].second);
    if (!diff.empty()) return diff;
  }
  const double tolerance =
      std::max(1e-12, 1e-7 * std::fabs(reference.mean_abs_relative_error));
  if (std::fabs(fast.mean_abs_relative_error -
                reference.mean_abs_relative_error) > tolerance) {
    return "fit quality diverges: incremental " +
           render(fast.mean_abs_relative_error) + " vs cold " +
           render(reference.mean_abs_relative_error);
  }
  return {};
}

/// Coarse space + 2 factors per parameter: the planted models come from
/// the same family, and the smaller hypothesis pool keeps 25-row refits
/// fast enough for the seed matrix (the full space is the batched-fitter
/// oracle's job).
online::RefitOptions oracle_options() {
  online::RefitOptions options;
  options.generator.space = model::SearchSpace::coarse();
  options.generator.top_factors_per_parameter = 2;
  return options;
}

/// One batch as an `ingest` request: the campaign CSV (17 significant
/// digits, so every value round-trips exactly) with records joined by ';'.
serve::Request ingest_request(
    const std::vector<pipeline::AppMeasurement>& batch) {
  pipeline::CampaignData data;
  data.app_name = "planted";
  data.measurements = batch;
  std::string payload = data.to_csv().to_string();
  while (!payload.empty() && payload.back() == '\n') payload.pop_back();
  std::replace(payload.begin(), payload.end(), '\n', ';');
  serve::Request request;
  request.kind = serve::RequestKind::kIngest;
  request.app = data.app_name;
  request.payload = std::move(payload);
  return request;
}

BundleSummary run_incremental(const StreamCase& stream) {
  serve::ModelRegistry registry;
  online::OnlineServiceOptions options;
  options.policy.refit_rows = 0;  // each drain() refits the batch it follows
  options.refit = oracle_options();
  online::OnlineService service(registry, options);
  for (const auto& batch : stream.batches) {
    // Coinciding cuts make empty batches, which have no wire form.
    if (batch.empty()) continue;
    const std::string response = service.handle_ingest(ingest_request(batch));
    exareq::require(response.rfind("ok ingest", 0) == 0,
                    "ingest rejected: " + response);
    // Intermediate refits may legitimately fail (e.g. a prefix with fewer
    // than five distinct parameter values); the previous version stays.
    // The final refit sees the full grid and must publish.
    service.drain();
  }
  const auto version = registry.version_of("planted");
  exareq::require(version != nullptr && version->models != nullptr,
                  "published version missing from registry");
  exareq::require(version->rows == stream.total_rows,
                  "published version does not cover the full stream");
  return summarize_bundle(*version->models, version->mean_abs_relative_error);
}

BundleSummary run_cold(const StreamCase& stream) {
  pipeline::CampaignData data;
  data.app_name = "planted";
  for (const auto& batch : stream.batches) {
    data.measurements.insert(data.measurements.end(), batch.begin(),
                             batch.end());
  }
  std::sort(data.measurements.begin(), data.measurements.end(),
            pipeline::measurement_row_less);
  const pipeline::FittedBundle bundle =
      pipeline::fit_requirement_bundle(data, oracle_options().generator);
  return summarize_bundle(bundle.requirements, bundle.mean_abs_relative_error);
}

TEST(PropertyOnlineOracleTest, IncrementalRefitMatchesColdFit) {
  const PropertyConfig config =
      property_config("online-incremental-vs-cold", 20);
  DiffOracle<StreamCase, BundleSummary> oracle;
  oracle.fast = run_incremental;
  oracle.reference = run_cold;
  oracle.diff = diff_bundles;
  const auto result = check_differential(config, stream_case_gen(),
                                         no_shrink<StreamCase>(), oracle);
  EXPECT_TRUE(result.passed()) << result.report(
      [](const StreamCase& stream) { return stream.describe(); });
}

}  // namespace
}  // namespace exareq::testkit
