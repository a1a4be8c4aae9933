// Differential oracle (5): the batched fitter — one retained QR per
// hypothesis generation plus rank-one leave-one-out downdates — vs the
// scalar engine that refits every fold from scratch.
//
// The fast path is production's default (`batched_cv = true`, pool
// threads); the reference flips the engine back to the per-fold refit loop
// on a single thread. The batched engine's contract: both paths select the
// same model — same term set (order-canonicalized: two engines may walk
// different greedy paths to the same perfect model, which only permutes
// the design columns), coefficients to 1e-9 relative — and the CV/quality
// numbers agree within the band diff_quality documents (the downdate
// reorders floating-point work, so rounding drift is expected). A second
// check runs both engines over the nine proxy apps' real campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "model/fitter.hpp"
#include "model/multiparam.hpp"
#include "model/search_space.hpp"
#include "pipeline/campaign.hpp"
#include "testkit/domain_gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/property.hpp"

namespace exareq::testkit {
namespace {

// Selection (exact term set), coefficients, and quality are compared
// separately, so the summary keeps the numbers as doubles. Term order is
// canonicalized: the two engines may discover the same perfect model
// through different greedy paths, and the selection order only permutes
// the design columns (reordering last-ulp rounding, never the model).
struct SummaryTerm {
  std::string basis;
  double coefficient = 0.0;
};

struct FitSummary {
  std::string parameters;
  double constant = 0.0;
  std::vector<SummaryTerm> terms;
  double cv = 0.0;
  double smape = 0.0;
  double r_squared = 0.0;
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

FitSummary summarize(const model::FitResult& result) {
  FitSummary summary;
  for (const std::string& name : result.model.parameter_names()) {
    summary.parameters += name + " ";
  }
  summary.constant = result.model.constant();
  for (const model::Term& term : result.model.terms()) {
    summary.terms.push_back({basis_signature(term), term.coefficient});
  }
  std::sort(summary.terms.begin(), summary.terms.end(),
            [](const SummaryTerm& a, const SummaryTerm& b) {
              return a.basis < b.basis;
            });
  summary.cv = result.quality.cv_score;
  summary.smape = result.quality.smape;
  summary.r_squared = result.quality.r_squared;
  return summary;
}

std::string render(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// "" when close enough, else a labelled report. Infinities must match
/// exactly (a verdict, not a number). Finite values carry a 1e-12 absolute
/// floor (sub-tolerance scores are collapsed to 0 by the engine) plus a
/// 1e-7 relative band. The band is set by conditioning, not sloppiness:
/// planted observations span up to ten decades, and on such weighted fold
/// systems any two arithmetic orderings — including two independent
/// scalar refit loops — drift by eps * kappa * leverage amplification.
/// Checked against a long-double reference, the true value sits between
/// the two paths with both equally close. The band holds at the default
/// case counts, but it does not bound the drift, and no drift is too small
/// to matter: past 1,000 cases, seeds 2-5 each shrink to a five-point grid
/// whose CV scores differ by 4.9e-7 to 1.2e-4 relative with the same model
/// selected (docs/TESTING.md, section 3), and a score that close to a tie
/// band's edge or a growth threshold selects differently on either side.
/// A real fold-handling defect can sit behind a gap of that size: in the
/// high-leverage fold case below, the engines' scores of {n^3} differed by
/// 1.8e-4 relative, and only the whole search showed the batched engine
/// rejecting the planted model.
std::string diff_quality(const char* label, double fast, double reference) {
  if (std::isinf(fast) || std::isinf(reference)) {
    if (fast == reference) return {};
    return std::string(label) + " verdicts diverge: batched " + render(fast) +
           " vs scalar " + render(reference);
  }
  const double tolerance = std::max(1e-12, 1e-7 * std::fabs(reference));
  if (std::fabs(fast - reference) <= tolerance) return {};
  return std::string(label) + " diverges beyond tolerance: batched " +
         render(fast) + " vs scalar " + render(reference);
}

/// Coefficients of the same selected basis may differ by the rounding of a
/// permuted column order (~kappa ulps); 1e-9 relative is far above that
/// and far below any genuine model difference.
std::string diff_coefficient(const char* label, double fast, double reference) {
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(reference));
  if (std::fabs(fast - reference) <= tolerance) return {};
  return std::string(label) + " coefficient diverges: batched " + render(fast) +
         " vs scalar " + render(reference);
}

std::string diff_summaries(const FitSummary& fast, const FitSummary& reference) {
  if (fast.parameters != reference.parameters) {
    return "parameter lists diverge: " + fast.parameters + " vs " +
           reference.parameters;
  }
  if (fast.terms.size() != reference.terms.size()) {
    return "term counts diverge: batched " +
           std::to_string(fast.terms.size()) + " vs scalar " +
           std::to_string(reference.terms.size());
  }
  for (std::size_t t = 0; t < fast.terms.size(); ++t) {
    if (fast.terms[t].basis != reference.terms[t].basis) {
      return "selected term sets diverge:\n" +
             text_diff(fast.terms[t].basis, reference.terms[t].basis);
    }
  }
  std::string diff = diff_coefficient("constant", fast.constant,
                                      reference.constant);
  for (std::size_t t = 0; t < fast.terms.size() && diff.empty(); ++t) {
    diff = diff_coefficient(fast.terms[t].basis.c_str(),
                            fast.terms[t].coefficient,
                            reference.terms[t].coefficient);
  }
  if (diff.empty()) diff = diff_quality("cv", fast.cv, reference.cv);
  if (diff.empty()) diff = diff_quality("smape", fast.smape, reference.smape);
  if (diff.empty()) {
    diff = diff_quality("r2", fast.r_squared, reference.r_squared);
  }
  return diff;
}

std::vector<model::Term> coarse_pool() {
  std::vector<model::Term> pool;
  for (const model::Factor& factor :
       model::SearchSpace::coarse().factors_for(0)) {
    model::Term term;
    term.coefficient = 1.0;
    term.factors = {factor};
    pool.push_back(std::move(term));
  }
  return pool;
}

model::FitResult fit_planted(const PlantedDataset& dataset, bool batched,
                             int threads) {
  const model::MeasurementSet data = dataset.build();
  if (data.parameter_count() == 1) {
    model::FitOptions options;
    options.batched_cv = batched;
    options.threads = threads;
    return model::fit_with_pool(data, coarse_pool(), options);
  }
  model::MultiParamOptions options;
  options.space = model::SearchSpace::coarse();
  options.top_factors_per_parameter = 2;
  options.fit.batched_cv = batched;
  options.fit.threads = threads;
  return model::fit_multi_parameter(data, options);
}

TEST(PropertyBatchedFitterOracleTest, BatchedEngineMatchesScalarRefits) {
  const PropertyConfig config =
      property_config("batched-fitter-differential", 120);
  DiffOracle<PlantedDataset, FitSummary> oracle;
  oracle.fast = [](const PlantedDataset& d) {
    return summarize(fit_planted(d, /*batched=*/true, d.threads));
  };
  oracle.reference = [](const PlantedDataset& d) {
    return summarize(fit_planted(d, /*batched=*/false, /*threads=*/1));
  };
  oracle.diff = diff_summaries;
  const auto result = check_differential(config, planted_dataset_gen(),
                                         planted_dataset_shrinker(), oracle);
  EXPECT_TRUE(result.passed()) << result.report(
      [](const PlantedDataset& d) { return d.describe(); });
}

TEST(PropertyBatchedFitterOracleTest, HighLeverageFoldMatchesScalarRefits) {
  // A fixed case: the counterexample seed 5 shrinks to at 1,000 cases.
  // Under the 1/|y| row weights the n = 2 row's leverage in {1, n^3,
  // sqrt n} is within 1e-12 of 1, so its downdate is flagged singular; the
  // batched engine must refit that fold, as the scalar engine does, rather
  // than reject every hypothesis holding both terms.
  const auto term = [](double poly, double coefficient) {
    model::Term t;
    t.coefficient = coefficient;
    t.factors = {model::pmnf_factor(0, poly, 0.0)};
    return t;
  };
  PlantedDataset dataset;
  dataset.axes = {{2.0, 256.0, 512.0, 1024.0, 2048.0}};
  dataset.constant = 1.478;
  dataset.terms = {term(3.0, 865.3), term(0.5, 8769.0)};
  const FitSummary reference =
      summarize(fit_planted(dataset, /*batched=*/false, /*threads=*/1));
  for (const int threads : {1, 2, 4}) {
    const FitSummary fast = summarize(fit_planted(dataset, true, threads));
    EXPECT_EQ(diff_summaries(fast, reference), "")
        << dataset.describe() << " at " << threads << " threads";
  }
}

TEST(PropertyBatchedFitterOracleTest, BatchedModeActuallySkipsPerFoldSolves) {
  // Guard against the oracle degenerating into scalar-vs-scalar: pin that
  // the fast path really runs on prefix extensions and downdates. Per
  // admissible candidate the scalar engine spends folds + 1 from-scratch
  // solves (inadmissible ones exit early); batched spends one single-column
  // prefix extension plus one downdate per fold, with one from-scratch
  // factorization per generation. The solve count must collapse by at
  // least 10x — the acceptance bar the bench enforces on the paper-app
  // campaign grids.
  model::MeasurementSet data({"n"});
  for (int e = 1; e <= 30; ++e) {
    const double x = std::pow(2.0, static_cast<double>(e));
    data.add({x}, 7.0 * x * std::log2(x) + 100.0);
  }

  model::FitOptions scalar;
  scalar.batched_cv = false;
  scalar.threads = 1;
  model::FitEngine scalar_engine(data, scalar);
  (void)model::fit_with_pool_engine(scalar_engine, coarse_pool());

  model::FitOptions batched;
  batched.threads = 1;
  model::FitEngine batched_engine(data, batched);
  (void)model::fit_with_pool_engine(batched_engine, coarse_pool());

  const model::EngineStats cold = scalar_engine.stats();
  const model::EngineStats fast = batched_engine.stats();
  EXPECT_EQ(cold.downdates, 0u);
  EXPECT_EQ(cold.qr_extensions, 0u);
  EXPECT_GT(fast.downdates, 0u);
  EXPECT_GT(fast.qr_extensions, 0u);
  EXPECT_GE(cold.cv_solves, 10 * fast.cv_solves);
}

/// Sum of the seven metric CV scores of one app's requirement models.
double cv_total(const pipeline::CampaignData& data, bool batched) {
  model::GeneratorOptions options;
  options.fit.batched_cv = batched;
  options.fit.threads = 0;
  const pipeline::RequirementModels models =
      pipeline::model_requirements(data, options);
  double total = 0.0;
  for (const pipeline::Metric metric : pipeline::all_metrics()) {
    total += models.result(metric).quality.cv_score;
  }
  return total;
}

TEST(PropertyBatchedFitterOracleTest, NineAppCvTotalsAgreeOnSmallGrid) {
  // The planted generators above cover the search; this covers real data.
  // Every proxy app is measured on p in {2..32} x n in {16..256}, and the
  // per-app sum of its metric CV scores must agree between the engines
  // within 1e-6 relative. (On the paper grid the engines still part ways on
  // CheckpointIO's bytes_sent_received; see docs/MODELING.md section 8.)
  pipeline::CampaignConfig config;
  config.process_counts = {2, 4, 8, 16, 32};
  config.problem_sizes = {16, 32, 64, 128, 256};
  for (const apps::AppId id : apps::all_app_ids()) {
    const apps::Application& app = apps::application(id);
    const pipeline::CampaignData data = pipeline::run_campaign(app, config);
    const double scalar = cv_total(data, /*batched=*/false);
    const double batched = cv_total(data, /*batched=*/true);
    EXPECT_LE(std::fabs(batched - scalar),
              1e-6 * std::max(1.0, std::fabs(scalar)))
        << app.name() << ": batched CV total " << render(batched)
        << " vs scalar " << render(scalar);
  }
}

}  // namespace
}  // namespace exareq::testkit
