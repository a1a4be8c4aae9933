// The benchmark's own tests: the quantile helper, every correctness gate
// rejecting a deliberately perturbed input, and a tiny-size run of each
// workload. Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common.hpp"
#include "gates.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "serve/query_engine.hpp"
#include "stats.hpp"
#include "support/csv.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace exareq;

// ---------------------------------------------------------------------------
// Quantiles.

TEST(PerfbenchQuantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> values{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(PerfbenchQuantile, KeepsNanosecondResolution) {
  // Power-of-two histogram buckets would report 1024 us for all of these.
  Samples samples;
  for (const std::int64_t ns : {1'000'001, 1'000'003, 1'000'005}) {
    samples.add_ns(ns);
  }
  EXPECT_DOUBLE_EQ(samples.quantile_ms(0.5), 1.000003);
  EXPECT_DOUBLE_EQ(samples.quantile_us(1.0), 1000.005);
  EXPECT_NEAR(samples.sum_s(), 0.003000009, 1e-15);
}

TEST(PerfbenchQuantile, SumsPerAppMedians) {
  AppSamples per_app;
  // One slow outlier per app, in different passes, moves neither median.
  for (const std::int64_t ns : {1'000'000, 1'100'000, 9'000'000}) {
    per_app["Kripke"].add_ns(ns);
  }
  for (const std::int64_t ns : {7'000'000, 2'000'000, 2'200'000}) {
    per_app["MILC"].add_ns(ns);
  }
  EXPECT_NEAR(sum_of_medians_s(per_app), 0.0011 + 0.0022, 1e-15);
  EXPECT_DOUBLE_EQ(sum_of_medians_s({}), 0.0);
}

// ---------------------------------------------------------------------------
// A tiny campaign grid: five values per axis, as the fitter requires.

RunConfig tiny_config(const std::string& workload) {
  RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 0.5;
  config.min_passes = 1;
  config.setup_repeats = 1;
  config.processes = {2, 4, 8, 16, 32};
  config.sizes = {16, 32, 64, 128, 256};
  config.apps = {apps::AppId::kKripke, apps::AppId::kLulesh,
                 apps::AppId::kCheckpointIo};
  const char* dir = std::getenv("PERFBENCH_TEST_WORK_DIR");
  config.work_dir = std::string(dir != nullptr ? dir : "perfbench-test-work") +
                    "/" + workload;
  config.cache_capacity = 16;
  config.ingest_batches = 2;
  config.probes_per_app = 4;
  return config;
}

/// The tiny grid's reference, recorded once by a pipeline pass.
const Reference& tiny_reference() {
  static const Reference reference = [] {
    Reference recorded;
    const RunResult result =
        run_pipeline(tiny_config("pipeline"), recorded, true);
    EXPECT_EQ(result.failed, 0u);
    return recorded;
  }();
  return reference;
}

std::set<std::string> names_of(const std::vector<MetricValue>& values) {
  std::set<std::string> names;
  for (const MetricValue& value : values) names.insert(value.name);
  return names;
}

const std::set<std::string> kEndToEnd{"setup_s", "throughput", "p50_ms"};

// ---------------------------------------------------------------------------
// Gates reject perturbed inputs.

TEST(PerfbenchGates, CsvDigestRejectsAChangedByte) {
  Reference reference;
  const std::string csv = "p,n,flops\n2,16,1.5e+03\n";
  reference.csv_digests["Kripke"] = digest_hex(csv);
  EXPECT_EQ(check_csv_digest(reference, "Kripke", csv), "");
  std::string perturbed = csv;
  perturbed[perturbed.size() - 2] = '4';
  EXPECT_NE(check_csv_digest(reference, "Kripke", perturbed), "");
  EXPECT_NE(check_csv_digest(reference, "LULESH", csv), "");
}

TEST(PerfbenchGates, ModelsRejectChangedTermsAndCoefficients) {
  const Reference& reference = tiny_reference();
  const AppShapes& shapes = reference.models.at("Kripke");
  EXPECT_EQ(check_models(reference, "Kripke", shapes, kCoefficientTolerance), "");

  AppShapes nudged = shapes;
  for (auto& [metric, shape] : nudged) {
    for (double& c : shape.coefficients) c *= 1.0 + 1e-12;  // within tolerance
  }
  EXPECT_EQ(check_models(reference, "Kripke", nudged, kCoefficientTolerance), "");

  AppShapes moved = shapes;
  moved.at("flops").coefficients.back() *= 1.0 + 1e-6;
  EXPECT_NE(check_models(reference, "Kripke", moved, kCoefficientTolerance), "");

  AppShapes reshaped = shapes;
  reshaped.at("flops").terms += " + p";
  EXPECT_NE(check_models(reference, "Kripke", reshaped, kCoefficientTolerance), "");

  AppShapes missing = shapes;
  missing.erase("flops");
  EXPECT_NE(check_models(reference, "Kripke", missing, kCoefficientTolerance), "");
}

TEST(PerfbenchGates, ServedAnswerMustMatchAFreshEngine) {
  const RunConfig config = tiny_config("gate");
  const std::vector<AppInput> inputs = measure_inputs(config);
  serve::ModelRegistry registry;
  registry.insert(pipeline::to_requirements(pipeline::model_requirements(
      pipeline::CampaignData::from_csv(CsvDocument::parse_string(inputs[0].csv),
                                       inputs[0].name))));
  const serve::Request request =
      serve::parse_request("eval " + inputs[0].name + " flops 64 1024");
  const std::string answer = serve::QueryEngine(registry).answer(request);
  EXPECT_EQ(check_served_answer(registry, request, answer), "");

  std::string perturbed = answer;
  perturbed.back() = perturbed.back() == '1' ? '2' : '1';
  EXPECT_NE(check_served_answer(registry, request, perturbed), "");
  EXPECT_NE(check_served_answer(registry, request, "error numeric: x"), "");
}

// ---------------------------------------------------------------------------
// Tiny runs of each workload.

TEST(PerfbenchWorkloads, PipelineRunsAndGates) {
  Reference reference = tiny_reference();
  const RunResult result = run_pipeline(tiny_config("pipeline"), reference, false);
  EXPECT_TRUE(result.correct()) << result.gate_failures.front();
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GE(result.attempted, 3u);
  EXPECT_EQ(result.attempted % 3, 0u);  // whole passes over the three apps
  EXPECT_EQ(names_of(result.metrics), kEndToEnd);

  reference.csv_digests["LULESH"] = "0000000000000000";
  EXPECT_FALSE(run_pipeline(tiny_config("pipeline"), reference, false).correct());
}

TEST(PerfbenchWorkloads, PipelineTracedReportsEveryLayer) {
  Reference reference = tiny_reference();
  RunConfig config = tiny_config("pipeline-traced");
  config.trace = true;
  const RunResult result = run_pipeline(config, reference, false);
  EXPECT_TRUE(result.correct());
  EXPECT_EQ(result.layers.size(), 43u);
  for (const MetricValue& layer : result.layers) {
    if (layer.name == "apps.measure_s" || layer.name == "campaign.wall_s" ||
        layer.name == "instr.flops" || layer.name == "obs.trace_overhead") {
      EXPECT_GT(layer.value, 0.0) << layer.name;
    }
  }
}

TEST(PerfbenchWorkloads, ModelRunsAndGates) {
  const RunResult result = run_model(tiny_config("model"), tiny_reference());
  EXPECT_TRUE(result.correct());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(names_of(result.metrics), kEndToEnd);

  Reference perturbed = tiny_reference();
  perturbed.models.at("Kripke").at("flops").coefficients.back() *= 1.001;
  EXPECT_FALSE(run_model(tiny_config("model"), perturbed).correct());
}

TEST(PerfbenchWorkloads, ServeRunsTracedWithEveryResponseOk) {
  RunConfig config = tiny_config("serve");
  config.trace = true;
  const RunResult result = run_serve(config);
  EXPECT_TRUE(result.correct());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.attempted, 0u);
  EXPECT_EQ(names_of(result.metrics), kEndToEnd);
  EXPECT_EQ(result.layers.size(), 43u);
  for (const MetricValue& layer : result.layers) {
    if (layer.name == "online.rows_ingested") {
      EXPECT_EQ(layer.value, 2 * 25.0);
    }
  }
}

}  // namespace
}  // namespace perfbench
