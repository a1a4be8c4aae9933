// The `model` workload: the `exareq model/upgrade/strawman --in` path an
// analyst re-runs. The nine campaign CSVs are measured once in set-up; each
// pass parses them, fits every metric, converts to the co-design bundle and
// runs the co-design studies. The fitter does nearly all of the work and
// the campaign layers none.
#include <iostream>

#include "obs/trace.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "support/csv.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace exareq;

RunResult run_model(const RunConfig& config, const Reference& reference) {
  RunResult result;
  Rng rng(config.seed);

  const auto setup_start = Clock::now();
  const std::vector<AppInput> inputs = shuffled(measure_inputs(config), rng);
  const double setup_s = elapsed_ns(setup_start) / 1e9;

  model::GeneratorOptions fit_options;
  fit_options.fit.threads = 0;  // the CLI default: hardware concurrency
  Samples passes, parses, fits, studies;
  AppSamples app_times;
  model::EngineStats engine;
  std::vector<codesign::AppRequirements> bundles;

  const auto run_pass = [&] {
    std::int64_t parse_ns = 0, fit_ns = 0, study_ns = 0;
    model::EngineStats pass_engine;
    std::vector<codesign::AppRequirements> pass_bundles;
    const auto pass_start = Clock::now();
    for (const AppInput& input : inputs) {
      obs::ScopedSpan span("model_app", "bench");
      const auto app_start = Clock::now();
      ++result.attempted;
      try {
        auto start = Clock::now();
        const pipeline::CampaignData data = pipeline::CampaignData::from_csv(
            CsvDocument::parse_string(input.csv), input.name);
        parse_ns += elapsed_ns(start);

        start = Clock::now();
        const pipeline::RequirementModels models =
            pipeline::model_requirements(data, fit_options);
        fit_ns += elapsed_ns(start);
        pass_engine += models.engine_stats();

        start = Clock::now();
        codesign::AppRequirements bundle = pipeline::to_requirements(models);
        run_studies(bundle);
        study_ns += elapsed_ns(start);

        if (const std::string why =
                check_models(reference, input.name, describe_models(models),
                             kCoefficientTolerance);
            !why.empty()) {
          result.fail_gate(why);
        }
        pass_bundles.push_back(std::move(bundle));
        app_times[input.name].add_since(app_start);
        result.raw_ms["per_app"].push_back(elapsed_ns(app_start) / 1e6);
      } catch (const std::exception& error) {
        ++result.failed;
        std::cerr << "model " << input.name << ": " << error.what() << "\n";
      }
    }
    passes.add_since(pass_start);
    parses.add_ns(parse_ns);
    fits.add_ns(fit_ns);
    studies.add_ns(study_ns);
    engine = pass_engine;
    bundles = std::move(pass_bundles);
  };

  // Passes until the window closes (at least `min_passes`); returns the
  // window's pass latencies.
  const auto run_window = [&](double seconds, std::size_t min_passes) {
    const std::size_t first = passes.count();
    const auto window = Clock::now();
    do {
      run_pass();
    } while (passes.count() - first < min_passes ||
             elapsed_ns(window) < static_cast<std::int64_t>(seconds * 1e9));
    Samples window_passes;
    for (std::size_t i = first; i < passes.count(); ++i) {
      window_passes.add_ns(static_cast<std::int64_t>(passes.ns()[i]));
    }
    return window_passes;
  };

  const double apps_per_pass = static_cast<double>(inputs.size());
  if (!config.trace) {
    const double cpu_start = process_cpu_s();
    run_window(config.seconds, config.min_passes);
    result.detail("cpu_ms_per_app", (process_cpu_s() - cpu_start) * 1e3 /
                                        static_cast<double>(result.attempted),
                  "ms");
    const double pass_s = sum_of_medians_s(app_times);
    report_end_to_end(result, setup_s, apps_per_pass / pass_s, pass_s * 1e3);
    result.detail("model_s", pass_s, "s");
    result.detail("passes", static_cast<double>(passes.count()), "count");
    result.detail("fit_share", fits.sum_s() / passes.sum_s(), "ratio");
    return result;
  }

  // Traced run: half the window untraced, half traced, then the compute
  // probe on the fitted bundles.
  const Samples untraced = run_window(config.seconds / 2, 1);
  obs::TraceRecorder::instance().start();
  const Samples traced = run_window(config.seconds / 2, 1);
  std::vector<std::string> names;
  for (const AppInput& input : inputs) names.push_back(input.name);
  const ComputeSamples compute =
      probe_compute(bundles, probe_requests(names, config.seed), 1.0);
  obs::TraceRecorder::instance().stop();

  Layers layers;
  layers.csv_parse_ms = parses.quantile_ms(0.5);
  layers.model_fit_s = fits.quantile_s(0.5);
  layers.set_engine_stats(engine);
  layers.codesign_studies_ms = studies.quantile_ms(0.5);
  layers.codesign_invert_us_p50 = compute.invert.quantile_us(0.5);
  layers.codesign_upgrade_us_p50 = compute.upgrade.quantile_us(0.5);
  layers.codesign_strawman_us_p50 = compute.strawman.quantile_us(0.5);
  layers.model_eval_us_p50 = compute.eval.quantile_us(0.5);
  layers.obs_trace_overhead =
      traced.quantile_s(0.5) / untraced.quantile_s(0.5);
  layers.report(result);
  const double pass_s = sum_of_medians_s(app_times);
  report_end_to_end(result, setup_s, apps_per_pass / pass_s, pass_s * 1e3);
  return result;
}

}  // namespace perfbench
