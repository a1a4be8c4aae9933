// The `pipeline` workload: every app through the paper's whole workflow —
// a campaign over the 5x5 grid with the balanced locality sampler and a
// fsync'd checkpoint log in a fresh directory, then model_requirements,
// then the co-design studies. Campaign layers do nearly all of the work,
// so a fitter change should leave this workload flat.
#include <iostream>

#include "obs/trace.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace exareq;

std::vector<AppInput> measure_inputs(const RunConfig& config) {
  std::vector<AppInput> inputs;
  for (const apps::AppId id : config.apps) {
    const apps::Application& app = apps::application(id);
    obs::ScopedSpan span("measure_input", "bench");
    inputs.push_back(
        {app.name(),
         pipeline::run_campaign(app, config.campaign_config()).to_csv().to_string()});
  }
  return inputs;
}

RunResult run_pipeline(const RunConfig& config, Reference& reference,
                       bool record) {
  RunResult result;
  Rng rng(config.seed);
  const std::vector<apps::AppId> order = shuffled(config.apps, rng);
  const std::string root = config.work_dir + "/pipeline";
  const std::size_t threads = ThreadPool::hardware_threads();

  // Set-up: a fresh scratch tree and one small warm-up measurement per app,
  // repeated so the reported set-up time is a median.
  Samples setup;
  for (std::size_t r = 0; r < std::max<std::size_t>(1, config.setup_repeats);
       ++r) {
    const auto start = Clock::now();
    remove_tree(root);
    make_dirs(root);
    for (const apps::AppId id : order) {
      (void)pipeline::measure_app(apps::application(id),
                                  config.processes.front(),
                                  config.sizes.front());
    }
    setup.add_since(start);
  }

  model::GeneratorOptions fit_options;
  fit_options.fit.threads = 0;  // the CLI default: hardware concurrency
  Samples passes, campaign, fits, studies;
  AppSamples app_times;
  model::EngineStats engine;
  std::vector<pipeline::CampaignData> last_data;
  std::size_t pass_index = 0;

  const auto run_pass = [&] {
    const std::string pass_dir = root + "/pass" + std::to_string(pass_index++);
    std::int64_t campaign_ns = 0, fit_ns = 0, study_ns = 0;
    model::EngineStats pass_engine;
    std::vector<pipeline::CampaignData> pass_data;
    const auto pass_start = Clock::now();
    for (const apps::AppId id : order) {
      const apps::Application& app = apps::application(id);
      obs::ScopedSpan span("pipeline_app", "bench");
      const auto app_start = Clock::now();
      ++result.attempted;
      try {
        pipeline::CampaignConfig campaign_config = config.campaign_config();
        campaign_config.checkpoint.directory = pass_dir + "/" + app.name();
        auto start = Clock::now();
        pipeline::CampaignData data =
            pipeline::run_campaign(app, campaign_config);
        campaign_ns += elapsed_ns(start);

        const std::string csv = data.to_csv().to_string();
        start = Clock::now();
        const pipeline::RequirementModels models =
            pipeline::model_requirements(data, fit_options);
        fit_ns += elapsed_ns(start);
        pass_engine += models.engine_stats();

        start = Clock::now();
        run_studies(pipeline::to_requirements(models));
        study_ns += elapsed_ns(start);

        if (record) {
          reference.csv_digests[app.name()] = digest_hex(csv);
          reference.models[app.name()] = describe_models(models);
        } else if (const std::string why =
                       check_csv_digest(reference, app.name(), csv);
                   !why.empty()) {
          result.fail_gate(why);
        }
        pass_data.push_back(std::move(data));
        app_times[app.name()].add_since(app_start);
        result.raw_ms["per_app"].push_back(elapsed_ns(app_start) / 1e6);
      } catch (const std::exception& error) {
        ++result.failed;
        std::cerr << "pipeline " << app.name() << ": " << error.what() << "\n";
      }
    }
    passes.add_since(pass_start);
    campaign.add_ns(campaign_ns);
    fits.add_ns(fit_ns);
    studies.add_ns(study_ns);
    engine = pass_engine;
    last_data = std::move(pass_data);
    remove_tree(pass_dir);
  };

  const double apps_per_pass = static_cast<double>(order.size());
  if (!config.trace) {
    const double cpu_start = process_cpu_s();
    const auto window = Clock::now();
    do {
      run_pass();
    } while (passes.count() < config.min_passes ||
             elapsed_ns(window) < static_cast<std::int64_t>(config.seconds * 1e9));
    result.detail("cpu_ms_per_app", (process_cpu_s() - cpu_start) * 1e3 /
                                        static_cast<double>(result.attempted),
                  "ms");
    const double pass_s = sum_of_medians_s(app_times);
    report_end_to_end(result, setup.quantile_s(0.5), apps_per_pass / pass_s,
                      pass_s * 1e3);
    result.detail("pipeline_s", pass_s, "s");
    result.detail("passes", static_cast<double>(passes.count()), "count");
    result.detail("campaign_share", campaign.sum_s() / passes.sum_s(), "ratio");
    result.detail("fit_share", fits.sum_s() / passes.sum_s(), "ratio");
    remove_tree(root);
    return result;
  }

  // Traced run: one untraced pass, one traced pass (their ratio is the
  // tracing overhead), then the layer probes, still traced.
  run_pass();
  const double untraced_s = passes.ns().front() / 1e9;
  obs::TraceRecorder::instance().start();
  run_pass();
  const double traced_s = passes.ns().back() / 1e9;
  const double traced_campaign_s = campaign.ns().back() / 1e9;
  const std::map<std::string, SpanTotals> spans = span_self_times();

  Layers layers;
  const Samples measure = probe_measure(config, threads);
  layers.apps_measure_s = measure.sum_s();
  layers.apps_measure_point_p90_ms = measure.quantile_ms(0.90);
  layers.simmpi_run_floor_s = probe_simmpi_floor(config).sum_s();
  layers.memtrace_locality_s =
      probe_locality(config, threads, layers.memtrace_accesses).sum_s();
  layers.checkpoint_append_ms =
      probe_checkpoint(last_data, root + "/probe", layers.checkpoint_bytes)
          .quantile_ms(0.5);
  obs::TraceRecorder::instance().stop();

  for (const pipeline::CampaignData& data : last_data) {
    for (const pipeline::AppMeasurement& m : data.measurements) {
      layers.simmpi_bytes += m.bytes_sent_received;
      layers.instr_flops += m.flops;
      layers.instr_loads_stores += m.loads_stores;
    }
  }
  double serial_task_ms = 0.0;
  for (const char* task : {"taskdag:measure", "taskdag:locality",
                           "taskdag:checkpoint"}) {
    if (const auto it = spans.find(task); it != spans.end()) {
      serial_task_ms += it->second.total_ms;
    }
  }
  layers.campaign_wall_s = campaign.quantile_s(0.5);
  layers.campaign_overlap =
      serial_task_ms / 1e3 / (traced_campaign_s * static_cast<double>(threads));
  layers.model_fit_s = fits.quantile_s(0.5);
  layers.set_engine_stats(engine);
  layers.codesign_studies_ms = studies.quantile_ms(0.5);
  layers.obs_trace_overhead = traced_s / untraced_s;
  layers.report(result);
  const double pass_s = sum_of_medians_s(app_times);
  report_end_to_end(result, setup.quantile_s(0.5), apps_per_pass / pass_s,
                    pass_s * 1e3);
  remove_tree(root);
  return result;
}

}  // namespace perfbench
