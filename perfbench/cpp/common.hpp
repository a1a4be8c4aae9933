// Shared pieces of the end-to-end benchmark: run configuration, the result
// record every workload fills, deterministic input generation, the
// co-design studies both analysis workloads run, and trace post-processing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "codesign/requirements.hpp"
#include "pipeline/campaign.hpp"

namespace perfbench {

/// Everything a workload needs to know about one run. The defaults are the
/// benchmark's fixed workloads; the tests shrink grid, apps and time.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The paper's 5x5 campaign grid.
  std::vector<int> processes{4, 8, 16, 32, 64};
  std::vector<std::int64_t> sizes{64, 128, 256, 512, 1024};
  std::vector<exareq::apps::AppId> apps = exareq::apps::all_app_ids();
  /// Scratch directory for checkpoints, the socket, and trace output.
  std::string work_dir = ".";
  /// Passes run even when they overrun `seconds` (pipeline/model).
  std::size_t min_passes = 2;
  /// Set-up repetitions whose median is reported as setup_s, for workloads
  /// whose set-up is cheap enough to repeat.
  std::size_t setup_repeats = 5;

  // serve sizes the tests shrink (the rest are constants in
  // serve_workload.cpp).
  std::size_t cache_capacity = 1024;  ///< per shard, the CLI default
  std::size_t ingest_batches = 12;    ///< fixed total per run
  std::size_t probes_per_app = 16;    ///< stale-answer probe set size

  exareq::pipeline::CampaignConfig campaign_config() const;
};

/// One named measurement with its unit.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced. `metrics` holds the end-to-end metrics,
/// `layers` the per-layer ones (only meaningful on traced runs), `details`
/// extra context printed for humans (the headline figures under their
/// workload names, and sample counts).
struct RunResult {
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<MetricValue> metrics;
  std::vector<MetricValue> layers;
  std::vector<MetricValue> details;
  /// Raw latency samples in ms, written to the run's result file only.
  std::map<std::string, std::vector<double>> raw_ms;

  bool correct() const { return gate_failures.empty(); }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  /// Records a gate failure once, however many passes repeat it.
  void fail_gate(const std::string& why);
};

/// The end-to-end metrics every workload reports: set-up time, work items
/// per second, and the median latency of the workload's unit of work.
void report_end_to_end(RunResult& result, double setup_s, double throughput,
                       double p50_ms);

/// Every per-layer metric, with the end-to-end metric it should move noted
/// per group. A traced run reports all of them; a layer the workload does
/// not exercise reads 0.
struct Layers {
  // apps / simmpi / instr -> pipeline throughput.
  double apps_measure_s = 0;           ///< measure_app, locality off, summed
  double apps_measure_point_p90_ms = 0;
  double simmpi_run_floor_s = 0;       ///< barrier-only simmpi::run, summed
  double simmpi_bytes = 0;             ///< busiest-rank bytes, summed
  double instr_flops = 0;
  double instr_loads_stores = 0;
  // memtrace -> pipeline throughput.
  double memtrace_locality_s = 0;
  double memtrace_accesses = 0;
  // pipeline -> pipeline throughput.
  double campaign_wall_s = 0;
  double campaign_overlap = 0;  ///< serial task time / (wall x threads)
  double checkpoint_append_ms = 0;
  double checkpoint_bytes = 0;
  // support -> model throughput.
  double csv_parse_ms = 0;
  // model -> model throughput (and a little of pipeline's).
  double model_fit_s = 0;
  double model_hypotheses = 0;
  double model_cv_solves = 0;
  double model_qr_extensions = 0;
  double model_downdates = 0;
  double model_cache_hit_ratio = 0;
  double model_cache_lookups = 0;  ///< base of the ratio
  // codesign -> model throughput, serve p50.
  double codesign_studies_ms = 0;
  double codesign_invert_us_p50 = 0;
  double codesign_upgrade_us_p50 = 0;
  double codesign_strawman_us_p50 = 0;
  double model_eval_us_p50 = 0;
  // serve -> serve throughput and frame latency.
  double serve_cache_hit_ratio = 0;
  double serve_cache_lookups = 0;  ///< base of the ratio
  double serve_batch_inproc_us_p50 = 0;
  double frontend_overhead_us_p50 = 0;
  double serve_shard_imbalance = 0;
  double serve_errors = 0;
  double serve_shed = 0;
  double serve_deadline_drops = 0;
  double serve_stale_answers = 0;
  // online -> serve p50.
  double online_refits = 0;
  double online_rows_ingested = 0;
  double online_refit_ms_p50 = 0;
  double online_rollbacks = 0;
  double ingest_p50_ms = 0;
  double ingest_generator_late_ms_max = 0;
  // obs.
  double obs_trace_overhead = 0;  ///< traced / untraced end-to-end time

  /// Fills the model.* counters from one pass's summed engine stats.
  void set_engine_stats(const exareq::model::EngineStats& engine);

  /// Appends every per-layer metric to `result`, plus failed_ratio (from
  /// its attempted/failed counts) and process.peak_rss_mb.
  void report(RunResult& result) const;
};

/// splitmix64: a tiny, well-mixed generator for seeded inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  /// Log-uniform on [lo, hi].
  double log_uniform(double lo, double hi);
  std::size_t below(std::size_t bound);  ///< [0, bound)

 private:
  std::uint64_t state_;
};

/// Seeded permutation of `items` (Fisher-Yates).
template <typename T>
std::vector<T> shuffled(std::vector<T> items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
  return items;
}

/// FNV-1a 64 of a byte string, as 16 hex digits.
std::string digest_hex(const std::string& bytes);

/// One application's co-design studies: the paper's upgrades on the CLI's
/// default baseline, the paper and accelerator straw-men, the wall-time
/// bound, and the refined per-requirement bound. Infeasible outcomes ("does
/// not fit") are results, not failures.
void run_studies(const exareq::codesign::AppRequirements& req);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// User plus system CPU time this process has used, in seconds. Unlike
/// wall time it excludes time the hypervisor stole, so CPU time per work
/// item separates a code change from a noisy host.
double process_cpu_s();

/// Machine-wide CPU ticks from /proc/stat (zeros where unavailable). The
/// stolen share between two readings tells whether the hypervisor took the
/// CPUs away during a run — the usual cause of an outlier.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks read_cpu_ticks();

/// Self time per span kind (category:first word of the name): duration
/// minus the part covered by child spans on the same thread.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> span_self_times();

/// Writes the global recorder's Chrome trace and the self-time table into
/// `dir`; returns the trace path.
std::string write_trace_files(const std::string& dir, const std::string& stem);

/// Creates `path` (and parents); removes it recursively.
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace perfbench
