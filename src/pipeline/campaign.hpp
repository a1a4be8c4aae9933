// Measurement campaigns and requirement-model generation — the paper's
// workflow (Sec. II): run the application over a grid of at least five
// process counts and five problem sizes (25 configurations), then fit one
// requirement model per metric with the Extra-P substitute.
#pragma once

#include <string>
#include <vector>

#include "apps/application.hpp"
#include "model/modelgen.hpp"
#include "pipeline/checkpoint.hpp"
#include "pipeline/measure.hpp"
#include "support/csv.hpp"

namespace exareq::pipeline {

/// The requirement metrics of the paper's Table I, plus the suite-v2
/// channels: file-system traffic (the paper's I/O remark — "I/O would be
/// handled analogously to the network communication requirement") and a
/// derived energy proxy.
enum class Metric {
  kBytesUsed,
  kFlops,
  kBytesSentReceived,
  kLoadsStores,
  kStackDistance,
  kIoBytes,
  kEnergyProxy,
};

/// All metrics, in Table II row order.
std::vector<Metric> all_metrics();

/// Table-I style label ("#Bytes used", ...).
std::string metric_label(Metric metric);

/// Campaign grid. Defaults follow the paper's rule of thumb: five values
/// per parameter. Powers of two keep the discrete log2-based iteration
/// counts of the proxies aligned with the continuous model functions.
struct CampaignConfig {
  std::vector<int> process_counts{4, 8, 16, 32, 64};
  std::vector<std::int64_t> problem_sizes{64, 128, 256, 512, 1024};
  LocalityOptions locality;
  /// Worker threads for the campaign itself: grid points run concurrently,
  /// each writing its own preallocated slot, so the resulting CampaignData
  /// is bit-identical at any thread count. 0 means hardware concurrency,
  /// 1 runs strictly serial on the calling thread.
  std::size_t threads = 0;
  /// Crash-safe persistence: with a directory set, every completed grid
  /// point is appended to the checkpoint log as it finishes, and with
  /// `resume` a restarted campaign loads the log, skips completed points,
  /// and schedules only the remainder — the resulting CSV is byte-identical
  /// to an uninterrupted run (see pipeline/checkpoint.hpp).
  CheckpointOptions checkpoint;
};

/// All measurements of one application over the campaign grid.
struct CampaignData {
  std::string app_name;
  std::vector<AppMeasurement> measurements;

  /// Measurement set for one metric: parameters (p, n) for the four
  /// process-level metrics; parameter (n) for the stack distance, whose
  /// model depends on the problem size only (paper Table II).
  model::MeasurementSet metric_data(Metric metric) const;

  /// Names of all communication call paths observed, sorted.
  std::vector<std::string> channel_names() const;

  /// Measurement set of one communication call path over (p, n); missing
  /// configurations (e.g. p = 1 where no traffic occurs) count as 0 bytes.
  model::MeasurementSet channel_data(const std::string& name) const;

  /// Union of the collective-use flags of one call path over all
  /// configurations.
  ChannelMeasurement channel_traits(const std::string& name) const;

  /// CSV round trip for persisting campaigns (one row per configuration).
  exareq::CsvDocument to_csv() const;
  static CampaignData from_csv(const exareq::CsvDocument& doc,
                               std::string app_name);
};

/// Runs the full grid. Throws if the grid is degenerate (empty axes).
CampaignData run_campaign(const apps::Application& app,
                          const CampaignConfig& config = {});

/// Fitted model of one communication call path.
struct ChannelModel {
  std::string name;
  ChannelMeasurement traits;  ///< which collectives the call path uses
  model::FitResult fit;
};

/// One fitted model per metric, plus one per communication call path —
/// Table II lists the communication requirement as separate per-call-path
/// models ("10^4 * Allreduce(p)", "10^4 * Bcast(p)", "10^9 * n" for MILC).
struct RequirementModels {
  std::string app_name;
  model::FitResult bytes_used;
  model::FitResult flops;
  model::FitResult bytes_sent_received;  ///< whole-program total
  model::FitResult loads_stores;
  model::FitResult stack_distance;
  model::FitResult io_bytes;      ///< file-system traffic (0 for no-I/O apps)
  model::FitResult energy_proxy;  ///< derived energy estimate
  std::vector<ChannelModel> comm_channels;

  const model::FitResult& result(Metric metric) const;

  /// Aggregated engine-stats counters over all metric and call-path fits
  /// (wall_seconds is the sum of the per-fit wall times).
  model::EngineStats engine_stats() const;
};

/// Fits all seven metrics. Communication models search over the collective
/// basis functions (Allreduce/Bcast/Alltoall of p).
RequirementModels model_requirements(
    const CampaignData& data,
    const model::GeneratorOptions& options = model::GeneratorOptions{});

/// Relative errors of every measurement under its fitted model, across all
/// metrics — the population of the paper's Fig. 3 histogram.
std::vector<double> all_relative_errors(const RequirementModels& models);

}  // namespace exareq::pipeline
