#include "pipeline/campaign.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/task_dag.hpp"
#include "support/thread_pool.hpp"

namespace exareq::pipeline {

std::vector<Metric> all_metrics() {
  return {Metric::kBytesUsed,    Metric::kFlops,   Metric::kBytesSentReceived,
          Metric::kLoadsStores,  Metric::kStackDistance,
          Metric::kIoBytes,      Metric::kEnergyProxy};
}

std::string metric_label(Metric metric) {
  switch (metric) {
    case Metric::kBytesUsed:
      return "#Bytes used";
    case Metric::kFlops:
      return "#FLOP";
    case Metric::kBytesSentReceived:
      return "#Bytes sent & received";
    case Metric::kLoadsStores:
      return "#Loads & stores";
    case Metric::kStackDistance:
      return "Stack distance";
    case Metric::kIoBytes:
      return "#Bytes file I/O";
    case Metric::kEnergyProxy:
      return "Energy proxy [J]";
  }
  return "?";
}

namespace {

double metric_value(const AppMeasurement& m, Metric metric) {
  switch (metric) {
    case Metric::kBytesUsed:
      return m.bytes_used;
    case Metric::kFlops:
      return m.flops;
    case Metric::kBytesSentReceived:
      return m.bytes_sent_received;
    case Metric::kLoadsStores:
      return m.loads_stores;
    case Metric::kStackDistance:
      return m.stack_distance;
    case Metric::kIoBytes:
      return m.io_bytes;
    case Metric::kEnergyProxy:
      return m.energy_proxy;
  }
  return 0.0;
}

/// Indices of `values` ordered from the largest value down; equal values
/// keep their grid order.
template <typename T>
std::vector<std::size_t> largest_first(const std::vector<T>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&values](std::size_t a, std::size_t b) {
                     return values[a] > values[b];
                   });
  return order;
}

/// Header lookup that tolerates absence — pre-suite-v2 campaign CSVs have
/// no io_bytes/energy_proxy columns and must keep loading.
std::optional<std::size_t> optional_column(const exareq::CsvDocument& doc,
                                           const std::string& title) {
  for (std::size_t c = 0; c < doc.header().size(); ++c) {
    if (doc.header()[c] == title) return c;
  }
  return std::nullopt;
}

}  // namespace

model::MeasurementSet CampaignData::metric_data(Metric metric) const {
  if (metric == Metric::kStackDistance) {
    // Locality depends on the problem size only; deduplicate over p,
    // keeping the first occurrence of each problem size.
    model::MeasurementSet data({"n"});
    std::unordered_set<std::int64_t> seen;
    for (const AppMeasurement& m : measurements) {
      if (!seen.insert(m.problem_size).second) continue;
      data.add({static_cast<double>(m.problem_size)}, metric_value(m, metric));
    }
    return data;
  }
  model::MeasurementSet data({"p", "n"});
  for (const AppMeasurement& m : measurements) {
    data.add2(static_cast<double>(m.processes),
              static_cast<double>(m.problem_size), metric_value(m, metric));
  }
  return data;
}

std::vector<std::string> CampaignData::channel_names() const {
  std::vector<std::string> names;
  std::unordered_set<std::string> seen;
  for (const AppMeasurement& m : measurements) {
    for (const auto& [name, channel] : m.channels) {
      if (seen.insert(name).second) names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

model::MeasurementSet CampaignData::channel_data(const std::string& name) const {
  model::MeasurementSet data({"p", "n"});
  for (const AppMeasurement& m : measurements) {
    const auto it = m.channels.find(name);
    const double bytes = it == m.channels.end() ? 0.0 : it->second.bytes;
    data.add2(static_cast<double>(m.processes),
              static_cast<double>(m.problem_size), bytes);
  }
  return data;
}

ChannelMeasurement CampaignData::channel_traits(const std::string& name) const {
  ChannelMeasurement traits;
  for (const AppMeasurement& m : measurements) {
    const auto it = m.channels.find(name);
    if (it == m.channels.end()) continue;
    traits.uses_allreduce |= it->second.uses_allreduce;
    traits.uses_bcast |= it->second.uses_bcast;
    traits.uses_alltoall |= it->second.uses_alltoall;
  }
  return traits;
}

exareq::CsvDocument CampaignData::to_csv() const {
  // Channel columns are named "chan:<flags>:<name>" where flags encode
  // which collectives the call path uses (a/b/t).
  std::vector<std::string> header{"p",
                                  "n",
                                  "bytes_used",
                                  "flops",
                                  "loads_stores",
                                  "bytes_sent_received",
                                  "stack_distance",
                                  "io_bytes",
                                  "energy_proxy"};
  const std::vector<std::string> channels = channel_names();
  for (const std::string& name : channels) {
    const ChannelMeasurement traits = channel_traits(name);
    std::string flags;
    if (traits.uses_allreduce) flags += 'a';
    if (traits.uses_bcast) flags += 'b';
    if (traits.uses_alltoall) flags += 't';
    header.push_back("chan:" + flags + ":" + name);
  }
  exareq::CsvDocument doc(header);
  for (const AppMeasurement& m : measurements) {
    std::vector<std::string> row{std::to_string(m.processes),
                                 std::to_string(m.problem_size),
                                 exareq::format_sci(m.bytes_used, 17),
                                 exareq::format_sci(m.flops, 17),
                                 exareq::format_sci(m.loads_stores, 17),
                                 exareq::format_sci(m.bytes_sent_received, 17),
                                 exareq::format_sci(m.stack_distance, 17),
                                 exareq::format_sci(m.io_bytes, 17),
                                 exareq::format_sci(m.energy_proxy, 17)};
    for (const std::string& name : channels) {
      const auto it = m.channels.find(name);
      row.push_back(
          exareq::format_sci(it == m.channels.end() ? 0.0 : it->second.bytes, 17));
    }
    doc.add_row(std::move(row));
  }
  return doc;
}

CampaignData CampaignData::from_csv(const exareq::CsvDocument& doc,
                                    std::string app_name) {
  CampaignData data;
  data.app_name = std::move(app_name);
  const std::size_t p_col = doc.column_index("p");
  const std::size_t n_col = doc.column_index("n");
  const std::size_t bytes_col = doc.column_index("bytes_used");
  const std::size_t flops_col = doc.column_index("flops");
  const std::size_t ls_col = doc.column_index("loads_stores");
  const std::size_t comm_col = doc.column_index("bytes_sent_received");
  const std::size_t sd_col = doc.column_index("stack_distance");
  const std::optional<std::size_t> io_col = optional_column(doc, "io_bytes");
  const std::optional<std::size_t> energy_col =
      optional_column(doc, "energy_proxy");
  struct ChannelColumn {
    std::size_t column;
    std::string name;
    ChannelMeasurement traits;
  };
  std::vector<ChannelColumn> channel_columns;
  for (std::size_t c = 0; c < doc.header().size(); ++c) {
    const std::string& title = doc.header()[c];
    if (title.rfind("chan:", 0) != 0) continue;
    const std::size_t second_colon = title.find(':', 5);
    exareq::require(second_colon != std::string::npos,
                    "CampaignData::from_csv: malformed channel column '" +
                        title + "'");
    ChannelColumn column;
    column.column = c;
    column.name = title.substr(second_colon + 1);
    const std::string flags = title.substr(5, second_colon - 5);
    column.traits.uses_allreduce = flags.find('a') != std::string::npos;
    column.traits.uses_bcast = flags.find('b') != std::string::npos;
    column.traits.uses_alltoall = flags.find('t') != std::string::npos;
    channel_columns.push_back(std::move(column));
  }
  for (std::size_t row = 0; row < doc.rows().size(); ++row) {
    AppMeasurement m;
    m.processes = static_cast<int>(doc.number_at(row, p_col));
    m.problem_size = static_cast<std::int64_t>(doc.number_at(row, n_col));
    m.bytes_used = doc.number_at(row, bytes_col);
    m.flops = doc.number_at(row, flops_col);
    m.loads_stores = doc.number_at(row, ls_col);
    m.bytes_sent_received = doc.number_at(row, comm_col);
    m.stack_distance = doc.number_at(row, sd_col);
    // Legacy rows (pre-suite-v2) carry no I/O column — none of the original
    // apps perform file I/O, so 0 is the measurement those rows would have
    // recorded — and the energy proxy, a pure function of the other
    // metrics, is recomputed rather than defaulted.
    m.io_bytes = io_col.has_value() ? doc.number_at(row, *io_col) : 0.0;
    m.energy_proxy = energy_col.has_value()
                         ? doc.number_at(row, *energy_col)
                         : derived_energy_proxy(m.flops, m.loads_stores,
                                                m.bytes_sent_received,
                                                m.io_bytes);
    for (const ChannelColumn& column : channel_columns) {
      const double bytes = doc.number_at(row, column.column);
      // Zero-byte cells are fill-ins `to_csv` writes for configurations
      // where the call path never occurred. Materializing them would grow
      // phantom channel entries on every round trip; `channel_data` already
      // treats missing channels as 0 bytes.
      if (bytes == 0.0) continue;
      ChannelMeasurement entry = column.traits;
      entry.bytes = bytes;
      m.channels.emplace(column.name, entry);
    }
    data.measurements.push_back(m);
  }
  return data;
}

CampaignData run_campaign(const apps::Application& app,
                          const CampaignConfig& config) {
  exareq::require(!config.process_counts.empty() && !config.problem_sizes.empty(),
                  "run_campaign: empty campaign grid");
  const std::size_t p_count = config.process_counts.size();
  const std::size_t n_count = config.problem_sizes.size();
  const std::size_t slot_count = n_count * p_count;

  obs::ScopedSpan campaign_span("run_campaign", "campaign");
  campaign_span.arg("grid_points", static_cast<double>(slot_count));
  auto& registry = obs::MetricRegistry::instance();
  registry.counter("campaign.grid_points").add(slot_count);

  CampaignData data;
  data.app_name = app.name();
  // Every grid point writes its own preallocated slot (row-major: n outer,
  // p inner, in the grid's order), so the campaign can run its points in
  // any order on any number of threads and still produce bit-identical
  // measurements.
  data.measurements.resize(slot_count);

  // Checkpointing: a resumed campaign loads the validated log prefix into
  // the preallocated slots and only schedules the remainder; the writer
  // appends each newly completed point as its checkpoint task runs.
  std::vector<std::uint8_t> loaded(slot_count, 0);
  std::unique_ptr<CheckpointWriter> writer;
  if (config.checkpoint.enabled()) {
    CheckpointManifest manifest;
    manifest.app_name = data.app_name;
    manifest.process_counts = config.process_counts;
    manifest.problem_sizes = config.problem_sizes;
    manifest.locality_enabled = config.locality.enabled;
    manifest.sampler = config.locality.config.sampler;
    manifest.min_samples = config.locality.config.min_samples;

    std::uint64_t keep_bytes = 0;
    std::optional<CheckpointManifest> on_disk;
    if (config.checkpoint.resume) {
      on_disk = read_manifest(config.checkpoint.directory);
    }
    if (on_disk.has_value()) {
      std::string why;
      if (!manifest.compatible_with(*on_disk, &why)) {
        throw CheckpointError(
            "checkpoint '" + config.checkpoint.directory +
            "' belongs to a different campaign (mismatch: " + why + ")");
      }
      CheckpointLoadResult load =
          load_records(config.checkpoint.directory, slot_count);
      for (auto& [slot, measurement] : load.slots) {
        data.measurements[slot] = std::move(measurement);
        loaded[slot] = 1;
      }
      keep_bytes = load.valid_bytes;
      registry.counter("campaign.checkpoint.points_resumed")
          .add(load.slots.size());
      registry.counter("campaign.checkpoint.dropped_tail_bytes")
          .add(load.dropped_tail_bytes);
      campaign_span.arg("resumed_points",
                        static_cast<double>(load.slots.size()));
    } else {
      // Fresh start (or resume of an empty directory): persist the campaign
      // identity before any record can reference it.
      write_manifest_atomic(config.checkpoint.directory, manifest,
                            config.checkpoint.fsync);
    }
    writer = std::make_unique<CheckpointWriter>(config.checkpoint, keep_bytes);

    std::size_t remaining = 0;
    for (const std::uint8_t done : loaded) remaining += done == 0 ? 1u : 0u;
    registry.gauge("campaign.checkpoint.points_remaining")
        .set(static_cast<double>(remaining));
  }

  // Grid measurements never compute locality themselves; locality traces
  // depend on n only and run as one dedicated task per problem size.
  LocalityOptions no_locality = config.locality;
  no_locality.enabled = false;

  // Task ids double as the scheduling priority (the ready min-heap prefers
  // smaller ids, and on one thread runs them in id order), so tasks are
  // created in per-n blocks — measurements, then the locality trace, then
  // the checkpoint appends of that n. A killed checkpointed campaign
  // therefore leaves the finished problem sizes on disk instead of batching
  // every append behind the whole grid's measurements. The blocks run from
  // the largest problem size down, and each block's measurements from the
  // largest process count down: a grid point's cost grows with both, so
  // the most expensive point starts first and the campaign's wall time
  // tracks it instead of a tail where it runs alone. The order is by value,
  // not by position in the grid; slots stay row-major in the grid's own
  // order.
  const std::vector<std::size_t> n_order =
      largest_first(config.problem_sizes);
  const std::vector<std::size_t> p_order =
      largest_first(config.process_counts);
  constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);
  TaskDag dag;
  std::vector<std::size_t> measure_task(slot_count, kNoTask);
  std::vector<double> stack_distances(n_count, 0.0);
  std::vector<std::size_t> locality_task(n_count, kNoTask);
  for (const std::size_t n_idx : n_order) {
    bool any_missing = false;
    for (const std::size_t p_idx : p_order) {
      const std::size_t slot = n_idx * p_count + p_idx;
      if (loaded[slot] != 0) continue;
      any_missing = true;
      measure_task[slot] =
          dag.add("measure p=" + std::to_string(config.process_counts[p_idx]) +
                      " n=" + std::to_string(config.problem_sizes[n_idx]),
                  [&app, &config, &data, &no_locality, slot, n_idx, p_idx] {
                    data.measurements[slot] =
                        measure_app(app, config.process_counts[p_idx],
                                    config.problem_sizes[n_idx], no_locality);
                  });
    }
    // A problem size whose grid points were all resumed already carries
    // its stack distance inside the loaded records; re-tracing it would
    // only recompute the same value.
    if (config.locality.enabled && any_missing) {
      const std::size_t task = dag.add(
          "locality n=" + std::to_string(config.problem_sizes[n_idx]),
          [&app, &config, &data, &stack_distances, n_idx, p_count] {
        memtrace::LocalityAnalyzer analyzer(config.locality.config);
        app.trace_locality(config.problem_sizes[n_idx], analyzer);
        // Access-count scaling uses the loads/stores of the first grid point
        // at this n — exactly the measurement locality used to piggyback on
        // in the serial campaign.
        const double loads_stores =
            data.measurements[n_idx * p_count].loads_stores;
        stack_distances[n_idx] =
            analyzer.finish(loads_stores).weighted_median_stack_distance;
      });
      locality_task[n_idx] = task;
      // A resumed first grid point is already in its slot; otherwise the
      // locality trace must wait for its measurement.
      if (measure_task[n_idx * p_count] != kNoTask) {
        dag.depend(task, measure_task[n_idx * p_count]);
      }
    }
    if (writer == nullptr) continue;
    // One checkpoint task per newly measured point: it stamps the final
    // stack distance into the slot (the record must hold the value the CSV
    // will show) and appends the record. Points completed while another
    // grid point fails are still persisted — the DAG only skips dependents
    // of the failing task, and the append happens before run_campaign
    // rethrows.
    for (const std::size_t p_idx : p_order) {
      const std::size_t slot = n_idx * p_count + p_idx;
      if (measure_task[slot] == kNoTask) continue;
      const std::size_t task = dag.add(
          "checkpoint p=" + std::to_string(config.process_counts[p_idx]) +
              " n=" + std::to_string(config.problem_sizes[n_idx]),
          [&config, &data, &stack_distances, &writer, slot, n_idx] {
            if (config.locality.enabled) {
              data.measurements[slot].stack_distance = stack_distances[n_idx];
            }
            writer->append(static_cast<std::uint32_t>(slot),
                           data.measurements[slot]);
          });
      dag.depend(task, measure_task[slot]);
      if (locality_task[n_idx] != kNoTask) {
        dag.depend(task, locality_task[n_idx]);
      }
    }
  }

  std::size_t threads = config.threads;
  if (threads == 0) threads = exareq::ThreadPool::hardware_threads();
  if (threads <= 1) {
    // A local pool, not shared_pool(1): the shared pool rebuilds itself
    // whenever a caller asks for another size.
    exareq::ThreadPool pool(1);
    dag.run(pool);
  } else {
    dag.run(exareq::shared_pool(threads));
  }
  // A grid point's ranks all allocate in the malloc arena of the campaign
  // thread that runs them, and glibc keeps up to its (dynamic) trim
  // threshold of an arena's freed memory, so without this every campaign
  // thread would hold on to the largest grid point's data it measured.
  malloc_trim(0);

  if (config.locality.enabled) {
    for (std::size_t n_idx = 0; n_idx < n_count; ++n_idx) {
      for (std::size_t p_idx = 0; p_idx < p_count; ++p_idx) {
        const std::size_t slot = n_idx * p_count + p_idx;
        // Resumed slots keep the stack distance their record carried; for a
        // fully resumed n no locality task ran and stack_distances[n] is 0.
        if (loaded[slot] != 0) continue;
        data.measurements[slot].stack_distance = stack_distances[n_idx];
      }
    }
  }
  return data;
}

const model::FitResult& RequirementModels::result(Metric metric) const {
  switch (metric) {
    case Metric::kBytesUsed:
      return bytes_used;
    case Metric::kFlops:
      return flops;
    case Metric::kBytesSentReceived:
      return bytes_sent_received;
    case Metric::kLoadsStores:
      return loads_stores;
    case Metric::kStackDistance:
      return stack_distance;
    case Metric::kIoBytes:
      return io_bytes;
    case Metric::kEnergyProxy:
      return energy_proxy;
  }
  throw exareq::InvalidArgument("RequirementModels::result: unknown metric");
}

RequirementModels model_requirements(const CampaignData& data,
                                     const model::GeneratorOptions& options) {
  exareq::require(!data.measurements.empty(),
                  "model_requirements: empty campaign");
  const model::ModelGenerator generator(options);
  RequirementModels models;
  models.app_name = data.app_name;

  model::MetricTraits plain;
  model::MetricTraits communication;
  communication.is_communication = true;

  // Every fit writes into its own slot, so the per-metric and per-channel
  // fits can run concurrently; nested engine parallelism runs inline on the
  // same shared pool (the depth guard in ThreadPool prevents deadlock and
  // oversubscription). Results are identical at any thread count.
  const std::vector<std::string> channel_names = data.channel_names();
  models.comm_channels.resize(channel_names.size());

  std::vector<std::function<void()>> fits;
  fits.push_back([&] {
    models.bytes_used =
        generator.generate(data.metric_data(Metric::kBytesUsed), plain);
  });
  fits.push_back([&] {
    models.flops = generator.generate(data.metric_data(Metric::kFlops), plain);
  });
  fits.push_back([&] {
    models.bytes_sent_received = generator.generate(
        data.metric_data(Metric::kBytesSentReceived), communication);
  });
  fits.push_back([&] {
    models.loads_stores =
        generator.generate(data.metric_data(Metric::kLoadsStores), plain);
  });
  fits.push_back([&] {
    models.stack_distance =
        generator.generate(data.metric_data(Metric::kStackDistance), plain);
  });
  fits.push_back([&] {
    models.io_bytes =
        generator.generate(data.metric_data(Metric::kIoBytes), plain);
  });
  fits.push_back([&] {
    models.energy_proxy =
        generator.generate(data.metric_data(Metric::kEnergyProxy), plain);
  });
  for (std::size_t i = 0; i < channel_names.size(); ++i) {
    fits.push_back([&, i] {
      const std::string& name = channel_names[i];
      ChannelModel channel;
      channel.name = name;
      channel.traits = data.channel_traits(name);
      model::MetricTraits traits;
      traits.is_communication = true;
      traits.collectives.clear();
      if (channel.traits.uses_allreduce) {
        traits.collectives.push_back(model::SpecialFn::kAllreduce);
      }
      if (channel.traits.uses_bcast) {
        traits.collectives.push_back(model::SpecialFn::kBcast);
      }
      if (channel.traits.uses_alltoall) {
        traits.collectives.push_back(model::SpecialFn::kAlltoall);
      }
      channel.fit = generator.generate(data.channel_data(name), traits);
      models.comm_channels[i] = std::move(channel);
    });
  }

  std::size_t threads = options.fit.threads;
  if (threads == 0) threads = exareq::ThreadPool::hardware_threads();
  if (threads <= 1) {
    for (const auto& fit : fits) fit();
  } else {
    exareq::shared_pool(threads).parallel_for(
        fits.size(), [&](std::size_t i) { fits[i](); });
  }
  return models;
}

model::EngineStats RequirementModels::engine_stats() const {
  model::EngineStats total;
  for (Metric metric : all_metrics()) total += result(metric).stats;
  for (const ChannelModel& channel : comm_channels) total += channel.fit.stats;
  return total;
}

std::vector<double> all_relative_errors(const RequirementModels& models) {
  std::vector<double> errors;
  for (Metric metric : all_metrics()) {
    if (metric == Metric::kBytesSentReceived && !models.comm_channels.empty()) {
      // Communication is modeled per call path (paper Sec. III); the
      // histogram population uses those models, not the program total.
      continue;
    }
    const auto& fit = models.result(metric);
    errors.insert(errors.end(), fit.quality.relative_errors.begin(),
                  fit.quality.relative_errors.end());
  }
  for (const ChannelModel& channel : models.comm_channels) {
    errors.insert(errors.end(), channel.fit.quality.relative_errors.begin(),
                  channel.fit.quality.relative_errors.end());
  }
  return errors;
}

}  // namespace exareq::pipeline
