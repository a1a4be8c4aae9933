#include "pipeline/measure.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "simmpi/runtime.hpp"
#include "support/error.hpp"

namespace exareq::pipeline {

bool measurement_row_less(const AppMeasurement& a, const AppMeasurement& b) {
  if (a.processes != b.processes) return a.processes < b.processes;
  if (a.problem_size != b.problem_size) return a.problem_size < b.problem_size;
  if (a.bytes_used != b.bytes_used) return a.bytes_used < b.bytes_used;
  if (a.flops != b.flops) return a.flops < b.flops;
  if (a.loads_stores != b.loads_stores) return a.loads_stores < b.loads_stores;
  if (a.bytes_sent_received != b.bytes_sent_received) {
    return a.bytes_sent_received < b.bytes_sent_received;
  }
  if (a.stack_distance != b.stack_distance) {
    return a.stack_distance < b.stack_distance;
  }
  if (a.io_bytes != b.io_bytes) return a.io_bytes < b.io_bytes;
  if (a.energy_proxy != b.energy_proxy) {
    return a.energy_proxy < b.energy_proxy;
  }
  auto it_a = a.channels.begin();
  auto it_b = b.channels.begin();
  for (; it_a != a.channels.end() && it_b != b.channels.end();
       ++it_a, ++it_b) {
    if (it_a->first != it_b->first) return it_a->first < it_b->first;
    const ChannelMeasurement& ca = it_a->second;
    const ChannelMeasurement& cb = it_b->second;
    if (ca.bytes != cb.bytes) return ca.bytes < cb.bytes;
    if (ca.uses_allreduce != cb.uses_allreduce) return cb.uses_allreduce;
    if (ca.uses_bcast != cb.uses_bcast) return cb.uses_bcast;
    if (ca.uses_alltoall != cb.uses_alltoall) return cb.uses_alltoall;
  }
  return it_a == a.channels.end() && it_b != b.channels.end();
}

double derived_energy_proxy(double flops, double loads_stores,
                            double bytes_sent_received, double io_bytes) {
  constexpr double kJoulesPerFlop = 1e-11;
  constexpr double kJoulesPerAccess = 2e-10;
  constexpr double kJoulesPerCommByte = 5e-10;
  constexpr double kJoulesPerIoByte = 1e-9;
  return kJoulesPerFlop * flops + kJoulesPerAccess * loads_stores +
         kJoulesPerCommByte * bytes_sent_received + kJoulesPerIoByte * io_bytes;
}

LocalityOptions locality_preset(SamplingPreset preset) {
  LocalityOptions options;
  switch (preset) {
    case SamplingPreset::kExact:
      options.config.sampler = memtrace::SamplerConfig::exact();
      break;
    case SamplingPreset::kBalanced:
      options.config.sampler = {64, 512, 0};
      break;
    case SamplingPreset::kSparse:
      options.config.sampler = {64, 2048, 0};
      break;
    case SamplingPreset::kMinimal:
      options.config.sampler = {64, 8192, 0};
      break;
  }
  return options;
}

std::string_view sampling_preset_name(SamplingPreset preset) {
  switch (preset) {
    case SamplingPreset::kExact:
      return "exact";
    case SamplingPreset::kBalanced:
      return "balanced";
    case SamplingPreset::kSparse:
      return "sparse";
    case SamplingPreset::kMinimal:
      return "minimal";
  }
  return "?";
}

std::optional<SamplingPreset> sampling_preset_from_name(
    std::string_view name) {
  for (const SamplingPreset preset :
       {SamplingPreset::kExact, SamplingPreset::kBalanced,
        SamplingPreset::kSparse, SamplingPreset::kMinimal}) {
    if (name == sampling_preset_name(preset)) return preset;
  }
  return std::nullopt;
}

AppMeasurement measure_app(const apps::Application& app, int p, std::int64_t n,
                           const LocalityOptions& locality) {
  exareq::require(p >= 1, "measure_app: need at least one process");
  exareq::require(n >= app.min_problem_size(),
                  "measure_app: problem size below the application minimum");

  // One instrumentation context per rank, owned here so each rank only
  // ever touches its own slot.
  std::vector<std::unique_ptr<instr::ProcessInstrumentation>> contexts;
  contexts.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    contexts.push_back(std::make_unique<instr::ProcessInstrumentation>());
  }

  const simmpi::RunResult run_result =
      simmpi::run(p, [&app, &contexts, n](simmpi::Communicator& comm) {
        app.run_rank(comm, *contexts[static_cast<std::size_t>(comm.rank())], n);
      });

  AppMeasurement measurement;
  measurement.processes = p;
  measurement.problem_size = n;
  for (int r = 0; r < p; ++r) {
    const instr::ProcessReport report = contexts[static_cast<std::size_t>(r)]->report();
    measurement.bytes_used = std::max(
        measurement.bytes_used, static_cast<double>(report.peak_bytes));
    measurement.flops =
        std::max(measurement.flops, static_cast<double>(report.ops.flops));
    measurement.loads_stores =
        std::max(measurement.loads_stores,
                 static_cast<double>(report.ops.loads_stores()));
    measurement.io_bytes = std::max(
        measurement.io_bytes, static_cast<double>(report.io.bytes_total()));
  }
  measurement.bytes_sent_received =
      static_cast<double>(run_result.max_bytes_per_rank());
  measurement.energy_proxy = derived_energy_proxy(
      measurement.flops, measurement.loads_stores,
      measurement.bytes_sent_received, measurement.io_bytes);
  for (const simmpi::CommStats& stats : run_result.stats) {
    for (const auto& [name, channel] : stats.channels) {
      ChannelMeasurement& entry = measurement.channels[name];
      entry.bytes = std::max(entry.bytes,
                             static_cast<double>(channel.bytes_total()));
      entry.uses_allreduce |= channel.allreduce_calls > 0;
      entry.uses_bcast |= channel.bcast_calls > 0;
      entry.uses_alltoall |= channel.alltoall_calls > 0;
    }
  }

  if (locality.enabled) {
    // Streamed: the kernel writes straight into the analyzer, so no trace is
    // ever materialized and memory stays O(distinct addresses).
    memtrace::LocalityAnalyzer analyzer(locality.config);
    app.trace_locality(n, analyzer);
    measurement.stack_distance =
        analyzer.finish(measurement.loads_stores).weighted_median_stack_distance;
  }
  return measurement;
}

}  // namespace exareq::pipeline
