// Concurrency tests of the parallel measurement campaign. All suites are
// named Campaign* so the ThreadSanitizer CI job can select them with
// `ctest -R '^Campaign'` (alongside the Serve* suites).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "apps/application.hpp"
#include "memtrace/locality.hpp"
#include "obs/metrics.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/measure.hpp"
#include "support/error.hpp"

namespace exareq::pipeline {
namespace {

CampaignConfig grid_with_threads(std::size_t threads) {
  CampaignConfig config;
  config.process_counts = {2, 4, 8};
  config.problem_sizes = {32, 64, 128};
  config.threads = threads;
  return config;
}

void expect_measurements_equal(const std::vector<AppMeasurement>& a,
                               const std::vector<AppMeasurement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].processes, b[i].processes);
    EXPECT_EQ(a[i].problem_size, b[i].problem_size);
    EXPECT_EQ(a[i].bytes_used, b[i].bytes_used);
    EXPECT_EQ(a[i].flops, b[i].flops);
    EXPECT_EQ(a[i].loads_stores, b[i].loads_stores);
    EXPECT_EQ(a[i].bytes_sent_received, b[i].bytes_sent_received);
    EXPECT_EQ(a[i].stack_distance, b[i].stack_distance);
    ASSERT_EQ(a[i].channels.size(), b[i].channels.size());
    for (const auto& [name, channel] : a[i].channels) {
      const auto it = b[i].channels.find(name);
      ASSERT_NE(it, b[i].channels.end()) << name;
      EXPECT_EQ(channel.bytes, it->second.bytes);
    }
  }
}

TEST(CampaignParallelTest, CsvBytesIdenticalAcrossThreadCounts) {
  // The reproducibility contract: the persisted campaign is byte-identical
  // no matter how many threads measured it — including channel columns and
  // the stack-distance values replicated across process counts.
  const auto& app = apps::application(apps::AppId::kMilc);
  const std::string serial =
      run_campaign(app, grid_with_threads(1)).to_csv().to_string();
  const std::string threaded =
      run_campaign(app, grid_with_threads(8)).to_csv().to_string();
  EXPECT_EQ(serial, threaded);
}

TEST(CampaignParallelTest, MeasurementsMatchSerialReference) {
  const auto& app = apps::application(apps::AppId::kKripke);
  const CampaignData serial = run_campaign(app, grid_with_threads(1));
  const CampaignData threaded = run_campaign(app, grid_with_threads(8));
  EXPECT_EQ(serial.app_name, threaded.app_name);
  expect_measurements_equal(serial.measurements, threaded.measurements);
}

TEST(CampaignParallelTest, StackDistanceSharedPerProblemSize) {
  const auto& app = apps::application(apps::AppId::kLulesh);
  const CampaignData data = run_campaign(app, grid_with_threads(4));
  for (const AppMeasurement& m : data.measurements) {
    EXPECT_GT(m.stack_distance, 0.0);
    for (const AppMeasurement& other : data.measurements) {
      if (m.problem_size == other.problem_size) {
        EXPECT_EQ(m.stack_distance, other.stack_distance);
      }
    }
  }
}

TEST(CampaignParallelTest,
     EveryAppCsvIdenticalAcrossThreadsCheckpointAndResume) {
  // The persisted campaign of every bundled application is the same bytes
  // whether it ran on one thread or two, wrote a fresh checkpoint, or was
  // resumed from a checkpoint that already holds every grid point.
  auto& resumed_points = obs::MetricRegistry::instance().counter(
      "campaign.checkpoint.points_resumed");
  for (const apps::AppId id : apps::all_app_ids()) {
    const apps::Application& app = apps::application(id);
    CampaignConfig config;
    config.process_counts = {2, 4};
    config.problem_sizes = {32, 64};
    const auto csv = [&](std::size_t threads) {
      config.threads = threads;
      return run_campaign(app, config).to_csv().to_string();
    };
    const std::string serial = csv(1);
    EXPECT_EQ(csv(2), serial) << app.name() << ": threads 2";

    const std::string dir =
        ::testing::TempDir() + "exareq_campaign_every_app_" + app.name();
    std::filesystem::remove_all(dir);
    config.checkpoint.directory = dir;
    EXPECT_EQ(csv(1), serial) << app.name() << ": fresh checkpoint";
    config.checkpoint.resume = true;
    const std::uint64_t before = resumed_points.value();
    EXPECT_EQ(csv(1), serial) << app.name() << ": zero-remaining resume";
    EXPECT_EQ(resumed_points.value() - before, 4u) << app.name();
    std::filesystem::remove_all(dir);
  }
}

// An application that fails on one specific process count but measures
// normally everywhere else.
class FlakyApp final : public apps::Application {
 public:
  explicit FlakyApp(int failing_p) : failing_p_(failing_p) {}

  std::string name() const override { return "Flaky"; }
  std::string description() const override { return "fails at one p"; }
  std::string problem_size_meaning() const override { return "elements"; }
  std::int64_t min_problem_size() const override { return 1; }

  void run_rank(simmpi::Communicator& comm,
                instr::ProcessInstrumentation& instr,
                std::int64_t n) const override {
    if (comm.size() == failing_p_) {
      throw exareq::NumericError("Flaky: refusing p = " +
                                 std::to_string(failing_p_));
    }
    instr.count_flops(static_cast<std::uint64_t>(n));
    ran_.fetch_add(1);
  }

  void trace_locality(std::int64_t,
                      memtrace::TraceSink& sink) const override {
    const auto g = sink.register_group("g");
    for (int i = 0; i < 2000; ++i) sink.record(0x10 + (i % 4), g);
  }

  int completed_ranks() const { return ran_.load(); }

 private:
  int failing_p_;
  mutable std::atomic<int> ran_{0};
};

TEST(CampaignParallelTest, FailurePropagatesAndSparesIndependentWork) {
  // A failing grid point aborts the campaign with the first (serial-order)
  // error; grid points that do not depend on it still ran to completion.
  FlakyApp app(4);
  const CampaignConfig config = grid_with_threads(8);
  EXPECT_THROW(run_campaign(app, config), exareq::Error);
  // p = 2 and p = 8 measure fine at every n: 3 sizes x (2 + 8) ranks.
  EXPECT_EQ(app.completed_ranks(), 30);
}

TEST(CampaignParallelTest, SerialFailureMatchesParallelFailure) {
  FlakyApp serial_app(4);
  FlakyApp parallel_app(4);
  std::string serial_error;
  std::string parallel_error;
  try {
    run_campaign(serial_app, grid_with_threads(1));
  } catch (const exareq::Error& e) {
    serial_error = e.what();
  }
  try {
    run_campaign(parallel_app, grid_with_threads(8));
  } catch (const exareq::Error& e) {
    parallel_error = e.what();
  }
  EXPECT_FALSE(serial_error.empty());
  EXPECT_EQ(serial_error, parallel_error);
}

// An application that records the order in which its grid points are
// measured (rank 0 of each job notes its (p, n)).
class RecordingApp final : public apps::Application {
 public:
  std::string name() const override { return "Recording"; }
  std::string description() const override { return "records its points"; }
  std::string problem_size_meaning() const override { return "elements"; }
  std::int64_t min_problem_size() const override { return 1; }

  void run_rank(simmpi::Communicator& comm,
                instr::ProcessInstrumentation& instr,
                std::int64_t n) const override {
    instr.count_flops(static_cast<std::uint64_t>(n * comm.size()));
    instr.count_loads(static_cast<std::uint64_t>(40 * n));
    const simmpi::ChannelScope channel(comm, "sum");
    const std::vector<double> mine{static_cast<double>(n)};
    (void)comm.allreduce<double>(mine, simmpi::ops::Sum{});
    if (comm.rank() != 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    order_.emplace_back(comm.size(), n);
  }

  void trace_locality(std::int64_t n,
                      memtrace::TraceSink& sink) const override {
    const auto g = sink.register_group("g");
    for (std::int64_t i = 0; i < 40 * n; ++i) {
      sink.record(static_cast<std::uint64_t>(0x10 + i % n), g);
    }
  }

  std::vector<std::pair<int, std::int64_t>> order() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<std::pair<int, std::int64_t>> order_;
};

TEST(CampaignOrderTest, LargestGridPointIsMeasuredFirst) {
  // Tasks are created from the largest problem size down and, within one,
  // from the largest process count down — by value, so an unsorted grid
  // also starts with its largest point. Slots stay row-major in the grid's
  // own order, so the CSV does not depend on the order or the threads.
  CampaignConfig config;
  config.process_counts = {8, 2, 4};
  config.problem_sizes = {64, 16, 32};
  config.threads = 1;
  const RecordingApp serial_app;
  const CampaignData serial = run_campaign(serial_app, config);
  const std::vector<std::pair<int, std::int64_t>> expected{
      {8, 64}, {4, 64}, {2, 64}, {8, 32}, {4, 32},
      {2, 32}, {8, 16}, {4, 16}, {2, 16}};
  EXPECT_EQ(serial_app.order(), expected);

  ASSERT_EQ(serial.measurements.size(), 9u);
  for (std::size_t n_idx = 0; n_idx < 3; ++n_idx) {
    for (std::size_t p_idx = 0; p_idx < 3; ++p_idx) {
      const AppMeasurement& m = serial.measurements[n_idx * 3 + p_idx];
      EXPECT_EQ(m.processes, config.process_counts[p_idx]);
      EXPECT_EQ(m.problem_size, config.problem_sizes[n_idx]);
      EXPECT_GT(m.stack_distance, 0.0);
    }
  }

  config.threads = 4;
  const RecordingApp threaded_app;
  const CampaignData threaded = run_campaign(threaded_app, config);
  EXPECT_EQ(threaded_app.order().size(), 9u);
  EXPECT_EQ(serial.to_csv().to_string(), threaded.to_csv().to_string());
}

TEST(CampaignStreamTest, StreamedLocalityEqualsMaterializedForEveryApp) {
  // The streaming TraceSink path and the materialized-trace path must agree
  // bit for bit on the locality report of every bundled application.
  const memtrace::LocalityConfig config = LocalityOptions{}.config;
  for (const apps::AppId id : apps::all_app_ids()) {
    const apps::Application& app = apps::application(id);
    constexpr std::int64_t n = 96;

    memtrace::LocalityAnalyzer streamed(config);
    app.trace_locality(n, streamed);
    const memtrace::LocalityReport from_stream =
        streamed.finish(static_cast<double>(streamed.recorded()));

    const memtrace::AccessTrace trace = app.locality_trace(n);
    const memtrace::LocalityReport from_trace = memtrace::analyze_locality(
        trace, config, static_cast<double>(trace.size()));

    EXPECT_EQ(from_stream.trace_length, from_trace.trace_length) << app.name();
    EXPECT_EQ(from_stream.total_sampled, from_trace.total_sampled);
    EXPECT_EQ(from_stream.weighted_median_stack_distance,
              from_trace.weighted_median_stack_distance)
        << app.name();
    ASSERT_EQ(from_stream.groups.size(), from_trace.groups.size());
    for (std::size_t g = 0; g < from_stream.groups.size(); ++g) {
      EXPECT_EQ(from_stream.groups[g].name, from_trace.groups[g].name);
      EXPECT_EQ(from_stream.groups[g].samples, from_trace.groups[g].samples);
      EXPECT_EQ(from_stream.groups[g].median_stack_distance,
                from_trace.groups[g].median_stack_distance);
      EXPECT_EQ(from_stream.groups[g].median_reuse_distance,
                from_trace.groups[g].median_reuse_distance);
      EXPECT_EQ(from_stream.groups[g].estimated_accesses,
                from_trace.groups[g].estimated_accesses);
      EXPECT_EQ(from_stream.groups[g].reliable, from_trace.groups[g].reliable);
    }
  }
}

TEST(CampaignStreamTest, DisabledLocalityLeavesStackDistanceZero) {
  const auto& app = apps::application(apps::AppId::kKripke);
  CampaignConfig config = grid_with_threads(4);
  config.locality.enabled = false;
  const CampaignData data = run_campaign(app, config);
  for (const AppMeasurement& m : data.measurements) {
    EXPECT_EQ(m.stack_distance, 0.0);
  }
}

}  // namespace
}  // namespace exareq::pipeline
