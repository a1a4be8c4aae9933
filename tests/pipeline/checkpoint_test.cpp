// Checkpoint format and crash/resume behaviour of run_campaign. Suites are
// named Checkpoint*/Resume* so the ThreadSanitizer CI job can select them
// (see CMakePresets.json) alongside the Campaign* concurrency suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/campaign.hpp"
#include "support/error.hpp"

namespace exareq::pipeline {
namespace {

/// Fresh checkpoint directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "exareq_ckpt_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

AppMeasurement sample_measurement() {
  AppMeasurement m;
  m.processes = 8;
  m.problem_size = 256;
  m.bytes_used = 1.5e9;
  m.flops = 3.25e12;
  m.loads_stores = 7.125e11;
  m.bytes_sent_received = 2.5e8;
  m.stack_distance = 12345.678;
  m.channels["cg_allreduce"] = ChannelMeasurement{1.0e8, true, false, false};
  m.channels["halo"] = ChannelMeasurement{1.5e8, false, false, false};
  m.channels["setup_bcast"] = ChannelMeasurement{2.0e6, false, true, true};
  return m;
}

void expect_same_measurement(const AppMeasurement& a, const AppMeasurement& b) {
  EXPECT_EQ(a.processes, b.processes);
  EXPECT_EQ(a.problem_size, b.problem_size);
  // Bit-exact double equality is the whole point of the binary encoding.
  EXPECT_EQ(a.bytes_used, b.bytes_used);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.loads_stores, b.loads_stores);
  EXPECT_EQ(a.bytes_sent_received, b.bytes_sent_received);
  EXPECT_EQ(a.stack_distance, b.stack_distance);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (const auto& [name, channel] : a.channels) {
    ASSERT_TRUE(b.channels.count(name)) << name;
    const ChannelMeasurement& other = b.channels.at(name);
    EXPECT_EQ(channel.bytes, other.bytes);
    EXPECT_EQ(channel.uses_allreduce, other.uses_allreduce);
    EXPECT_EQ(channel.uses_bcast, other.uses_bcast);
    EXPECT_EQ(channel.uses_alltoall, other.uses_alltoall);
  }
}

CheckpointManifest sample_manifest() {
  CheckpointManifest manifest;
  manifest.app_name = "Kripke";
  manifest.process_counts = {2, 4, 8};
  manifest.problem_sizes = {32, 64};
  manifest.locality_enabled = true;
  manifest.sampler = {64, 512, 0};
  manifest.min_samples = 100;
  return manifest;
}

TEST(CheckpointTest, ManifestRoundTrip) {
  const CheckpointManifest manifest = sample_manifest();
  const CheckpointManifest parsed =
      CheckpointManifest::parse(manifest.serialize());
  EXPECT_TRUE(parsed.compatible_with(manifest));
  EXPECT_TRUE(manifest.compatible_with(parsed));
  EXPECT_EQ(parsed.slot_count(), 6u);
  EXPECT_EQ(parsed.serialize(), manifest.serialize());
}

TEST(CheckpointTest, ManifestRejectsTamperedBytes) {
  const std::string clean = sample_manifest().serialize();
  // Flip one byte at a time; the self-checksum must catch every position.
  for (std::size_t i = 0; i < clean.size(); i += 7) {
    std::string damaged = clean;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    if (damaged == clean) continue;
    EXPECT_THROW(CheckpointManifest::parse(damaged), CheckpointError)
        << "byte " << i;
  }
  EXPECT_THROW(CheckpointManifest::parse(""), CheckpointError);
  EXPECT_THROW(CheckpointManifest::parse("not a manifest"), CheckpointError);
}

TEST(CheckpointTest, ManifestCompatibilityNamesTheDifferingField) {
  const CheckpointManifest base = sample_manifest();
  const auto expect_mismatch = [&](CheckpointManifest changed,
                                   const std::string& field) {
    std::string why;
    EXPECT_FALSE(base.compatible_with(changed, &why));
    EXPECT_NE(why.find(field), std::string::npos) << why;
  };
  CheckpointManifest app = base;
  app.app_name = "LULESH";
  expect_mismatch(app, "app");
  CheckpointManifest processes = base;
  processes.process_counts = {2, 4};
  expect_mismatch(processes, "process");
  CheckpointManifest sizes = base;
  sizes.problem_sizes = {32, 64, 128};
  expect_mismatch(sizes, "problem-size");
  CheckpointManifest locality = base;
  locality.locality_enabled = false;
  expect_mismatch(locality, "locality");
  CheckpointManifest sampler = base;
  sampler.sampler = {64, 2048, 0};
  expect_mismatch(sampler, "sampler");
  CheckpointManifest samples = base;
  samples.min_samples = 200;
  expect_mismatch(samples, "min_samples");
}

TEST(CheckpointTest, RecordRoundTripIsBitExact) {
  const AppMeasurement m = sample_measurement();
  const std::string record = encode_record(7, m);
  const CheckpointLoadResult load = scan_records(record, 16);
  EXPECT_EQ(load.valid_records, 1u);
  EXPECT_EQ(load.valid_bytes, record.size());
  EXPECT_EQ(load.dropped_tail_bytes, 0u);
  ASSERT_EQ(load.slots.size(), 1u);
  ASSERT_TRUE(load.slots.count(7));
  expect_same_measurement(m, load.slots.at(7));
}

TEST(CheckpointTest, ScanStopsAtFirstDamagedRecord) {
  const AppMeasurement m = sample_measurement();
  const std::string first = encode_record(0, m);
  const std::string second = encode_record(1, m);
  const std::string third = encode_record(2, m);
  std::string log = first + second + third;
  // Damage a payload byte of the middle record.
  log[first.size() + second.size() / 2] ^= 0x01;
  const CheckpointLoadResult load = scan_records(log, 16);
  EXPECT_EQ(load.valid_records, 1u);
  EXPECT_EQ(load.valid_bytes, first.size());
  EXPECT_EQ(load.dropped_tail_bytes, second.size() + third.size());
  EXPECT_TRUE(load.slots.count(0));
  EXPECT_FALSE(load.slots.count(1));
  EXPECT_FALSE(load.slots.count(2));
}

TEST(CheckpointTest, ScanHandlesTruncatedTail) {
  const AppMeasurement m = sample_measurement();
  const std::string first = encode_record(0, m);
  const std::string second = encode_record(1, m);
  const std::string log = first + second;
  for (std::size_t cut = first.size(); cut < log.size(); cut += 5) {
    const CheckpointLoadResult load =
        scan_records(std::string_view(log).substr(0, cut), 16);
    EXPECT_EQ(load.valid_records, 1u) << "cut " << cut;
    EXPECT_EQ(load.valid_bytes, first.size());
    EXPECT_EQ(load.dropped_tail_bytes, cut - first.size());
  }
}

TEST(CheckpointTest, ScanLastDuplicateWins) {
  AppMeasurement m = sample_measurement();
  const std::string first = encode_record(3, m);
  m.flops = 999.0;
  const std::string second = encode_record(3, m);
  const CheckpointLoadResult load = scan_records(first + second, 16);
  EXPECT_EQ(load.valid_records, 2u);
  EXPECT_EQ(load.duplicate_records, 1u);
  ASSERT_EQ(load.slots.size(), 1u);
  EXPECT_EQ(load.slots.at(3).flops, 999.0);
}

TEST(CheckpointTest, ScanRejectsOutOfRangeSlot) {
  // A record whose slot is outside the campaign grid would silently claim a
  // grid point that does not exist; the scanner must stop there.
  const std::string record = encode_record(12, sample_measurement());
  const CheckpointLoadResult load = scan_records(record, 4);
  EXPECT_EQ(load.valid_records, 0u);
  EXPECT_TRUE(load.slots.empty());
  EXPECT_EQ(load.dropped_tail_bytes, record.size());
}

TEST(CheckpointTest, WriterDiesAfterHookThrow) {
  const std::string dir = fresh_dir("writer_dies");
  std::filesystem::create_directories(dir);
  CheckpointOptions options;
  options.directory = dir;
  options.after_record = [](std::size_t) {
    throw exareq::Error("simulated crash");
  };
  CheckpointWriter writer(options, 0);
  EXPECT_THROW(writer.append(0, sample_measurement()), exareq::Error);
  // The first record is durable, but the writer is dead: nothing further
  // may reach the log after the simulated crash.
  EXPECT_THROW(writer.append(1, sample_measurement()), CheckpointError);
  const CheckpointLoadResult load =
      scan_records(read_file(checkpoint_log_path(dir)), 4);
  EXPECT_EQ(load.valid_records, 1u);
  EXPECT_TRUE(load.slots.count(0));
}

TEST(CheckpointTest, FreshCampaignPersistsEveryGridPoint) {
  const std::string dir = fresh_dir("fresh");
  const auto& app = apps::application(apps::AppId::kKripke);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;

  auto& counter = obs::MetricRegistry::instance().counter(
      "campaign.checkpoint.records_written");
  const std::uint64_t before = counter.value();
  const CampaignData data = run_campaign(app, config);
  EXPECT_EQ(counter.value() - before, 4u);

  const auto manifest = read_manifest(dir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->app_name, "Kripke");
  EXPECT_EQ(manifest->slot_count(), 4u);

  const CheckpointLoadResult load = load_records(dir, manifest->slot_count());
  EXPECT_EQ(load.valid_records, 4u);
  EXPECT_EQ(load.dropped_tail_bytes, 0u);
  ASSERT_EQ(load.slots.size(), 4u);
  for (const auto& [slot, m] : load.slots) {
    expect_same_measurement(data.measurements[slot], m);
  }
}

std::string clean_csv(const apps::Application& app, CampaignConfig config) {
  config.checkpoint = CheckpointOptions{};
  return run_campaign(app, config).to_csv().to_string();
}

TEST(ResumeTest, ZeroRemainingResumeIsByteIdentical) {
  const std::string dir = fresh_dir("zero_remaining");
  const auto& app = apps::application(apps::AppId::kLulesh);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;
  const std::string full = run_campaign(app, config).to_csv().to_string();

  config.checkpoint.resume = true;
  const std::string resumed = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(resumed, full);
  EXPECT_EQ(full, clean_csv(app, config));
}

TEST(ResumeTest, KillAndResumeIsByteIdentical) {
  const std::string dir = fresh_dir("kill_resume");
  const auto& app = apps::application(apps::AppId::kMilc);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;
  const std::string reference = clean_csv(app, config);

  config.checkpoint.after_record = [](std::size_t records) {
    if (records >= 2) throw exareq::Error("simulated kill");
  };
  EXPECT_THROW(run_campaign(app, config), exareq::Error);

  config.checkpoint.after_record = nullptr;
  config.checkpoint.resume = true;
  const std::string resumed = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(resumed, reference);
}

TEST(ResumeTest, ResumeTwiceIsByteIdentical) {
  const std::string dir = fresh_dir("resume_twice");
  const auto& app = apps::application(apps::AppId::kIcoFoam);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;
  const std::string reference = clean_csv(app, config);

  config.checkpoint.after_record = [](std::size_t records) {
    if (records >= 1) throw exareq::Error("first kill");
  };
  EXPECT_THROW(run_campaign(app, config), exareq::Error);

  config.checkpoint.resume = true;
  config.checkpoint.after_record = [](std::size_t records) {
    if (records >= 2) throw exareq::Error("second kill");
  };
  EXPECT_THROW(run_campaign(app, config), exareq::Error);

  config.checkpoint.after_record = nullptr;
  const std::string resumed = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(resumed, reference);
}

TEST(ResumeTest, ResumeAfterTailCorruptionRemeasuresDamagedPoints) {
  const std::string dir = fresh_dir("tail_corruption");
  const auto& app = apps::application(apps::AppId::kRelearn);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;
  const std::string full = run_campaign(app, config).to_csv().to_string();

  const std::string log_path = checkpoint_log_path(dir);
  std::string log = read_file(log_path);
  ASSERT_GT(log.size(), 10u);
  log[log.size() - 10] = static_cast<char>(log[log.size() - 10] ^ 0xFF);
  write_file(log_path, log);

  config.checkpoint.resume = true;
  const std::string resumed = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(resumed, full);
  // The damaged tail was truncated and the re-measured record appended, so
  // a second resume sees a fully clean log again.
  const CheckpointLoadResult load = load_records(dir, 4);
  EXPECT_EQ(load.dropped_tail_bytes, 0u);
  EXPECT_EQ(load.slots.size(), 4u);
}

TEST(ResumeTest, ResumeRejectsMismatchedCampaign) {
  const std::string dir = fresh_dir("mismatch");
  const auto& app = apps::application(apps::AppId::kKripke);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;
  run_campaign(app, config);

  config.checkpoint.resume = true;
  config.problem_sizes = {32, 64, 128};
  try {
    run_campaign(app, config);
    FAIL() << "mismatched resume must throw";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("problem-size"), std::string::npos)
        << e.what();
  }
}

TEST(ResumeTest, ThreadedCheckpointCampaignIsByteIdentical) {
  const std::string dir = fresh_dir("threaded");
  const auto& app = apps::application(apps::AppId::kMilc);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  const std::string reference = clean_csv(app, config);

  config.threads = 4;
  config.checkpoint.directory = dir;
  const std::string threaded = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(threaded, reference);

  config.checkpoint.resume = true;
  const std::string resumed = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(resumed, reference);
}

TEST(ResumeTest, ThreadedKillAndResumeIsByteIdentical) {
  // Under threads the kill lands at a nondeterministic point in the grid;
  // whatever prefix survived, the resume must complete it byte-identically.
  const std::string dir = fresh_dir("threaded_kill");
  const auto& app = apps::application(apps::AppId::kLulesh);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  const std::string reference = clean_csv(app, config);

  config.threads = 4;
  config.checkpoint.directory = dir;
  config.checkpoint.after_record = [](std::size_t records) {
    if (records >= 2) throw exareq::Error("threaded kill");
  };
  EXPECT_THROW(run_campaign(app, config), exareq::Error);

  config.checkpoint.after_record = nullptr;
  config.checkpoint.resume = true;
  const std::string resumed = run_campaign(app, config).to_csv().to_string();
  EXPECT_EQ(resumed, reference);
}

/// An application whose ranks fail at a chosen process count (0 disables).
class FaultyApp final : public apps::Application {
 public:
  explicit FaultyApp(int failing_p) : failing_p_(failing_p) {}
  std::string name() const override { return "Faulty"; }
  std::string description() const override { return "fails at one p"; }
  std::string problem_size_meaning() const override { return "units"; }

  void run_rank(simmpi::Communicator& comm,
                instr::ProcessInstrumentation& instr,
                std::int64_t n) const override {
    instr.count_flops(static_cast<std::uint64_t>(n));
    if (comm.size() == failing_p_ && comm.rank() == comm.size() - 1) {
      throw exareq::NumericError("injected failure");
    }
  }

  void trace_locality(std::int64_t, memtrace::TraceSink& sink) const override {
    const auto g = sink.register_group("g");
    for (int i = 0; i < 2000; ++i) sink.record(0x10 + (i % 4), g);
  }

 private:
  int failing_p_;
};

TEST(ResumeTest, FailingGridPointIsNamedAndCompletedPointsPersist) {
  // Regression for the partial-results gap: when one grid point throws, the
  // error must name the grid point, and every point that completed must
  // already be in the checkpoint — a resume with the failure fixed finishes
  // the campaign instead of starting over.
  const std::string dir = fresh_dir("faulty");
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  config.threads = 1;
  config.checkpoint.directory = dir;

  try {
    run_campaign(FaultyApp(4), config);
    FAIL() << "faulty campaign must throw";
  } catch (const exareq::NumericError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("measure p=4 n=64"), std::string::npos) << what;
    EXPECT_NE(what.find("injected failure"), std::string::npos) << what;
  }

  // The p=2 points (slots 0 and 2) completed and must be on disk.
  const CheckpointLoadResult load = load_records(dir, 4);
  EXPECT_EQ(load.slots.size(), 2u);
  EXPECT_TRUE(load.slots.count(0));
  EXPECT_TRUE(load.slots.count(2));

  // "Fix the app" and resume: only the failed points are re-measured and
  // the final CSV matches a clean run of the fixed app.
  config.checkpoint.resume = true;
  const FaultyApp fixed(0);
  const std::string resumed =
      run_campaign(fixed, config).to_csv().to_string();
  EXPECT_EQ(resumed, clean_csv(fixed, config));
}

}  // namespace
}  // namespace exareq::pipeline
