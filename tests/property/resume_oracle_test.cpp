// Resume-determinism oracle: a campaign killed at a random completed-point
// count (via the checkpoint after_record hook), resumed — possibly killed
// and resumed again, possibly with its log tail truncated between runs —
// must produce a CSV byte-identical to a single uninterrupted run. This is
// the crash-safety contract of pipeline/checkpoint.{hpp,cpp}: corruption
// and kills may cost re-measured work, never bytes of the final artifact.
//
// The companion fuzz suite mutates the on-disk formats themselves: the
// manifest parser must accept or throw exareq::Error, and the record
// scanner must never throw at all — damage only shortens its result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/application.hpp"
#include "pipeline/campaign.hpp"
#include "support/error.hpp"
#include "testkit/domain_gen.hpp"
#include "testkit/fuzz.hpp"
#include "testkit/gen.hpp"
#include "testkit/oracle.hpp"
#include "testkit/property.hpp"
#include "testkit/shrink.hpp"

namespace exareq::testkit {
namespace {

/// A randomly drawn kill/resume schedule over a small campaign grid.
struct ResumeCase {
  apps::AppId app = apps::AppId::kMilc;
  std::vector<int> process_counts;
  std::vector<std::int64_t> problem_sizes;
  bool locality = true;
  std::size_t threads = 1;
  /// Record counts at which successive runs are killed; a count beyond the
  /// grid size never fires, so that run completes (making the following
  /// resume a resume-with-zero-remaining). Empty = no kill at all.
  std::vector<std::size_t> kill_after;
  /// Bytes chopped off the record log before the final resume (tail
  /// truncation, as after a crash mid-append).
  std::size_t truncate_tail = 0;

  std::size_t slot_count() const {
    return process_counts.size() * problem_sizes.size();
  }

  pipeline::CampaignConfig config() const {
    pipeline::CampaignConfig config;
    config.process_counts = process_counts;
    config.problem_sizes = problem_sizes;
    config.locality.enabled = locality;
    config.threads = threads;
    return config;
  }

  std::string describe() const {
    std::string text = "resume{" + apps::app_name(app) + "; p";
    for (int p : process_counts) text += " " + std::to_string(p);
    text += "; n";
    for (std::int64_t n : problem_sizes) text += " " + std::to_string(n);
    text += locality ? "; locality on" : "; locality off";
    text += "; threads " + std::to_string(threads) + "; kills";
    if (kill_after.empty()) text += " none";
    for (std::size_t k : kill_after) text += " " + std::to_string(k);
    text += "; truncate " + std::to_string(truncate_tail) + "}";
    return text;
  }
};

Gen<ResumeCase> resume_case_gen() {
  return Gen<ResumeCase>([](Rng& rng) {
    ResumeCase c;
    const std::vector<apps::AppId> ids = apps::all_app_ids();
    c.app = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    for (const std::int64_t p : distinct_sorted_ints(2, 9, 2)(rng)) {
      c.process_counts.push_back(static_cast<int>(p));
    }
    const std::int64_t min_n = apps::application(c.app).min_problem_size();
    for (const std::int64_t step : distinct_sorted_ints(1, 4, 2)(rng)) {
      c.problem_sizes.push_back(min_n * step);
    }
    c.locality = rng.next_double() < 0.7;
    c.threads = static_cast<std::size_t>(rng.uniform_int(1, 4));
    // 0, 1, or 2 kills; thresholds may exceed the grid so a "kill" run can
    // complete and the next resume starts with zero remaining points.
    const std::int64_t kills = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < kills; ++i) {
      c.kill_after.push_back(static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(c.slot_count()) + 1)));
    }
    if (rng.next_double() < 0.4) {
      c.truncate_tail = static_cast<std::size_t>(rng.uniform_int(1, 24));
    }
    return c;
  });
}

Shrinker<ResumeCase> resume_case_shrinker() {
  return [](const ResumeCase& c) {
    std::vector<ResumeCase> candidates;
    if (!c.kill_after.empty()) {
      ResumeCase fewer_kills = c;
      fewer_kills.kill_after.pop_back();
      candidates.push_back(std::move(fewer_kills));
    }
    if (c.truncate_tail > 0) {
      ResumeCase no_truncate = c;
      no_truncate.truncate_tail = 0;
      candidates.push_back(std::move(no_truncate));
    }
    if (c.locality) {
      ResumeCase no_locality = c;
      no_locality.locality = false;
      candidates.push_back(std::move(no_locality));
    }
    if (c.threads > 1) {
      ResumeCase serial = c;
      serial.threads = 1;
      candidates.push_back(std::move(serial));
    }
    if (c.process_counts.size() > 1) {
      ResumeCase narrower = c;
      narrower.process_counts.pop_back();
      candidates.push_back(std::move(narrower));
    }
    if (c.problem_sizes.size() > 1) {
      ResumeCase smaller = c;
      smaller.problem_sizes.pop_back();
      candidates.push_back(std::move(smaller));
    }
    return candidates;
  };
}

std::atomic<std::uint64_t> dir_counter{0};

/// Plays the kill/resume schedule and returns the final CSV.
std::string killed_and_resumed_csv(const ResumeCase& c) {
  const std::string dir = ::testing::TempDir() + "exareq_resume_oracle_" +
                          std::to_string(dir_counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  pipeline::CampaignConfig config = c.config();
  config.checkpoint.directory = dir;

  const auto& app = apps::application(c.app);
  for (const std::size_t kill : c.kill_after) {
    config.checkpoint.after_record = [kill](std::size_t records) {
      if (records >= kill) throw exareq::Error("oracle kill");
    };
    try {
      pipeline::run_campaign(app, config);
    } catch (const exareq::Error&) {
      // The simulated crash; a threshold beyond the grid never fires and
      // the run completes instead.
    }
    config.checkpoint.resume = true;
  }

  if (c.truncate_tail > 0) {
    const std::string log = pipeline::checkpoint_log_path(dir);
    std::error_code ec;
    const auto size = std::filesystem::file_size(log, ec);
    if (!ec && size > 0) {
      std::filesystem::resize_file(
          log, size - std::min<std::uintmax_t>(size, c.truncate_tail));
    }
    config.checkpoint.resume = true;
  }

  config.checkpoint.after_record = nullptr;
  config.checkpoint.resume = true;
  const std::string csv =
      pipeline::run_campaign(app, config).to_csv().to_string();
  std::filesystem::remove_all(dir);
  return csv;
}

TEST(PropertyResumeOracleTest, KilledAndResumedCsvMatchesSingleShot) {
  const PropertyConfig config = property_config("resume-determinism", 100);
  DiffOracle<ResumeCase, std::string> oracle;
  oracle.fast = killed_and_resumed_csv;
  oracle.reference = [](const ResumeCase& c) {
    return pipeline::run_campaign(apps::application(c.app), c.config())
        .to_csv()
        .to_string();
  };
  oracle.diff = text_diff;
  const auto result = check_differential(config, resume_case_gen(),
                                         resume_case_shrinker(), oracle);
  EXPECT_TRUE(result.passed()) << result.report(
      [](const ResumeCase& c) { return c.describe(); });
}

// ---------------------------------------------------------------------------
// Mutation fuzzing of the on-disk formats.

FuzzConfig fuzz_config() {
  FuzzConfig config;
  config.seed = property_config("fuzz-checkpoint").seed;
  config.iterations = 5000;
  if (const char* seconds = std::getenv("EXAREQ_FUZZ_SECONDS")) {
    config.seconds = std::atof(seconds);
    if (config.seconds > 0.0) config.iterations = 0;
  }
  return config;
}

std::vector<std::string> manifest_corpus() {
  std::vector<std::string> corpus;
  pipeline::CheckpointManifest manifest;
  manifest.app_name = "Kripke";
  manifest.process_counts = {2, 4, 8, 16, 32};
  manifest.problem_sizes = {64, 128, 256};
  corpus.push_back(manifest.serialize());
  manifest.app_name = "MILC";
  manifest.locality_enabled = false;
  manifest.sampler = {64, 8192, 17};
  manifest.min_samples = 5;
  corpus.push_back(manifest.serialize());
  manifest.process_counts = {1};
  manifest.problem_sizes = {1};
  corpus.push_back(manifest.serialize());
  return corpus;
}

TEST(PropertyFuzzCheckpointTest, ManifestParseOrCleanError) {
  const auto outcome = fuzz_strings(
      fuzz_config(), mutated(manifest_corpus()), [](const std::string& input) {
        const pipeline::CheckpointManifest manifest =
            pipeline::CheckpointManifest::parse(input);
        (void)manifest.slot_count();
        (void)manifest.serialize();
      });
  EXPECT_TRUE(outcome.passed()) << outcome.summary();
  EXPECT_GT(outcome.rejected, 0u);
}

std::vector<std::string> record_corpus() {
  pipeline::AppMeasurement m;
  m.processes = 8;
  m.problem_size = 512;
  m.bytes_used = 1e9;
  m.flops = 2e12;
  m.loads_stores = 3e11;
  m.bytes_sent_received = 4e8;
  m.stack_distance = 1234.5;
  m.channels["cg_allreduce"] = {1e8, true, false, false};
  m.channels["halo"] = {2e8, false, false, false};
  std::vector<std::string> corpus;
  corpus.push_back(pipeline::encode_record(0, m));
  std::string log;
  for (std::uint32_t slot = 0; slot < 6; ++slot) {
    m.flops += 1.0;
    log += pipeline::encode_record(slot, m);
  }
  corpus.push_back(log);
  m.channels.clear();
  corpus.push_back(pipeline::encode_record(63, m) +
                   pipeline::encode_record(63, m));
  return corpus;
}

TEST(PropertyFuzzCheckpointTest, RecordScanNeverThrowsOrInventsPoints) {
  // scan_records must hold a stronger contract than parse-or-clean-error:
  // it never throws at all, and whatever it accepts must be a stable,
  // in-range prefix — re-scanning the validated prefix reproduces the same
  // result with nothing dropped (no record beyond the damage can sneak in).
  constexpr std::size_t kSlots = 64;
  const auto outcome = fuzz_strings(
      fuzz_config(), mutated(record_corpus()), [](const std::string& input) {
        const pipeline::CheckpointLoadResult load =
            pipeline::scan_records(input, kSlots);
        if (load.valid_bytes + load.dropped_tail_bytes != input.size()) {
          throw std::logic_error("prefix + tail != input size");
        }
        if (load.slots.size() > load.valid_records) {
          throw std::logic_error("more slots than validated records");
        }
        for (const auto& [slot, measurement] : load.slots) {
          (void)measurement;
          if (slot >= kSlots) throw std::logic_error("slot out of range");
        }
        const pipeline::CheckpointLoadResult again = pipeline::scan_records(
            std::string_view(input).substr(0, load.valid_bytes), kSlots);
        if (again.valid_records != load.valid_records ||
            again.dropped_tail_bytes != 0 ||
            again.slots.size() != load.slots.size()) {
          throw std::logic_error("validated prefix is not stable");
        }
      });
  EXPECT_TRUE(outcome.passed()) << outcome.summary();
  // Mutations must actually reach the damage paths (dropped tails).
  EXPECT_GT(outcome.accepted, 0u);
}

}  // namespace
}  // namespace exareq::testkit
