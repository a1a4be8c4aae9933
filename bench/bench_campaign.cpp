// Measurement-campaign benchmark: wall time and peak RSS of the full grid
// per application at several campaign thread counts, plus a streamed-vs-
// materialized comparison of the locality path (wall time, analyzer bytes,
// and the weighted median, which must be identical). Also sweeps the
// crash-safety path (cold vs checkpointed vs zero-remaining-resume wall
// time, CSV identity) and the compressed trace encoding against a trace of
// at least --compress-target accesses. Prints scaling tables and writes
// BENCH_campaign.json for trend tracking.
//
//   bench_campaign [--processes L] [--sizes L] [--threads-list L]
//                  [--locality-size N] [--compress-target N]
//                  [--out FILE] [--trace FILE]
//
// Note: campaign speedup is bounded by the machine's core count (each grid
// point runs its p simulated ranks as fibers on one campaign thread), so
// expect flat scaling on a single-core runner — the CSV-identity check still
// exercises the concurrent path.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <optional>

#include "apps/application.hpp"
#include "cli/cli.hpp"
#include "memtrace/compressed_trace.hpp"
#include "memtrace/locality.hpp"
#include "obs/trace.hpp"
#include "pipeline/campaign.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace exareq;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Process high-water RSS in kilobytes (monotone over the process life).
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct CampaignRun {
  std::size_t threads = 0;
  double seconds = 0.0;
  long peak_rss_kb = 0;
};

struct LocalityRun {
  double seconds = 0.0;
  std::size_t bytes = 0;
  double weighted_median = 0.0;
  std::size_t trace_length = 0;
};

struct CheckpointSweep {
  double cold_seconds = 0.0;        ///< no checkpointing at all
  double checkpoint_seconds = 0.0;  ///< fresh run, appending every point
  double resume_seconds = 0.0;      ///< resume with zero remaining points
  bool csv_identical = true;        ///< all three CSVs byte-identical

  double checkpoint_overhead() const {
    return cold_seconds > 0.0
               ? (checkpoint_seconds - cold_seconds) / cold_seconds
               : 0.0;
  }
  double resume_overhead() const {
    return cold_seconds > 0.0 ? resume_seconds / cold_seconds : 0.0;
  }
};

struct CompressionSweep {
  std::int64_t problem_size = 0;  ///< n grown until one pass stops growing
  std::size_t passes = 1;         ///< trace passes replayed to hit the target
  std::size_t trace_length = 0;
  std::size_t materialized_bytes = 0;  ///< AccessTrace (16 B per access)
  std::size_t streamed_bytes = 0;      ///< LocalityAnalyzer working memory
  std::size_t compressed_bytes = 0;    ///< delta+varint encoded stream
  std::size_t serialized_bytes = 0;    ///< full container with group table
  bool median_identical = true;        ///< analysis unchanged through codec
};

struct AppResult {
  std::string name;
  std::vector<CampaignRun> campaigns;
  bool csv_identical = true;
  LocalityRun streamed;
  LocalityRun materialized;
  CheckpointSweep checkpoint;
  CompressionSweep compression;
};

CheckpointSweep bench_checkpoint(const apps::Application& app,
                                 const pipeline::CampaignConfig& base) {
  CheckpointSweep sweep;
  pipeline::CampaignConfig config = base;
  config.threads = 1;

  auto timed_csv = [&](double& seconds) {
    const auto start = std::chrono::steady_clock::now();
    const pipeline::CampaignData data = pipeline::run_campaign(app, config);
    seconds = seconds_since(start);
    return data.to_csv().to_string();
  };

  const std::string cold = timed_csv(sweep.cold_seconds);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bench_campaign_ckpt_" + app.name()))
          .string();
  std::filesystem::remove_all(dir);
  config.checkpoint.directory = dir;
  const std::string checkpointed = timed_csv(sweep.checkpoint_seconds);

  config.checkpoint.resume = true;
  const std::string resumed = timed_csv(sweep.resume_seconds);
  std::filesystem::remove_all(dir);

  sweep.csv_identical = checkpointed == cold && resumed == cold;
  return sweep;
}

CompressionSweep bench_compression(const apps::Application& app,
                                   std::int64_t locality_size,
                                   std::int64_t compress_target) {
  // The proxies bound their locality working sets regardless of n, so one
  // pass tops out well short of a production-scale trace. Grow n until a
  // single pass stops getting longer, then replay whole passes (sinks dedup
  // group re-registration) until the stream reaches the target length.
  CompressionSweep sweep;
  std::int64_t n = locality_size;
  std::size_t pass_length = 0;
  {
    memtrace::CompressedTrace probe;
    app.trace_locality(n, probe);
    pass_length = probe.size();
  }
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (static_cast<std::int64_t>(pass_length) >= compress_target) break;
    memtrace::CompressedTrace probe;
    app.trace_locality(n * 2, probe);
    if (probe.size() <= pass_length) break;
    n *= 2;
    pass_length = probe.size();
  }
  exareq::require(pass_length > 0,
                  "bench_campaign: app produced an empty locality trace");
  sweep.passes = static_cast<std::size_t>(std::max<std::int64_t>(
      1, (compress_target + static_cast<std::int64_t>(pass_length) - 1) /
             static_cast<std::int64_t>(pass_length)));

  memtrace::CompressedTrace compressed;
  for (std::size_t pass = 0; pass < sweep.passes; ++pass) {
    app.trace_locality(n, compressed);
  }
  sweep.problem_size = n;
  sweep.trace_length = compressed.size();
  sweep.compressed_bytes = compressed.compressed_bytes();
  sweep.serialized_bytes = compressed.serialize().size();
  sweep.materialized_bytes = compressed.size() * sizeof(memtrace::Access);

  const memtrace::LocalityConfig config = pipeline::LocalityOptions{}.config;
  memtrace::LocalityAnalyzer direct(config);
  for (std::size_t pass = 0; pass < sweep.passes; ++pass) {
    app.trace_locality(n, direct);
  }
  const double total = static_cast<double>(direct.recorded());
  sweep.streamed_bytes = direct.memory_bytes();

  memtrace::LocalityAnalyzer via_codec(config);
  compressed.replay(via_codec);
  sweep.median_identical =
      direct.finish(total).weighted_median_stack_distance ==
      via_codec.finish(total).weighted_median_stack_distance;
  return sweep;
}

AppResult bench_app(apps::AppId id, const pipeline::CampaignConfig& base,
                    const std::vector<std::int64_t>& threads_list,
                    std::int64_t locality_size,
                    std::int64_t compress_target) {
  const apps::Application& app = apps::application(id);
  AppResult result;
  result.name = app.name();

  std::string reference_csv;
  for (const std::int64_t threads : threads_list) {
    pipeline::CampaignConfig config = base;
    config.threads = static_cast<std::size_t>(threads);
    const auto start = std::chrono::steady_clock::now();
    const pipeline::CampaignData data = pipeline::run_campaign(app, config);
    CampaignRun run;
    run.threads = config.threads;
    run.seconds = seconds_since(start);
    run.peak_rss_kb = peak_rss_kb();
    result.campaigns.push_back(run);
    const std::string csv = data.to_csv().to_string();
    if (reference_csv.empty()) {
      reference_csv = csv;
    } else if (csv != reference_csv) {
      result.csv_identical = false;
    }
  }

  const memtrace::LocalityConfig config = pipeline::LocalityOptions{}.config;
  {
    const auto start = std::chrono::steady_clock::now();
    memtrace::LocalityAnalyzer analyzer(config);
    app.trace_locality(locality_size, analyzer);
    const memtrace::LocalityReport report =
        analyzer.finish(static_cast<double>(analyzer.recorded()));
    result.streamed.seconds = seconds_since(start);
    result.streamed.bytes = analyzer.memory_bytes();
    result.streamed.weighted_median = report.weighted_median_stack_distance;
    result.streamed.trace_length = report.trace_length;
  }
  {
    const auto start = std::chrono::steady_clock::now();
    const memtrace::AccessTrace trace = app.locality_trace(locality_size);
    memtrace::LocalityAnalyzer analyzer(config);
    trace.replay(analyzer);
    const memtrace::LocalityReport report =
        analyzer.finish(static_cast<double>(trace.size()));
    result.materialized.seconds = seconds_since(start);
    result.materialized.bytes = trace.memory_bytes() + analyzer.memory_bytes();
    result.materialized.weighted_median =
        report.weighted_median_stack_distance;
    result.materialized.trace_length = report.trace_length;
  }
  result.checkpoint = bench_checkpoint(app, base);
  result.compression = bench_compression(app, locality_size, compress_target);
  return result;
}

std::string flag_value(const std::vector<std::string>& args,
                       const std::string& name, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--" + name) return args[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  pipeline::CampaignConfig base;
  base.process_counts.clear();
  for (const std::int64_t p :
       cli::parse_int_list(flag_value(args, "processes", "2,4,8,16"))) {
    base.process_counts.push_back(static_cast<int>(p));
  }
  base.problem_sizes = cli::parse_int_list(
      flag_value(args, "sizes", "32,64,128,256"));
  const std::vector<std::int64_t> threads_list =
      cli::parse_int_list(flag_value(args, "threads-list", "1,2,4,8"));
  const std::int64_t locality_size =
      std::stoll(flag_value(args, "locality-size", "4096"));
  const std::int64_t compress_target =
      std::stoll(flag_value(args, "compress-target", "1000000"));
  const std::string out_path = flag_value(args, "out", "BENCH_campaign.json");
  const std::string trace_path = flag_value(args, "trace", "");
  std::optional<obs::TraceGuard> trace;
  if (!trace_path.empty()) trace.emplace(trace_path);

  std::cout << "campaign benchmark: " << base.process_counts.size() << " x "
            << base.problem_sizes.size() << " grid, hardware threads = "
            << ThreadPool::hardware_threads() << "\n";

  std::vector<AppResult> results;
  for (const apps::AppId id : apps::all_app_ids()) {
    results.push_back(
        bench_app(id, base, threads_list, locality_size, compress_target));
    const AppResult& r = results.back();

    TextTable table({"Threads", "Seconds", "Speedup", "Peak RSS [MB]"});
    table.set_alignment(
        {Align::kRight, Align::kRight, Align::kRight, Align::kRight});
    for (const CampaignRun& run : r.campaigns) {
      table.add_row({std::to_string(run.threads),
                     format_fixed(run.seconds, 3),
                     format_fixed(r.campaigns.front().seconds / run.seconds, 2)
                         + "x",
                     format_fixed(static_cast<double>(run.peak_rss_kb) / 1024.0,
                                  1)});
    }
    std::cout << '\n' << r.name
              << (r.csv_identical ? " (CSV identical across thread counts)"
                                  : " (CSV MISMATCH!)")
              << '\n'
              << table.render();
    std::cout << "locality n = " << locality_size << ": streamed "
              << format_fixed(r.streamed.seconds, 3) << " s / "
              << r.streamed.bytes << " B, materialized "
              << format_fixed(r.materialized.seconds, 3) << " s / "
              << r.materialized.bytes << " B, weighted median "
              << format_compact(r.streamed.weighted_median)
              << (r.streamed.weighted_median == r.materialized.weighted_median
                      ? " (equal)"
                      : " (MISMATCH!)")
              << '\n';
    std::cout << "checkpoint: cold "
              << format_fixed(r.checkpoint.cold_seconds, 3) << " s, with log "
              << format_fixed(r.checkpoint.checkpoint_seconds, 3)
              << " s (overhead "
              << format_fixed(100.0 * r.checkpoint.checkpoint_overhead(), 1)
              << "%), zero-remaining resume "
              << format_fixed(r.checkpoint.resume_seconds, 3) << " s ("
              << format_fixed(100.0 * r.checkpoint.resume_overhead(), 1)
              << "% of cold)"
              << (r.checkpoint.csv_identical ? "" : " (CSV MISMATCH!)")
              << '\n';
    std::cout << "compression at n = " << r.compression.problem_size << " x "
              << r.compression.passes << " passes ("
              << r.compression.trace_length << " accesses): materialized "
              << r.compression.materialized_bytes << " B, streamed analyzer "
              << r.compression.streamed_bytes << " B, compressed "
              << r.compression.compressed_bytes << " B ("
              << format_fixed(static_cast<double>(r.compression.streamed_bytes) /
                                  static_cast<double>(
                                      r.compression.compressed_bytes),
                              1)
              << "x vs streamed)"
              << (r.compression.median_identical ? "" : " (MEDIAN MISMATCH!)")
              << '\n';
    exareq::require(r.csv_identical,
                    "bench_campaign: CSV differs across thread counts");
    exareq::require(
        r.streamed.weighted_median == r.materialized.weighted_median,
        "bench_campaign: streamed and materialized medians differ");
    exareq::require(r.checkpoint.csv_identical,
                    "bench_campaign: checkpointed/resumed CSV differs from "
                    "the cold run");
    exareq::require(r.compression.median_identical,
                    "bench_campaign: locality analysis changed through the "
                    "compressed codec");
  }

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"campaign\",\n"
       << "  \"hardware_threads\": " << ThreadPool::hardware_threads() << ",\n"
       << "  \"grid\": {\"process_counts\": " << base.process_counts.size()
       << ", \"problem_sizes\": " << base.problem_sizes.size() << "},\n"
       << "  \"locality_size\": " << locality_size << ",\n"
       << "  \"apps\": [\n";
  for (std::size_t a = 0; a < results.size(); ++a) {
    const AppResult& r = results[a];
    json << "    {\"app\": \"" << r.name << "\", \"csv_identical\": "
         << (r.csv_identical ? "true" : "false") << ",\n"
         << "     \"campaign\": [";
    for (std::size_t i = 0; i < r.campaigns.size(); ++i) {
      const CampaignRun& run = r.campaigns[i];
      json << (i ? ", " : "") << "{\"threads\": " << run.threads
           << ", \"seconds\": " << run.seconds
           << ", \"peak_rss_kb\": " << run.peak_rss_kb << '}';
    }
    json << "],\n"
         << "     \"locality\": {\"trace_length\": "
         << r.streamed.trace_length
         << ", \"weighted_median\": " << r.streamed.weighted_median
         << ",\n       \"streamed\": {\"seconds\": " << r.streamed.seconds
         << ", \"bytes\": " << r.streamed.bytes
         << "},\n       \"materialized\": {\"seconds\": "
         << r.materialized.seconds
         << ", \"bytes\": " << r.materialized.bytes << "}},\n"
         << "     \"checkpoint\": {\"cold_seconds\": "
         << r.checkpoint.cold_seconds
         << ", \"checkpoint_seconds\": " << r.checkpoint.checkpoint_seconds
         << ", \"resume_seconds\": " << r.checkpoint.resume_seconds
         << ",\n       \"checkpoint_overhead\": "
         << r.checkpoint.checkpoint_overhead()
         << ", \"resume_overhead\": " << r.checkpoint.resume_overhead()
         << ", \"csv_identical\": "
         << (r.checkpoint.csv_identical ? "true" : "false") << "},\n"
         << "     \"compression\": {\"problem_size\": "
         << r.compression.problem_size
         << ", \"passes\": " << r.compression.passes
         << ", \"trace_length\": " << r.compression.trace_length
         << ",\n       \"materialized_bytes\": "
         << r.compression.materialized_bytes
         << ", \"streamed_bytes\": " << r.compression.streamed_bytes
         << ", \"compressed_bytes\": " << r.compression.compressed_bytes
         << ",\n       \"serialized_bytes\": " << r.compression.serialized_bytes
         << ", \"median_identical\": "
         << (r.compression.median_identical ? "true" : "false") << "}}"
         << (a + 1 < results.size() ? "," : "") << '\n';
  }
  json << "  ]\n}\n";
  std::ofstream(out_path) << json.str();
  std::cout << "\nwrote " << out_path << '\n';
  if (trace.has_value()) {
    trace->finish();
    std::cout << "wrote " << trace->spans_written() << " trace spans to "
              << trace->path() << '\n';
  }
  return 0;
}
