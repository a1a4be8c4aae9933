#include "cli/cli.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../serve/serve_test_util.hpp"
#include "model/serialize.hpp"
#include "serve/frontend.hpp"
#include "serve/sharded_server.hpp"
#include "support/error.hpp"

namespace exareq::cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Small grid so CLI tests stay fast.
const std::vector<std::string> kSmallGrid = {"--processes", "2,4,8", "--sizes",
                                             "32,64,128"};

std::vector<std::string> with_grid(std::vector<std::string> args) {
  args.insert(args.end(), kSmallGrid.begin(), kSmallGrid.end());
  return args;
}

TEST(CliTest, NoArgumentsPrintsUsageAndFails) {
  const CliRun result = run({});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliRun result = run({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("usage:"), std::string::npos);
}

TEST(CliTest, ListShowsAllApps) {
  const CliRun result = run({"list"});
  EXPECT_EQ(result.exit_code, 0);
  for (const char* name : {"Kripke", "LULESH", "MILC", "Relearn", "icoFoam"}) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(CliTest, UnknownCommandFailsWithMessage) {
  const CliRun result = run({"frobnicate"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownAppFails) {
  const CliRun result = run({"measure", "nbody"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown application"), std::string::npos);
}

TEST(CliTest, FlagWithoutValueFails) {
  const CliRun result = run({"measure", "Kripke", "--out"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("needs a value"), std::string::npos);
}

TEST(CliTest, MeasureCheckpointAndResumeProduceIdenticalCsv) {
  const std::string dir = ::testing::TempDir() + "exareq_cli_ckpt";
  std::filesystem::remove_all(dir);
  const CliRun clean = run(with_grid({"measure", "Kripke"}));
  ASSERT_EQ(clean.exit_code, 0);

  const CliRun checkpointed =
      run(with_grid({"measure", "Kripke", "--checkpoint", dir}));
  EXPECT_EQ(checkpointed.exit_code, 0);
  EXPECT_EQ(checkpointed.out, clean.out);
  EXPECT_TRUE(std::filesystem::exists(dir + "/manifest"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/records.log"));

  const CliRun resumed =
      run(with_grid({"measure", "Kripke", "--checkpoint", dir, "--resume"}));
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.out, clean.out);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, ResumeWithoutCheckpointFails) {
  const CliRun result = run(with_grid({"measure", "Kripke", "--resume"}));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--checkpoint"), std::string::npos);
}

TEST(CliTest, ResumeRejectsMismatchedGrid) {
  const std::string dir = ::testing::TempDir() + "exareq_cli_ckpt_mismatch";
  std::filesystem::remove_all(dir);
  const CliRun first =
      run(with_grid({"measure", "Kripke", "--checkpoint", dir}));
  ASSERT_EQ(first.exit_code, 0);
  const CliRun mismatched =
      run({"measure", "Kripke", "--checkpoint", dir, "--resume",
           "--processes", "2,4", "--sizes", "32,64"});
  EXPECT_EQ(mismatched.exit_code, 1);
  EXPECT_NE(mismatched.err.find("different campaign"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CliTest, MeasureSamplingPresetChangesLocality) {
  // Sparser sampling thins the distance statistics, so the stack-distance
  // column may change — but the command must succeed for every preset and
  // reject unknown names.
  for (const char* preset : {"exact", "balanced", "sparse", "minimal"}) {
    const CliRun result =
        run(with_grid({"measure", "Kripke", "--sampling", preset}));
    EXPECT_EQ(result.exit_code, 0) << preset;
  }
  const CliRun bad =
      run(with_grid({"measure", "Kripke", "--sampling", "turbo"}));
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.err.find("--sampling"), std::string::npos);
}

TEST(CliTest, LocalityAcceptsSamplingPreset) {
  const CliRun result =
      run({"locality", "MILC", "--size", "128", "--sampling", "exact"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("Weighted median stack distance"),
            std::string::npos);
}

TEST(CliTest, MeasureWritesCsvToStdout) {
  const CliRun result = run(with_grid({"measure", "Kripke"}));
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("p,n,bytes_used"), std::string::npos);
  // 3 x 3 grid -> header + 9 rows.
  EXPECT_EQ(std::count(result.out.begin(), result.out.end(), '\n'), 10);
}

TEST(CliTest, MeasureThenAnalyzeFromFile) {
  const std::string path = "/tmp/exareq_cli_test_campaign.csv";
  // Five values per axis so the model generator accepts the campaign.
  const CliRun measured =
      run({"measure", "Kripke", "--processes", "2,4,8,16,32", "--sizes",
           "16,32,64,128,256", "--out", path});
  ASSERT_EQ(measured.exit_code, 0) << measured.err;

  const CliRun modeled = run({"model", "Kripke", "--in", path});
  EXPECT_EQ(modeled.exit_code, 0) << modeled.err;
  EXPECT_NE(modeled.out.find("#FLOP"), std::string::npos);
  EXPECT_NE(modeled.out.find("face_exchange"), std::string::npos);
  // Loading from a file must not re-measure.
  EXPECT_EQ(modeled.err.find("[measuring"), std::string::npos);

  // The engine observability block is part of the model report.
  EXPECT_NE(modeled.out.find("Engine stats:"), std::string::npos);
  EXPECT_NE(modeled.out.find("Hypotheses"), std::string::npos);
  EXPECT_NE(modeled.out.find("CV solves"), std::string::npos);
  EXPECT_NE(modeled.out.find("Total (threads="), std::string::npos);

  // --threads 1 selects the same models as the default pool.
  const CliRun serial =
      run({"model", "Kripke", "--in", path, "--threads", "1"});
  EXPECT_EQ(serial.exit_code, 0) << serial.err;
  const auto models_prefix = [](const std::string& text) {
    return text.substr(0, text.find("Engine stats:"));
  };
  EXPECT_EQ(models_prefix(serial.out), models_prefix(modeled.out));

  const CliRun upgraded = run({"upgrade", "Kripke", "--in", path});
  EXPECT_EQ(upgraded.exit_code, 0) << upgraded.err;
  EXPECT_NE(upgraded.out.find("Double the racks"), std::string::npos);

  const CliRun strawman = run({"strawman", "Kripke", "--in", path});
  EXPECT_EQ(strawman.exit_code, 0) << strawman.err;
  EXPECT_NE(strawman.out.find("Massively parallel"), std::string::npos);
  EXPECT_NE(strawman.out.find("yes"), std::string::npos);

  std::remove(path.c_str());
}

TEST(CliTest, UpgradeRejectsANonFiniteBaseline) {
  // `inf` passes a `>= 1` check; the study then printed a table of NaNs
  // and exited 0. A finite 1e300 processes overflows Kripke's n * p
  // loads/stores model, which printed `inf` in the table and exited 0.
  const std::string path = "/tmp/exareq_cli_upgrade_inf_" +
                           std::to_string(::getpid()) + ".csv";
  const CliRun measured =
      run({"measure", "Kripke", "--processes", "2,4,8,16,32", "--sizes",
           "16,32,64,128,256", "--out", path});
  ASSERT_EQ(measured.exit_code, 0) << measured.err;
  const std::pair<const char*, const char*> baselines[] = {
      {"--base-processes", "inf"},
      {"--base-memory", "inf"},
      {"--base-processes", "1e300"}};
  for (const auto& [flag, value] : baselines) {
    const CliRun upgraded =
        run({"upgrade", "Kripke", "--in", path, flag, value});
    EXPECT_EQ(upgraded.exit_code, 1) << flag << ' ' << value;
    EXPECT_NE(upgraded.err.find("must be finite"), std::string::npos)
        << upgraded.err;
    EXPECT_EQ(upgraded.out, "") << flag << ' ' << value;
  }
  std::remove(path.c_str());
}

TEST(CliTest, ModelsOutWritesSerializedModels) {
  const std::string path = "/tmp/exareq_cli_test_models.txt";
  const CliRun result = run({"model", "Kripke", "--processes", "2,4,8,16,32",
                             "--sizes", "16,32,64,128,256", "--models-out",
                             path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("model v1"), std::string::npos);
  EXPECT_NE(content.str().find("# footprint"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, LocalityReportsGroups) {
  const CliRun result = run({"locality", "MILC", "--size", "256"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("lattice_sweep"), std::string::npos);
  EXPECT_NE(result.out.find("Weighted median stack distance"),
            std::string::npos);
}

TEST(CliTest, LocalityRejectsFlagsItDoesNotRead) {
  // An unknown flag, and one another command reads, are errors rather than
  // silently ignored.
  for (const char* flag : {"--bogus-flag", "--threads"}) {
    const CliRun result =
        run({"locality", "lulesh", "--size", "64", flag, "7"});
    EXPECT_EQ(result.exit_code, 1) << flag;
    EXPECT_NE(result.err.find(std::string("does not accept ") + flag),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out, "") << flag;
  }
}

TEST(CliTest, LocalitySizeIsParsedAsAnInteger) {
  // "64.9" must not run n = 64, and "1e30" must not wrap through an
  // out-of-range double-to-integer cast.
  for (const char* bad : {"64.9", "1e30", "99999999999999999999"}) {
    const CliRun result = run({"locality", "lulesh", "--size", bad});
    EXPECT_EQ(result.exit_code, 1) << bad;
    EXPECT_NE(result.err.find("--size expects an integer"), std::string::npos)
        << result.err;
  }
  const CliRun zero = run({"locality", "lulesh", "--size", "0"});
  EXPECT_EQ(zero.exit_code, 1);
  EXPECT_NE(zero.err.find("--size must be >= 1"), std::string::npos);
}

TEST(CliTest, FittingCommandsRejectAnUnfittableGridBeforeMeasuring) {
  // The model generator needs five distinct values per axis; parse_int_list
  // accepts two, so a three-value grid once measured the whole campaign
  // and only then failed in the fitter.
  for (const char* command : {"model", "upgrade", "strawman"}) {
    const CliRun result = run(with_grid({command, "Kripke"}));
    EXPECT_EQ(result.exit_code, 1) << command;
    EXPECT_NE(result.err.find("grid axis p (--processes) has 3 distinct "
                              "values; fitting a model needs at least 5"),
              std::string::npos)
        << command << ": " << result.err;
    EXPECT_EQ(result.err.find("[measuring"), std::string::npos)
        << command << ": " << result.err;
    EXPECT_EQ(result.out, "") << command;
  }
  const CliRun sizes = run({"model", "Kripke", "--processes", "2,4,8,16,32",
                            "--sizes", "32,64"});
  EXPECT_EQ(sizes.exit_code, 1);
  EXPECT_NE(sizes.err.find("grid axis n (--sizes) has 2 distinct values"),
            std::string::npos)
      << sizes.err;
  EXPECT_EQ(sizes.err.find("[measuring"), std::string::npos) << sizes.err;
  // `measure` alone keeps the two-value rule.
  EXPECT_EQ(run({"measure", "Kripke", "--processes", "2,4", "--sizes",
                 "32,64"})
                .exit_code,
            0);
}

TEST(CliTest, MissingInputFileFails) {
  const CliRun result = run({"model", "Kripke", "--in", "/nonexistent.csv"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, ThreadsFlagRejectsBadValues) {
  for (const char* bad : {"-1", "1.5", "many"}) {
    const CliRun result = run({"model", "Kripke", "--in", "/nonexistent.csv",
                               "--threads", bad});
    EXPECT_EQ(result.exit_code, 1) << bad;
    EXPECT_NE(result.err.find("--threads"), std::string::npos) << bad;
  }
}

TEST(CliTest, TraceFlagRejectsUnwritablePath) {
  // The path is validated before the campaign runs, so a typo'd directory
  // fails fast instead of after minutes of measurement.
  const CliRun result = run(
      with_grid({"measure", "Kripke", "--trace", "/nonexistent-dir/out.json"}));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cannot write trace file"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("/nonexistent-dir/out.json"), std::string::npos);
  // Fail-fast: no campaign output was produced.
  EXPECT_EQ(result.out.find("p,n,bytes_used"), std::string::npos);
}

TEST(CliTest, TraceFlagWritesChromeJson) {
  const std::string path = "/tmp/exareq_cli_test_trace.json";
  const CliRun result =
      run(with_grid({"measure", "Kripke", "--trace", path}));
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.err.find("trace spans"), std::string::npos) << result.err;
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  const std::string json = content.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"cat\":\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"taskdag\""), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  std::remove(path.c_str());
}

TEST(CliTest, MetricsFlagDumpsRegistry) {
  const CliRun text = run(with_grid({"measure", "Kripke", "--metrics"}));
  ASSERT_EQ(text.exit_code, 0) << text.err;
  EXPECT_NE(text.out.find("campaign.grid_points"), std::string::npos)
      << text.out;
  EXPECT_NE(text.out.find("taskdag.tasks"), std::string::npos);

  const CliRun json = run(with_grid({"measure", "Kripke", "--metrics=json"}));
  ASSERT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("\"campaign.grid_points\":"), std::string::npos)
      << json.out;
}

TEST(CliTest, ParseIntList) {
  EXPECT_EQ(parse_int_list("4,8,16"), (std::vector<std::int64_t>{4, 8, 16}));
  // Unordered and duplicated input is sorted and deduplicated.
  EXPECT_EQ(parse_int_list("16,8,4,8"), (std::vector<std::int64_t>{4, 8, 16}));
  EXPECT_THROW(parse_int_list(""), exareq::InvalidArgument);
  EXPECT_THROW(parse_int_list("4,x"), exareq::InvalidArgument);
  EXPECT_THROW(parse_int_list("4,-2"), exareq::InvalidArgument);
  EXPECT_THROW(parse_int_list("4,,8"), exareq::InvalidArgument);
  // Fewer than 2 distinct values is a degenerate fit grid.
  EXPECT_THROW(parse_int_list("7"), exareq::InvalidArgument);
  EXPECT_THROW(parse_int_list("7,7,7"), exareq::InvalidArgument);
}

TEST(CliTest, ParseIntListRejectsFuzzShapedInput) {
  // Values from_chars cannot fully consume must be rejected, not silently
  // truncated: embedded whitespace, trailing separators, sign noise,
  // overflow, and zero (a zero grid axis is never valid).
  for (const char* bad : {" 4,8", "4 ,8", "4,8,", ",4,8", "4,+8", "0,4",
                          "4,8.0", "99999999999999999999,4", "4,0x10",
                          "4,8 16", "\t4,8"}) {
    EXPECT_THROW(parse_int_list(bad), exareq::InvalidArgument) << bad;
  }
}

TEST(CliTest, ThreadsFlagRejectsOverflowAndJunkSuffixes) {
  // from_chars-based validation: partial parses ("4x"), overflow, and
  // empty values must all fail with a message naming the flag.
  for (const char* bad : {"4x", "99999999999999999999", "", "0.5", "+-2"}) {
    const CliRun result = run({"model", "Kripke", "--in", "/nonexistent.csv",
                               "--threads", bad});
    EXPECT_EQ(result.exit_code, 1) << "'" << bad << "'";
    EXPECT_NE(result.err.find("threads"), std::string::npos) << result.err;
  }
}

/// Writes a synthetic model bundle file the registry can load, so serve
/// tests never measure or fit.
std::string write_bundle_file(const std::string& name) {
  const codesign::AppRequirements app =
      serve::testing::make_test_requirements(name);
  model::ModelBundle bundle;
  bundle.name = name;
  bundle.models = {{"footprint", app.footprint},
                   {"flops", app.flops},
                   {"comm_bytes", app.comm_bytes},
                   {"loads_stores", app.loads_stores},
                   {"stack_distance", app.stack_distance}};
  const std::string path = "/tmp/exareq_cli_" + name + "_" +
                           std::to_string(::getpid()) + ".models";
  std::ofstream file(path);
  file << model::serialize_bundle(bundle);
  return path;
}

TEST(CliTest, ServeAnswersRequestsFileAsOneShardedBatch) {
  const std::string lulesh = write_bundle_file("lulesh");
  const std::string hpcg = write_bundle_file("hpcg");
  const std::string requests = "/tmp/exareq_cli_requests_" +
                               std::to_string(::getpid()) + ".txt";
  {
    std::ofstream file(requests);
    file << "# comment lines and blanks are skipped\n"
         << "\n"
         << "eval lulesh flops 64 100\n"
         << "eval hpcg footprint 64 100\n"
         << "definitely not a verb\n"
         << "invert lulesh 65536 2147483648\n"
         << "status\n";
  }
  const CliRun result = run({"serve", "--models", lulesh + "," + hpcg,
                             "--requests", requests, "--workers", "3",
                             "--status"});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  std::vector<std::string> lines;
  std::stringstream stream(result.out);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 5u) << result.out;
  EXPECT_EQ(lines[0].rfind("ok eval ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok eval ", 0), 0u) << lines[1];
  // The malformed line answers in place without failing the batch.
  EXPECT_EQ(lines[2].rfind("error bad-request", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("ok invert ", 0), 0u) << lines[3];
  EXPECT_NE(lines[4].find("shards=3"), std::string::npos) << lines[4];
  // Every shard runs an online service; their counters are summed into
  // one set of online_* fields.
  EXPECT_NE(lines[4].find("online_rows="), std::string::npos) << lines[4];
  EXPECT_EQ(lines[4].find("online_rows="), lines[4].rfind("online_rows="))
      << lines[4];
  // --status appends the per-shard table, the per-model version table
  // (both bundles came from files) and one online table.
  EXPECT_NE(result.out.find("Shard"), std::string::npos);
  EXPECT_NE(result.out.find("Age [s]"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("| file "), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("rows ingested"), std::string::npos);
  EXPECT_EQ(result.out.find("rows ingested"),
            result.out.rfind("rows ingested"))
      << result.out;
  EXPECT_NE(result.err.find("across 3 shards"), std::string::npos)
      << result.err;
  std::remove(lulesh.c_str());
  std::remove(hpcg.c_str());
  std::remove(requests.c_str());
}

TEST(CliTest, ServeRejectsThreadsCheckpointAndResume) {
  // Each shard fits its apps on demand. One checkpoint directory cannot
  // hold several apps' campaigns (two shards once raced on its manifest),
  // and the fitter runs every campaign on one thread, so serve refuses
  // these three campaign flags up front and serves nothing.
  const std::string requests = "/tmp/exareq_cli_serve_flags_" +
                               std::to_string(::getpid()) + ".txt";
  {
    std::ofstream file(requests);
    file << "eval lulesh flops 64 1024\n"
         << "eval kripke flops 64 1024\n";
  }
  const std::string dir = ::testing::TempDir() + "exareq_cli_serve_ckpt_" +
                          std::to_string(::getpid());
  const std::vector<std::vector<std::string>> refused = {
      {"--checkpoint", dir},
      {"--threads", "2"},
      {"--checkpoint", dir, "--resume"}};
  for (const std::vector<std::string>& extra : refused) {
    std::vector<std::string> args = with_grid(
        {"serve", "--requests", requests, "--workers", "2"});
    args.insert(args.end(), extra.begin(), extra.end());
    const CliRun result = run(args);
    EXPECT_EQ(result.exit_code, 1) << extra[0];
    EXPECT_NE(result.err.find("does not accept " + extra[0]),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out, "") << extra[0];
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);

  // The grid flags of the fit-on-demand campaigns are accepted.
  const CliRun served =
      run({"serve", "--requests", requests, "--workers", "2", "--processes",
           "2,4,8,16,32", "--sizes", "16,32,64,128,256", "--sampling",
           "sparse"});
  EXPECT_EQ(served.exit_code, 0) << served.err;
  std::istringstream lines(served.out);
  std::string line;
  int answered = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("ok eval ", 0), 0u) << line;
    ++answered;
  }
  EXPECT_EQ(answered, 2);
  std::remove(requests.c_str());
}

TEST(CliTest, ServeRejectsAnUnfittableGridAtStartUp) {
  // Each fit-on-demand request would measure the campaign and then fail in
  // the fitter (three requests, three campaigns, three bad-request
  // answers); serve refuses the grid before serving anything.
  const std::string requests = "/tmp/exareq_cli_serve_grid_" +
                               std::to_string(::getpid()) + ".txt";
  {
    std::ofstream file(requests);
    for (int i = 0; i < 3; ++i) file << "eval kripke flops 64 1024\n";
  }
  const CliRun result = run(with_grid(
      {"serve", "--requests", requests, "--workers", "1", "--metrics"}));
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("grid axis p (--processes) has 3 distinct values"),
            std::string::npos)
      << result.err;
  EXPECT_EQ(result.out.find("error bad-request"), std::string::npos)
      << result.out;
  EXPECT_EQ(result.out.find("campaign.grid_points"), std::string::npos)
      << result.out;
  std::remove(requests.c_str());
}

TEST(CliTest, ServeWithoutSinkFailsWithMessage) {
  const CliRun result = run({"serve", "--workers", "2"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--requests FILE, --socket PATH, and/or --tcp"),
            std::string::npos)
      << result.err;
}

TEST(CliTest, QueryAnswersAMalformedRequestLineInPlace) {
  // `query --requests` sends the lines that parse as one binary frame and
  // answers each bad line in place, as `serve --requests` does.
  serve::ShardedServer server(serve::ShardedServerOptions{.shards = 2});
  server.insert(serve::testing::make_test_requirements("lulesh"));
  const std::string socket =
      "/tmp/exareq_cli_query_" + std::to_string(::getpid()) + ".sock";
  serve::FrontEnd front(server, serve::FrontEndOptions{.unix_path = socket});
  front.start();
  const std::string requests =
      "/tmp/exareq_cli_query_" + std::to_string(::getpid()) + ".txt";
  {
    std::ofstream file(requests);
    file << "# comment lines and blanks are skipped\n"
         << "\n"
         << "eval lulesh flops 64 100\n"
         << "definitely not a verb\n"
         << "eval lulesh footprint 64 inf\n"
         << "eval lulesh footprint 64 100\n";
  }
  const CliRun result =
      run({"query", "--socket", socket, "--requests", requests});
  EXPECT_EQ(result.exit_code, 1) << result.err;
  std::vector<std::string> lines;
  std::stringstream stream(result.out);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << result.out << result.err;
  EXPECT_EQ(lines[0], server.handle_line("eval lulesh flops 64 100"));
  EXPECT_EQ(lines[1].rfind("error bad-request: unknown request", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[2], "error bad-request: eval coordinates must be finite");
  EXPECT_EQ(lines[3], server.handle_line("eval lulesh footprint 64 100"));

  // Without the bad lines every answer is ok and the exit code is 0.
  {
    std::ofstream file(requests);
    file << "eval lulesh flops 64 100\n";
  }
  const CliRun clean =
      run({"query", "--socket", socket, "--requests", requests});
  EXPECT_EQ(clean.exit_code, 0) << clean.err;
  EXPECT_EQ(clean.out, lines[0] + "\n");
  front.stop();
  server.stop();
  std::remove(requests.c_str());
}

TEST(CliTest, QueryValidatesItsFlagCombinations) {
  // No transport.
  CliRun result = run({"query", "--request", "status"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--socket PATH or --tcp PORT"), std::string::npos)
      << result.err;
  // Both payload flags at once.
  result = run({"query", "--socket", "/tmp/nope.sock", "--request", "status",
                "--requests", "/tmp/nope.txt"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--request 'LINE' or"), std::string::npos)
      << result.err;
  // --binary with a line the client cannot encode fails client-side.
  result = run({"query", "--socket", "/tmp/nope.sock", "--binary",
                "--request", "not a verb"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("error:"), std::string::npos) << result.err;
}

}  // namespace
}  // namespace exareq::cli
