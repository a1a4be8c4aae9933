// exareq_perfbench: the repository's end-to-end benchmark.
//
//   exareq_perfbench --workload pipeline|model|serve --seed N --seconds S
//                    --trace 0|1 [--reference DIR] [--work-dir DIR]
//                    [--commit ID]
//   exareq_perfbench --record-reference DIR
//
// Prints a stamp line (core count, build type, compiler, commit, seed), a
// details line, and as the last line one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
// the per-layer metrics with --trace 1. A traced run also writes its
// Chrome trace and per-span self times into the work directory. Exits 1
// when a correctness gate fails, 2 on a usage error.
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "gates.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  const auto result = std::to_chars(text, text + sizeof text, value);
  return std::string(text, result.ptr);
}

std::string json_metrics(const std::vector<MetricValue>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", \"" : "\"") + values[i].name + "\": {\"value\": " +
           json_number(values[i].value) + ", \"unit\": \"" + values[i].unit +
           "\"}";
  }
  return out + "}";
}

struct Args {
  RunConfig config;
  std::string reference_dir = "perfbench/reference";
  std::string commit = "unknown";
  std::string record_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.config.workload = value;
    else if (flag == "--seed") args.config.seed = std::stoull(value);
    else if (flag == "--seconds") args.config.seconds = std::stod(value);
    else if (flag == "--trace") args.config.trace = value == "1";
    else if (flag == "--reference") args.reference_dir = value;
    else if (flag == "--work-dir") args.config.work_dir = value;
    else if (flag == "--commit") args.commit = value;
    else if (flag == "--record-reference") args.record_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return args;
}

int record_reference(const Args& args) {
  RunConfig config = args.config;
  config.workload = "pipeline";
  config.seconds = 0;
  config.min_passes = 1;
  config.setup_repeats = 1;
  Reference reference;
  const RunResult result = run_pipeline(config, reference, true);
  if (result.failed > 0) {
    std::cerr << "record-reference: " << result.failed << " apps failed\n";
    return 1;
  }
  reference.save(args.record_dir);
  std::cerr << "wrote the reference for " << reference.csv_digests.size()
            << " apps to " << args.record_dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "usage error: " << error.what() << "\n";
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "warning: build type '" << build_type
              << "' is not Release; timings are not comparable\n";
  }
  try {
    if (!args.record_dir.empty()) return record_reference(args);

    RunConfig& config = args.config;
    const std::string stem =
        config.workload + "-seed" + std::to_string(config.seed) +
        (config.trace ? "-traced" : "");
    config.work_dir += "/" + stem;
    remove_tree(config.work_dir);
    make_dirs(config.work_dir);

    std::ostringstream stamp;
    stamp << "{\"stamp\": {\"workload\": \"" << config.workload
          << "\", \"seed\": " << config.seed << ", \"seconds\": "
          << json_number(config.seconds) << ", \"trace\": "
          << (config.trace ? 1 : 0) << ", \"nproc\": "
          << std::thread::hardware_concurrency() << ", \"build_type\": \""
          << build_type << "\", \"release\": "
          << (build_type == "Release" ? "true" : "false")
          << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"commit\": \""
          << args.commit << "\"}}";
    std::cout << stamp.str() << std::endl;

    const CpuTicks ticks_before = read_cpu_ticks();
    RunResult result;
    if (config.workload == "pipeline") {
      Reference reference = Reference::load(args.reference_dir);
      result = run_pipeline(config, reference, false);
    } else if (config.workload == "model") {
      result = run_model(config, Reference::load(args.reference_dir));
    } else if (config.workload == "serve") {
      result = run_serve(config);
    } else {
      std::cerr << "usage error: unknown workload '" << config.workload
                << "' (pipeline, model, serve)\n";
      return 2;
    }

    const CpuTicks ticks_after = read_cpu_ticks();
    const double ticks = ticks_after.total - ticks_before.total;
    result.detail("host_steal_share",
                  ticks > 0 ? (ticks_after.steal - ticks_before.steal) / ticks : 0.0,
                  "ratio");

    if (config.trace) {
      const std::string trace = write_trace_files(config.work_dir, stem);
      std::cerr << "wrote " << trace << " and its .selftime.json\n";
    }
    for (const std::string& failure : result.gate_failures) {
      std::cerr << "GATE FAILED: " << failure << "\n";
    }
    const std::string details = "{\"details\": " + json_metrics(result.details) +
                                ", \"end_to_end\": " + json_metrics(result.metrics) + "}";
    const std::string final_line =
        std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(result.attempted) +
        ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": " +
        json_metrics(config.trace ? result.layers : result.metrics) + "}";
    std::string raw = "{\"raw_ms\": {";
    for (const auto& [name, values] : result.raw_ms) {
      raw += (raw.back() == '{' ? "\"" : ", \"") + name + "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        raw += (i ? ", " : "") + json_number(values[i]);
      }
      raw += "]";
    }
    raw += "}}";
    std::ofstream(config.work_dir + "/" + stem + ".result.json")
        << stamp.str() << "\n" << details << "\n" << raw << "\n"
        << final_line << "\n";
    std::cout << details << "\n" << final_line << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
