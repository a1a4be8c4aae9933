#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "codesign/strawman.hpp"
#include "codesign/upgrade.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace exareq;

pipeline::CampaignConfig RunConfig::campaign_config() const {
  pipeline::CampaignConfig config;
  config.process_counts = processes;
  config.problem_sizes = sizes;
  return config;
}

void RunResult::fail_gate(const std::string& why) {
  if (std::find(gate_failures.begin(), gate_failures.end(), why) ==
      gate_failures.end()) {
    gate_failures.push_back(why);
  }
}

void report_end_to_end(RunResult& result, double setup_s, double throughput,
                       double p50_ms) {
  result.metric("setup_s", setup_s, "s");
  result.metric("throughput", throughput, "1/s");
  result.metric("p50_ms", p50_ms, "ms");
  result.detail("peak_rss_mb", peak_rss_mb(), "MB");
}

void Layers::report(RunResult& result) const {
  const std::tuple<const char*, double, const char*> rows[] = {
      {"apps.measure_s", apps_measure_s, "s"},
      {"apps.measure_point_p90_ms", apps_measure_point_p90_ms, "ms"},
      {"simmpi.run_floor_s", simmpi_run_floor_s, "s"},
      {"simmpi.bytes", simmpi_bytes, "bytes"},
      {"instr.flops", instr_flops, "count"},
      {"instr.loads_stores", instr_loads_stores, "count"},
      {"memtrace.locality_s", memtrace_locality_s, "s"},
      {"memtrace.accesses", memtrace_accesses, "count"},
      {"campaign.wall_s", campaign_wall_s, "s"},
      {"campaign.overlap", campaign_overlap, "ratio"},
      {"checkpoint.append_ms", checkpoint_append_ms, "ms"},
      {"checkpoint.bytes", checkpoint_bytes, "bytes"},
      {"csv.parse_ms", csv_parse_ms, "ms"},
      {"model.fit_s", model_fit_s, "s"},
      {"model.hypotheses", model_hypotheses, "count"},
      {"model.cv_solves", model_cv_solves, "count"},
      {"model.qr_extensions", model_qr_extensions, "count"},
      {"model.downdates", model_downdates, "count"},
      {"model.cache_hit_ratio", model_cache_hit_ratio, "ratio"},
      {"model.cache_lookups", model_cache_lookups, "count"},
      {"codesign.studies_ms", codesign_studies_ms, "ms"},
      {"codesign.invert_us_p50", codesign_invert_us_p50, "us"},
      {"codesign.upgrade_us_p50", codesign_upgrade_us_p50, "us"},
      {"codesign.strawman_us_p50", codesign_strawman_us_p50, "us"},
      {"model.eval_us_p50", model_eval_us_p50, "us"},
      {"serve.cache_hit_ratio", serve_cache_hit_ratio, "ratio"},
      {"serve.cache_lookups", serve_cache_lookups, "count"},
      {"serve.batch_inproc_us_p50", serve_batch_inproc_us_p50, "us"},
      {"frontend.overhead_us_p50", frontend_overhead_us_p50, "us"},
      {"serve.shard_imbalance", serve_shard_imbalance, "ratio"},
      {"serve.errors", serve_errors, "count"},
      {"serve.shed", serve_shed, "count"},
      {"serve.deadline_drops", serve_deadline_drops, "count"},
      {"serve.stale_answers", serve_stale_answers, "count"},
      {"online.refits", online_refits, "count"},
      {"online.rows_ingested", online_rows_ingested, "count"},
      {"online.refit_ms_p50", online_refit_ms_p50, "ms"},
      {"online.rollbacks", online_rollbacks, "count"},
      {"ingest.p50_ms", ingest_p50_ms, "ms"},
      {"ingest.generator_late_ms_max", ingest_generator_late_ms_max, "ms"},
      {"obs.trace_overhead", obs_trace_overhead, "ratio"},
      {"failed_ratio",
       static_cast<double>(result.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
       "ratio"},
      {"process.peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const auto& [name, value, unit] : rows) result.layer(name, value, unit);
}

void Layers::set_engine_stats(const model::EngineStats& engine) {
  model_hypotheses = static_cast<double>(engine.hypotheses_scored);
  model_cv_solves = static_cast<double>(engine.cv_solves);
  model_qr_extensions = static_cast<double>(engine.qr_extensions);
  model_downdates = static_cast<double>(engine.downdates);
  model_cache_hit_ratio = engine.cache_hit_rate();
  model_cache_lookups = static_cast<double>(engine.hypotheses_scored +
                                            engine.basis_column_hits +
                                            engine.basis_columns_built);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(std::log(lo) + uniform() * (std::log(hi) - std::log(lo)));
}

std::size_t Rng::below(std::size_t bound) {
  return static_cast<std::size_t>(next() % bound);
}

std::string digest_hex(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

void run_studies(const codesign::AppRequirements& req) {
  // Baseline of `exareq upgrade`: 65536 processes with 2 GiB each.
  const codesign::SystemSkeleton base{65536.0, 2147483648.0};
  for (const auto& upgrade : codesign::paper_upgrades()) {
    try {
      (void)codesign::evaluate_upgrade(req, base, upgrade);
    } catch (const NumericError&) {
      // The app cannot fill this baseline: a result of the study.
    }
  }

  const std::vector<codesign::StrawmanSystem> paper = codesign::paper_strawmen();
  std::vector<codesign::StrawmanSystem> all = paper;
  for (auto& system : codesign::accelerator_strawmen()) all.push_back(system);
  for (const auto& system : all) (void)codesign::evaluate_strawman(req, system);

  // Wall-time lower bound on the paper's common benchmark problem, then the
  // refined per-requirement bound over every candidate (1 TB/s aggregate
  // file system, the suite design study's default).
  const auto bounded = [&](const std::vector<codesign::StrawmanSystem>& systems,
                           bool refined) {
    double problem = 0.0;
    try {
      problem = codesign::common_benchmark_problem(req, systems);
    } catch (const NumericError&) {
      return;  // fits none of the systems
    }
    for (const auto& system : systems) {
      if (refined) {
        (void)codesign::refined_wall_time_bound(
            req, system, codesign::derived_rates(system, 1e12), problem);
      } else {
        (void)codesign::wall_time_lower_bound(req, system, problem);
      }
    }
  };
  bounded(paper, false);
  bounded(all, true);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks read_cpu_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  double value = 0.0;
  for (int field = 1; field <= 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 8) ticks.steal = value;
  }
  return ticks;
}

std::map<std::string, SpanTotals> span_self_times() {
  const std::vector<obs::SpanEvent> spans =
      obs::TraceRecorder::instance().snapshot();
  std::map<std::string, SpanTotals> totals;
  // Spans arrive ordered by (tid, start); within a thread they nest, so a
  // stack of open spans finds each span's parent.
  struct Open {
    std::int64_t end_us;
    std::int64_t child_us;
    std::string key;
    std::int64_t duration_us;
  };
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  const auto close = [&totals](const Open& open) {
    SpanTotals& entry = totals[open.key];
    ++entry.count;
    entry.total_ms += static_cast<double>(open.duration_us) / 1e3;
    entry.self_ms += static_cast<double>(
                         std::max<std::int64_t>(0, open.duration_us -
                                                       open.child_us)) /
                     1e3;
  };
  for (const obs::SpanEvent& span : spans) {
    if (span.tid != tid) {
      for (const Open& open : stack) close(open);
      stack.clear();
      tid = span.tid;
    }
    while (!stack.empty() && stack.back().end_us <= span.start_us) {
      close(stack.back());
      stack.pop_back();
    }
    const std::int64_t end = span.start_us + span.duration_us;
    if (!stack.empty()) {
      stack.back().child_us +=
          std::min(end, stack.back().end_us) - span.start_us;
    }
    const std::string name = span.name.substr(0, span.name.find(' '));
    stack.push_back({end, 0, span.category + ":" + name, span.duration_us});
  }
  for (const Open& open : stack) close(open);
  return totals;
}

std::string write_trace_files(const std::string& dir, const std::string& stem) {
  make_dirs(dir);
  const std::string trace_path = dir + "/" + stem + ".trace.json";
  {
    std::ofstream file(trace_path);
    obs::TraceRecorder::instance().write_chrome_json(file);
  }
  std::ofstream file(dir + "/" + stem + ".selftime.json");
  file << "{\n";
  bool first = true;
  for (const auto& [key, entry] : span_self_times()) {
    file << (first ? "" : ",\n") << "  \"" << key << "\": {\"count\": "
         << entry.count << ", \"total_ms\": " << entry.total_ms
         << ", \"self_ms\": " << entry.self_ms << "}";
    first = false;
  }
  file << "\n}\n";
  return trace_path;
}

void make_dirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
