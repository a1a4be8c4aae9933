#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "codesign/strawman.hpp"
#include "codesign/upgrade.hpp"
#include "memtrace/locality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/service.hpp"
#include "model/serialize.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "pipeline/report.hpp"
#include "pipeline/serve_bridge.hpp"
#include "serve/binary_protocol.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/sharded_server.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

namespace exareq::cli {
namespace {

/// Parsed flags: everything after the subcommand and app name.
struct Flags {
  std::map<std::string, std::string> values;

  std::optional<std::string> get(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }

  double number(const std::string& name, double fallback) const {
    const auto value = get(name);
    if (!value.has_value()) return fallback;
    double parsed = 0.0;
    const char* begin = value->data();
    const char* end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(begin, end, parsed);
    exareq::require(ec == std::errc{} && ptr == end,
                    "flag --" + name + " expects a number, got '" + *value + "'");
    return parsed;
  }

  /// Integer flags are parsed as integers (not doubles-then-cast), so
  /// "1.5" and "1e3" are rejected outright.
  std::int64_t integer(const std::string& name, std::int64_t fallback) const {
    const auto value = get(name);
    if (!value.has_value()) return fallback;
    std::int64_t parsed = 0;
    const char* begin = value->data();
    const char* end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(begin, end, parsed);
    exareq::require(ec == std::errc{} && ptr == end,
                    "flag --" + name + " expects an integer, got '" + *value +
                        "'");
    return parsed;
  }

  bool flag_set(const std::string& name) const {
    return values.find(name) != values.end();
  }
};

/// The flags each command reads. Every command except `list` also accepts
/// --trace and --metrics; any other flag is an error, not silently ignored.
/// `serve` reads the campaign grid flags for its fit-on-demand campaigns
/// but not --threads (the fitter runs them on one thread) or --checkpoint
/// and --resume (one checkpoint directory cannot hold several apps).
const std::set<std::string>* command_flags(const std::string& command) {
  static const std::map<std::string, std::set<std::string>> table = [] {
    const std::set<std::string> campaign = {
        "in", "processes", "sizes", "threads", "sampling", "checkpoint",
        "resume"};
    const auto campaign_and = [&campaign](std::set<std::string> extra) {
      extra.insert(campaign.begin(), campaign.end());
      return extra;
    };
    return std::map<std::string, std::set<std::string>>{
        {"measure", campaign_and({"out"})},
        {"model", campaign_and({"models-out"})},
        {"upgrade", campaign_and({"base-processes", "base-memory"})},
        {"strawman", campaign},
        {"locality", {"size", "sampling"}},
        {"serve",
         {"processes", "sizes", "sampling", "models", "requests", "socket",
          "tcp", "workers", "queue", "deadline-ms", "cache", "max-frame",
          "max-binary-frame", "refit-rows", "refit-staleness-ms",
          "max-pending", "max-regression", "status"}},
        {"query", {"socket", "tcp", "host", "request", "requests", "binary"}},
    };
  }();
  const auto it = table.find(command);
  return it == table.end() ? nullptr : &it->second;
}

/// Flags that take no value (an optional one may still follow via --flag=v).
const std::set<std::string>& boolean_flags() {
  static const std::set<std::string> flags = {"status", "metrics", "binary",
                                              "resume"};
  return flags;
}

Flags parse_flags(const std::vector<std::string>& args, std::size_t first) {
  Flags flags;
  for (std::size_t i = first; i < args.size(); ++i) {
    exareq::require(args[i].rfind("--", 0) == 0,
                    "expected a --flag, got '" + args[i] + "'");
    const std::string token = args[i].substr(2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      flags.values[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    if (boolean_flags().count(token) != 0) {
      flags.values[token] = "1";
      continue;
    }
    exareq::require(i + 1 < args.size(), "flag " + args[i] + " needs a value");
    flags.values[token] = args[i + 1];
    ++i;
  }
  return flags;
}

/// Resolves --sampling NAME to its preset; throws on unknown names.
pipeline::SamplingPreset sampling_preset(const std::string& name) {
  const auto preset = pipeline::sampling_preset_from_name(name);
  exareq::require(preset.has_value(),
                  "flag --sampling expects one of exact, balanced, sparse, "
                  "minimal; got '" + name + "'");
  return *preset;
}

pipeline::CampaignConfig campaign_config(const Flags& flags) {
  pipeline::CampaignConfig config;
  if (const auto processes = flags.get("processes")) {
    config.process_counts.clear();
    for (std::int64_t p : parse_int_list(*processes)) {
      config.process_counts.push_back(static_cast<int>(p));
    }
  }
  if (const auto sizes = flags.get("sizes")) {
    config.problem_sizes = parse_int_list(*sizes);
  }
  const std::int64_t threads = flags.integer("threads", 0);
  exareq::require(threads >= 0,
                  "flag --threads expects a non-negative integer, got " +
                      std::to_string(threads));
  config.threads = static_cast<std::size_t>(threads);
  if (const auto preset = flags.get("sampling")) {
    config.locality = pipeline::locality_preset(sampling_preset(*preset));
  }
  if (const auto directory = flags.get("checkpoint")) {
    exareq::require(!directory->empty(),
                    "flag --checkpoint expects a directory path");
    config.checkpoint.directory = *directory;
    config.checkpoint.resume = flags.flag_set("resume");
  } else {
    exareq::require(!flags.flag_set("resume"),
                    "flag --resume needs --checkpoint DIR (there is no "
                    "checkpoint to resume from)");
  }
  return config;
}

/// Generator options from flags: --threads N sizes the model engine's pool
/// (default 0 = hardware concurrency; 1 = serial reference behavior).
model::GeneratorOptions generator_options(const Flags& flags) {
  model::GeneratorOptions options;
  const std::int64_t threads = flags.integer("threads", 0);
  exareq::require(threads >= 0,
                  "flag --threads expects a non-negative integer, got " +
                      std::to_string(threads));
  options.fit.threads = static_cast<std::size_t>(threads);
  return options;
}

/// Checks that a campaign grid can be fitted before any of it is measured:
/// the model generator needs `min_distinct` distinct values per axis
/// (GeneratorOptions::min_distinct_values), while parse_int_list, and so
/// `measure`, accept two. Grid lists are deduplicated, so their sizes are
/// the distinct counts.
void require_fittable_grid(const pipeline::CampaignConfig& config,
                           std::size_t min_distinct) {
  const auto check = [min_distinct](const char* axis, std::size_t distinct) {
    exareq::require(distinct >= min_distinct,
                    std::string("grid axis ") + axis + " has " +
                        std::to_string(distinct) +
                        " distinct values; fitting a model needs at least " +
                        std::to_string(min_distinct) + " per axis");
  };
  check("p (--processes)", config.process_counts.size());
  check("n (--sizes)", config.problem_sizes.size());
}

/// Loads a campaign from --in or measures one on the fly; a campaign
/// measured for fitting with `fit` must pass require_fittable_grid first.
pipeline::CampaignData obtain_campaign(
    const apps::Application& app, const Flags& flags, std::ostream& err,
    const model::GeneratorOptions* fit = nullptr) {
  if (const auto path = flags.get("in")) {
    std::ifstream file(*path);
    exareq::require(file.good(), "cannot open campaign file '" + *path + "'");
    return pipeline::CampaignData::from_csv(exareq::CsvDocument::parse(file),
                                            app.name());
  }
  const pipeline::CampaignConfig config = campaign_config(flags);
  if (fit != nullptr) require_fittable_grid(config, fit->min_distinct_values);
  err << "[measuring " << app.name() << " ...]\n";
  return pipeline::run_campaign(app, config);
}

int cmd_list(std::ostream& out) {
  TextTable table({"App", "Problem size meaning", "File I/O", "Description"});
  table.set_alignment(
      {Align::kLeft, Align::kLeft, Align::kLeft, Align::kLeft});
  for (apps::AppId id : apps::all_app_ids()) {
    const apps::Application& app = apps::application(id);
    table.add_row({app.name(), app.problem_size_meaning(),
                   app.performs_file_io() ? "yes" : "-", app.description()});
  }
  out << table.render();
  return 0;
}

int cmd_measure(const apps::Application& app, const Flags& flags,
                std::ostream& out, std::ostream& err) {
  const pipeline::CampaignData data = obtain_campaign(app, flags, err);
  const exareq::CsvDocument csv = data.to_csv();
  if (const auto path = flags.get("out")) {
    std::ofstream file(*path);
    exareq::require(file.good(), "cannot write campaign file '" + *path + "'");
    csv.write(file);
    err << "wrote " << data.measurements.size() << " configurations to "
        << *path << "\n";
  } else {
    out << csv.to_string();
  }
  return 0;
}

int cmd_model(const apps::Application& app, const Flags& flags,
              std::ostream& out, std::ostream& err) {
  // Validate flags before the (possibly expensive) campaign step.
  const model::GeneratorOptions options = generator_options(flags);
  const pipeline::CampaignData data =
      obtain_campaign(app, flags, err, &options);
  const pipeline::RequirementModels models =
      pipeline::model_requirements(data, options);
  out << "Requirement models for " << app.name() << ":\n";
  out << pipeline::render_models(models);
  out << pipeline::render_assessment(models) << "\n";
  out << "Engine stats:\n" << pipeline::render_engine_stats(models);
  if (const auto path = flags.get("models-out")) {
    std::ofstream file(*path);
    exareq::require(file.good(), "cannot write model file '" + *path + "'");
    file << model::serialize_bundle(pipeline::to_model_bundle(models));
    err << "wrote serialized models to " << *path << "\n";
  }
  return 0;
}

int cmd_upgrade(const apps::Application& app, const Flags& flags,
                std::ostream& out, std::ostream& err) {
  const model::GeneratorOptions options = generator_options(flags);
  const pipeline::CampaignData data =
      obtain_campaign(app, flags, err, &options);
  const codesign::AppRequirements req = pipeline::to_requirements(
      pipeline::model_requirements(data, options));
  const codesign::SystemSkeleton base{
      flags.number("base-processes", 65536.0),
      flags.number("base-memory", 2147483648.0)};
  TextTable table({"Upgrade", "n'/n", "Overall", "Compute", "Comm",
                   "Mem access"});
  for (const auto& upgrade : codesign::paper_upgrades()) {
    const auto outcome = codesign::evaluate_upgrade(req, base, upgrade).outcome;
    table.add_row({upgrade.label, format_fixed(outcome.problem_size_ratio, 2),
                   format_fixed(outcome.overall_problem_ratio, 2),
                   format_fixed(outcome.computation_ratio, 2),
                   format_fixed(outcome.communication_ratio, 2),
                   format_fixed(outcome.memory_access_ratio, 2)});
  }
  out << "Upgrade study for " << app.name() << " (baseline: "
      << format_compact(base.processes) << " processes, "
      << format_bytes(base.memory_per_process) << " each)\n";
  out << table.render();
  return 0;
}

int cmd_strawman(const apps::Application& app, const Flags& flags,
                 std::ostream& out, std::ostream& err) {
  const model::GeneratorOptions options = generator_options(flags);
  const pipeline::CampaignData data =
      obtain_campaign(app, flags, err, &options);
  const codesign::AppRequirements req = pipeline::to_requirements(
      pipeline::model_requirements(data, options));
  const auto systems = codesign::paper_strawmen();
  TextTable table({"System", "Fits?", "Max overall problem",
                   "Benchmark wall time [s]"});
  std::optional<double> benchmark;
  try {
    benchmark = codesign::common_benchmark_problem(req, systems);
  } catch (const exareq::NumericError&) {
    benchmark = std::nullopt;
  }
  for (const auto& system : systems) {
    const auto outcome = codesign::evaluate_strawman(req, system);
    std::string time_cell = "-";
    if (outcome.feasible && benchmark.has_value()) {
      const auto seconds =
          codesign::wall_time_lower_bound(req, system, *benchmark);
      if (seconds.has_value()) time_cell = format_sci(*seconds, 1);
    }
    table.add_row({system.name, outcome.feasible ? "yes" : "no",
                   outcome.feasible ? format_sci(outcome.max_overall_problem, 1)
                                    : "-",
                   time_cell});
  }
  out << "Exascale straw-man study for " << app.name() << ":\n"
      << table.render();
  return 0;
}

int cmd_locality(const apps::Application& app, const Flags& flags,
                 std::ostream& out) {
  const std::int64_t n = flags.integer("size", 256);
  exareq::require(n >= 1, "--size must be >= 1");
  memtrace::LocalityConfig config;
  config.sampler = memtrace::SamplerConfig{64, 512, 0};
  if (const auto preset = flags.get("sampling")) {
    config = pipeline::locality_preset(sampling_preset(*preset)).config;
  }
  // Streamed: the kernel feeds the analyzer directly, no materialized trace.
  memtrace::LocalityAnalyzer analyzer(config);
  app.trace_locality(n, analyzer);
  const auto report =
      analyzer.finish(static_cast<double>(analyzer.recorded()));
  out << "Locality report for " << app.name() << " at n = " << n << ":\n";
  TextTable table({"Group", "Samples", "Median SD", "Median RD", "Reliable"});
  for (const auto& group : report.groups) {
    table.add_row({group.name, std::to_string(group.samples),
                   group.samples ? format_compact(group.median_stack_distance)
                                 : "-",
                   group.samples ? format_compact(group.median_reuse_distance)
                                 : "-",
                   group.reliable ? "yes" : "no"});
  }
  out << table.render();
  out << "Weighted median stack distance: "
      << format_compact(report.weighted_median_stack_distance) << "\n";
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

/// Serve options from flags (workers/queue/deadline-ms/cache). --workers
/// is the shard count; 0 (the default) sizes it to the hardware.
serve::ShardedServerOptions sharded_options(const Flags& flags) {
  serve::ShardedServerOptions options;
  const std::int64_t workers = flags.integer("workers", 0);
  exareq::require(workers >= 0, "--workers expects a non-negative integer");
  options.shards =
      workers == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : static_cast<std::size_t>(workers);
  const std::int64_t queue = flags.integer("queue", 256);
  exareq::require(queue >= 1, "--queue expects a positive integer");
  options.queue_capacity = static_cast<std::size_t>(queue);
  const std::int64_t deadline = flags.integer("deadline-ms", 0);
  exareq::require(deadline >= 0, "--deadline-ms expects a non-negative integer");
  options.deadline = std::chrono::milliseconds(deadline);
  const std::int64_t cache = flags.integer("cache", 1024);
  exareq::require(cache >= 0, "--cache expects a non-negative integer");
  options.cache_capacity = static_cast<std::size_t>(cache);
  return options;
}

/// Front-end listener options from flags (socket/tcp/max-frame).
serve::FrontEndOptions frontend_options(const Flags& flags) {
  serve::FrontEndOptions options;
  if (const auto socket_path = flags.get("socket")) {
    options.unix_path = *socket_path;
  }
  const std::int64_t tcp = flags.integer("tcp", -1);
  exareq::require(tcp >= -1 && tcp <= 65535,
                  "--tcp expects a port number (0 binds an ephemeral port)");
  options.tcp_port = static_cast<int>(tcp);
  const std::int64_t max_frame = flags.integer(
      "max-frame",
      static_cast<std::int64_t>(serve::FrameDecoder::kDefaultMaxFrameBytes));
  exareq::require(max_frame >= 1, "--max-frame expects a positive byte count");
  options.max_frame_bytes = static_cast<std::size_t>(max_frame);
  const std::int64_t max_binary = flags.integer(
      "max-binary-frame",
      static_cast<std::int64_t>(serve::binary::kDefaultBatchMaxFrameBytes));
  exareq::require(max_binary >= 1,
                  "--max-binary-frame expects a positive byte count");
  options.max_binary_frame_bytes = static_cast<std::size_t>(max_binary);
  return options;
}

/// Splits a comma-separated file list ("a.models,b.models").
std::vector<std::string> split_paths(const std::string& text) {
  std::vector<std::string> paths;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) paths.push_back(item);
  }
  return paths;
}

/// A request file as `serve --requests` and `query --requests` read it: one
/// request a line, blank lines and `#` comments skipped. A line that does
/// not parse is answered in place with `error bad-request: ...`; the others
/// go out as one batch.
struct RequestFile {
  std::vector<serve::Request> batch;   ///< the lines that parse, in order
  std::vector<std::size_t> positions;  ///< the line batch[i] answers
  std::vector<std::string> responses;  ///< one per line; bad lines filled in

  /// Puts each batch answer at its line's position; returns every line's.
  const std::vector<std::string>& answer(
      const std::vector<std::string>& answers) {
    for (std::size_t i = 0; i < answers.size(); ++i) {
      responses[positions[i]] = answers[i];
    }
    return responses;
  }
};

RequestFile read_request_file(const std::string& path) {
  std::ifstream file(path);
  exareq::require(file.good(), "cannot open request file '" + path + "'");
  RequestFile requests;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    try {
      requests.batch.push_back(serve::parse_request(line));
    } catch (const exareq::Error& error) {
      requests.responses.push_back(
          serve::error_response("bad-request", error.what()));
      continue;
    }
    requests.positions.push_back(requests.responses.size());
    requests.responses.emplace_back();
  }
  return requests;
}

/// Online ingest/refit knobs (see docs/ONLINE.md).
online::OnlineServiceOptions online_options(const Flags& flags) {
  online::OnlineServiceOptions options;
  const std::int64_t refit_rows = flags.integer("refit-rows", 25);
  exareq::require(refit_rows >= 0,
                  "--refit-rows expects a non-negative integer");
  options.policy.refit_rows = static_cast<std::size_t>(refit_rows);
  const std::int64_t staleness = flags.integer("refit-staleness-ms", 0);
  exareq::require(staleness >= 0,
                  "--refit-staleness-ms expects a non-negative integer");
  options.policy.max_staleness = std::chrono::milliseconds(staleness);
  const std::int64_t max_pending = flags.integer("max-pending", 4096);
  exareq::require(max_pending >= 1, "--max-pending expects a positive integer");
  options.policy.max_pending_rows = static_cast<std::size_t>(max_pending);
  const double regression = flags.number("max-regression", 0.0);
  exareq::require(regression >= 0.0,
                  "--max-regression expects a non-negative number");
  options.refit.max_quality_regression = regression;
  return options;
}

int cmd_serve(const Flags& flags, std::ostream& out, std::ostream& err) {
  // Each shard owns a full slice of the serving stack; the factory hands
  // every shard its own fit-on-demand registry (the fitter is serial per
  // shard, so shards may fit distinct apps concurrently).
  const pipeline::CampaignConfig fit_config = campaign_config(flags);
  require_fittable_grid(fit_config,
                        model::GeneratorOptions{}.min_distinct_values);
  serve::ShardedServer server(sharded_options(flags), [fit_config] {
    return std::make_unique<serve::ModelRegistry>(
        pipeline::make_registry_fitter(fit_config));
  });
  if (const auto models = flags.get("models")) {
    for (const std::string& path : split_paths(*models)) {
      const std::string name = server.load_file(path);
      err << "loaded models for " << name << " into shard "
          << server.shard_of(name) << " from " << path << "\n";
    }
  }
  // One online service per shard, bound to that shard's registry, so
  // ingest-triggered refits publish into the owning shard without any
  // cross-shard locking. Declared after the server they feed; the explicit
  // server.stop() below joins the shard threads before these services (and
  // the hooks they back) are destroyed.
  std::vector<std::unique_ptr<online::OnlineService>> online_services;
  for (std::size_t shard = 0; shard < server.shard_count(); ++shard) {
    online_services.push_back(std::make_unique<online::OnlineService>(
        server.registry(shard), online_options(flags)));
    server.set_online_hooks(shard, online_services.back()->hooks());
  }
  const auto drain_online = [&online_services] {
    for (const auto& service : online_services) service->drain();
  };

  const auto requests = flags.get("requests");
  const serve::FrontEndOptions front_options = frontend_options(flags);
  const bool listen =
      !front_options.unix_path.empty() || front_options.tcp_port >= 0;
  exareq::require(requests.has_value() || listen,
                  "serve needs --requests FILE, --socket PATH, and/or "
                  "--tcp PORT");

  if (requests.has_value()) {
    // The whole file goes down as one batch — parsed once, bucketed by
    // shard, buckets answered in parallel, responses in request order.
    // Malformed lines answer in place without failing the batch.
    RequestFile file = read_request_file(*requests);
    const std::vector<std::string> answers = server.submit_batch(file.batch);
    for (const std::string& response : file.answer(answers)) {
      out << response << "\n";
    }
    // Batch mode is often scripted (ingest rows then read --status); a
    // drain makes every accepted row's refit visible before the report.
    drain_online();
    err << "served " << file.responses.size() << " requests across "
        << server.shard_count() << " shards\n";
  }

  if (listen) {
    serve::FrontEnd front(server, front_options);
    front.start();
    err << "serving on ";
    if (!front_options.unix_path.empty()) err << front_options.unix_path;
    if (front.tcp_port() >= 0) {
      if (!front_options.unix_path.empty()) err << " and ";
      err << front_options.tcp_host << ":" << front.tcp_port();
    }
    err << " with " << server.shard_count()
        << " worker shards, text + binary (SIGINT/SIGTERM stops)\n";
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    while (g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    front.stop();
    err << "shut down\n";
  }

  if (flags.flag_set("status")) {
    drain_online();
    out << server.status_report();
  }
  // Shard threads call into the per-shard online hooks, so the server must
  // be fully stopped before the services (declared after it) go away.
  server.stop();
  return 0;
}

int cmd_query(const Flags& flags, std::ostream& out) {
  const auto socket_path = flags.get("socket");
  const std::int64_t tcp_port = flags.integer("tcp", -1);
  exareq::require(tcp_port >= -1 && tcp_port <= 65535,
                  "--tcp expects a port number");
  exareq::require(socket_path.has_value() != (tcp_port >= 0),
                  "query needs exactly one of --socket PATH or --tcp PORT");
  const std::string host = flags.get("host").value_or("127.0.0.1");
  const auto request = flags.get("request");
  const auto requests_file = flags.get("requests");
  exareq::require(request.has_value() != requests_file.has_value(),
                  "query needs exactly one of --request 'LINE' or "
                  "--requests FILE");

  // Single text query (the default): one line down, one line back.
  if (request.has_value() && !flags.flag_set("binary")) {
    const std::string response =
        socket_path.has_value()
            ? serve::query_over_socket(*socket_path, *request)
            : serve::query_over_tcp(host, static_cast<int>(tcp_port),
                                    *request);
    out << response << "\n";
    return response.rfind("ok", 0) == 0 ? 0 : 1;
  }

  // Binary path (--binary, or implied by --requests): every request rides
  // in one frame, decoded once server-side and bucketed across shards. A
  // file's malformed lines answer in place, as under `serve --requests`; a
  // single --binary line the client cannot encode fails client-side.
  RequestFile file;
  if (request.has_value()) {
    file.batch.push_back(serve::parse_request(*request));
    file.positions.push_back(0);
    file.responses.emplace_back();
  } else {
    file = read_request_file(*requests_file);
  }
  std::vector<std::string> answers;
  if (!file.batch.empty()) {
    answers = socket_path.has_value()
                  ? serve::query_batch_over_socket(*socket_path, file.batch)
                  : serve::query_batch_over_tcp(
                        host, static_cast<int>(tcp_port), file.batch);
  }
  bool all_ok = true;
  for (const std::string& response : file.answer(answers)) {
    out << response << "\n";
    if (response.rfind("ok", 0) != 0) all_ok = false;
  }
  return all_ok ? 0 : 1;
}

}  // namespace

std::string usage() {
  return "usage: exareq <command> [...]\n"
         "  list                                     list the bundled applications\n"
         "  measure <app> [--processes L] [--sizes L] [--threads N] [--out FILE]\n"
         "           [--checkpoint DIR [--resume]] [--sampling PRESET]\n"
         "  model   <app> [--in FILE] [--models-out FILE] [--threads N]\n"
         "  upgrade <app> [--in FILE] [--base-processes P] [--base-memory B]\n"
         "           [--threads N]\n"
         "  strawman <app> [--in FILE] [--threads N]\n"
         "  locality <app> [--size N] [--sampling PRESET]\n"
         "  serve   [--models F1,F2,..] [--requests FILE] [--socket PATH]\n"
         "           [--tcp PORT] [--workers N] [--queue N] [--deadline-ms D]\n"
         "           [--cache N] [--max-frame B] [--max-binary-frame B]\n"
         "           [--refit-rows N] [--refit-staleness-ms D] [--max-pending N]\n"
         "           [--max-regression X] [--status]\n"
         "           [--processes L] [--sizes L] [--sampling PRESET]\n"
         "  query   (--socket PATH | --tcp PORT [--host H])\n"
         "           (--request 'eval LULESH flops 64 1024' | --requests FILE)\n"
         "           [--binary]\n"
         "Nine proxy applications are bundled (see `list` and docs/APPS.md);\n"
         "eval metrics: footprint, flops, comm_bytes, loads_stores,\n"
         "stack_distance, io_bytes, energy_proxy (the last two require a\n"
         "suite-v2 bundle; apps without file I/O model io_bytes as 0).\n"
         "Every command except `list` also accepts:\n"
         "  --trace FILE     record spans and write a Chrome trace_event JSON\n"
         "                   file (load in chrome://tracing or Perfetto)\n"
         "  --metrics[=json] print the metric registry after the command\n"
         "                   (text by default). See docs/OBSERVABILITY.md.\n"
         "A flag the command does not read is an error.\n"
         "Lists are comma-separated integers, e.g. --processes 4,8,16,32,64;\n"
         "they are sorted, deduplicated, and need >= 2 distinct values;\n"
         "model, upgrade, strawman and serve measure only grids with >= 5\n"
         "distinct values per axis, which the model generator needs.\n"
         "`measure --checkpoint DIR` appends every completed grid point to a\n"
         "crash-safe checkpoint; `--resume` reloads it after an interruption\n"
         "and measures only the missing points (the CSV is byte-identical to\n"
         "an uninterrupted run; see docs/MEASUREMENT.md). --sampling picks a\n"
         "locality sampling preset: exact, balanced (default), sparse, or\n"
         "minimal (sparser = faster tracing, fewer distance samples).\n"
         "Analysis commands measure on the fly unless --in supplies a campaign\n"
         "CSV written by `measure`. --threads sizes the thread pool used for\n"
         "measurement campaigns (grid points run concurrently) and for the\n"
         "model engine (0 = hardware concurrency, the default; results are\n"
         "bit-identical at any thread count).\n"
         "`serve` answers eval/invert/upgrade/strawman/status queries from\n"
         "model bundles (--models, written by `model --models-out`) or by\n"
         "fitting on demand (a campaign over --processes/--sizes/--sampling\n"
         "on one thread, without a checkpoint). Applications are\n"
         "hash-partitioned across --workers shards (0 = hardware\n"
         "concurrency), each owning its own registry, cache, and online\n"
         "refit loop. --requests FILE serves the file as one batch;\n"
         "--socket and/or --tcp start listeners speaking\n"
         "both the line text protocol and the batched binary wire format\n"
         "(auto-detected per connection; --max-frame / --max-binary-frame\n"
         "bound a request line / binary frame); --status prints the metrics\n"
         "report with a per-shard table. `serve` also accepts streamed\n"
         "measurement rows over the `ingest` verb and refits models online\n"
         "(--refit-rows, --refit-staleness-ms, --max-pending,\n"
         "--max-regression; see docs/ONLINE.md). `query` sends one line\n"
         "(text) or, with --binary or --requests FILE, a batched binary\n"
         "frame. See docs/SERVING.md for both wire formats.\n";
}

std::vector<std::int64_t> parse_int_list(const std::string& text) {
  // getline drops a trailing empty item, so "4,8," would silently parse;
  // reject the dangling separator explicitly.
  exareq::require(text.empty() || text.back() != ',',
                  "expected a positive integer list, got '" + text + "'");
  std::vector<std::int64_t> values;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    std::int64_t value = 0;
    const char* begin = item.data();
    const char* end = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    exareq::require(ec == std::errc{} && ptr == end && value > 0,
                    "expected a positive integer list, got '" + text + "'");
    values.push_back(value);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  // One distinct value cannot span a fit grid axis; reject early instead of
  // failing later inside the model generator.
  exareq::require(values.size() >= 2, "integer list '" + text +
                                          "' has fewer than 2 distinct values "
                                          "(degenerate fit grid)");
  return values;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << usage();
      return args.empty() ? 1 : 0;
    }
    const std::string& command = args[0];
    if (command == "list") {
      exareq::require(args.size() == 1, "command 'list' takes no arguments");
      return cmd_list(out);
    }

    const std::set<std::string>* accepted = command_flags(command);
    exareq::require(accepted != nullptr, "unknown command '" + command + "'");
    const apps::Application* app = nullptr;
    std::size_t flag_start = 1;
    if (command != "serve" && command != "query") {
      exareq::require(args.size() >= 2,
                      "command '" + command + "' needs an app name");
      app = &apps::application(apps::app_id_from_name(args[1]));
      flag_start = 2;
    }
    const Flags flags = parse_flags(args, flag_start);
    for (const auto& [name, value] : flags.values) {
      exareq::require(
          accepted->count(name) != 0 || name == "trace" || name == "metrics",
          "command '" + command + "' does not accept --" + name);
    }

    // --trace validates the output path up front (a campaign should not run
    // for an hour only to fail writing the trace) and records until the
    // command returns; --metrics dumps the registry afterwards.
    std::optional<obs::TraceGuard> trace;
    if (const auto path = flags.get("trace")) trace.emplace(*path);

    int code = 0;
    if (command == "serve") {
      code = cmd_serve(flags, out, err);
    } else if (command == "query") {
      code = cmd_query(flags, out);
    } else if (command == "measure") {
      code = cmd_measure(*app, flags, out, err);
    } else if (command == "model") {
      code = cmd_model(*app, flags, out, err);
    } else if (command == "upgrade") {
      code = cmd_upgrade(*app, flags, out, err);
    } else if (command == "strawman") {
      code = cmd_strawman(*app, flags, out, err);
    } else {
      code = cmd_locality(*app, flags, out);
    }

    if (trace.has_value()) {
      trace->finish();
      err << "wrote " << trace->spans_written() << " trace spans to "
          << trace->path() << "\n";
    }
    if (const auto format = flags.get("metrics")) {
      auto& registry = obs::MetricRegistry::instance();
      out << (*format == "json" ? registry.render_json()
                                : registry.render_text());
    }
    return code;
  } catch (const std::exception& error) {
    err << "error: " << error.what() << "\n" << usage();
    return 1;
  }
}

}  // namespace exareq::cli
