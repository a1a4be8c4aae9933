// The benchmark's three workloads. Each takes its inputs from the run's
// seed, measures for the configured time, gates its outputs, and fills the
// end-to-end metrics (untraced run) or the per-layer ones (traced run).
//
//   pipeline — the paper's whole workflow per app: checkpointed campaign
//              with locality, model fit, co-design studies.
//   model    — the analyst's re-run path from campaign CSVs measured in
//              set-up: parse, fit, convert, co-design studies.
//   serve    — a 2-shard server with online refit behind a Unix socket: a
//              closed loop of binary read frames plus an open-loop ingest
//              stream.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "gates.hpp"

namespace perfbench {

/// One app's campaign measured in set-up, as the CSV `exareq measure`
/// writes.
struct AppInput {
  std::string name;
  std::string csv;
};

/// Measures every configured app's campaign (CLI default threads, no
/// checkpoint).
std::vector<AppInput> measure_inputs(const RunConfig& config);

/// With `record`, the pipeline writes its CSV digests and model shapes into
/// `reference` instead of checking them.
RunResult run_pipeline(const RunConfig& config, Reference& reference,
                       bool record);
RunResult run_model(const RunConfig& config, const Reference& reference);
RunResult run_serve(const RunConfig& config);

}  // namespace perfbench
