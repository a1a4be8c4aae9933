// Layer probes: each calls one layer's public entry point directly and
// times every call from outside with steady_clock, so a per-layer number
// never depends on the layer's own instrumentation.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "codesign/requirements.hpp"
#include "common.hpp"
#include "pipeline/campaign.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"

namespace perfbench {

/// Runs fn(0..count-1) on `threads` workers pulling indices in order;
/// returns each call's duration in ns, by index.
std::vector<std::int64_t> timed_parallel_for(
    std::size_t count, std::size_t threads,
    const std::function<void(std::size_t)>& fn);

/// measure_app with locality off, once per (app, p, n) grid point.
Samples probe_measure(const RunConfig& config, std::size_t threads);

/// simmpi::run(p, barrier-only) per grid point: the transport's floor.
Samples probe_simmpi_floor(const RunConfig& config);

/// trace_locality + finish per (app, n); `accesses` sums the streams.
Samples probe_locality(const RunConfig& config, std::size_t threads,
                       double& accesses);

/// CheckpointWriter::append (fsync on) of every measurement into a fresh
/// log per campaign under `dir`; `bytes` sums the logs.
Samples probe_checkpoint(
    const std::vector<exareq::pipeline::CampaignData>& campaigns,
    const std::string& dir, double& bytes);

/// QueryEngine::compute, uncached, per request kind.
struct ComputeSamples {
  Samples eval, invert, upgrade, strawman;
};
ComputeSamples probe_compute(
    const std::vector<exareq::codesign::AppRequirements>& bundles,
    const std::vector<exareq::serve::Request>& requests, double budget_s);

/// One random read request of `kind` for `app`. Coordinates are
/// log-uniform: p in [2, 1e6], n in [16, 1e6]; skeletons in [1e3, 1e6]
/// processes with [1e9, 1.6e10] bytes each.
exareq::serve::Request random_request(exareq::serve::RequestKind kind,
                                      const std::string& app, Rng& rng);

/// A fixed mix of read requests over `apps` (every kind, every metric), the
/// input of the compute probe on the model workload.
std::vector<exareq::serve::Request> probe_requests(
    const std::vector<std::string>& apps, std::uint64_t seed);

}  // namespace perfbench
