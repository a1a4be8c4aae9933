// Correctness gates. A benchmark run whose outputs differ from the
// reference is not a measurement of the program, so every mismatch fails
// the run:
//   pipeline — each app's campaign CSV digest equals the recorded one;
//   model    — per metric, the selected terms equal the recorded ones and
//              the coefficients agree within a relative tolerance (1e-9,
//              the tolerance of the repository's differential oracles);
//   serve    — every response is `ok`, and sampled responses for apps that
//              receive no ingest are byte-identical to a fresh, uncached
//              QueryEngine answer (checked in serve_workload.cpp).
// The reference lives in two text files under perfbench/reference and is
// written by `--record-reference` for the paper's 5x5 grid.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "pipeline/campaign.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace perfbench {

/// One fitted model in comparable form: the basis of each term rendered
/// without its coefficient, and the coefficients (constant first).
struct ModelShape {
  std::string terms;
  std::vector<double> coefficients;
};

/// Per-metric model shapes of one application, keyed by metric name
/// (bytes_used, flops, ..., and chan:<name> per communication call path).
using AppShapes = std::map<std::string, ModelShape>;

AppShapes describe_models(const exareq::pipeline::RequirementModels& models);

struct Reference {
  std::map<std::string, std::string> csv_digests;  ///< app -> FNV-1a hex
  std::map<std::string, AppShapes> models;         ///< app -> shapes

  /// Reads `dir`/csv_digests.txt and `dir`/models.txt; absent files load as
  /// empty (every gate then fails for lack of a reference).
  static Reference load(const std::string& dir);
  void save(const std::string& dir) const;
};

/// Gate results: empty when the check passes, else a one-line reason.
std::string check_csv_digest(const Reference& reference, const std::string& app,
                             const std::string& csv_text);
std::string check_models(const Reference& reference, const std::string& app,
                         const AppShapes& shapes, double relative_tolerance);

/// A served response must be `ok` and byte-identical to what a fresh,
/// uncached QueryEngine over `registry` answers now.
std::string check_served_answer(exareq::serve::ModelRegistry& registry,
                                const exareq::serve::Request& request,
                                const std::string& response);

/// The 1e-9 tolerance of the repository's differential oracles.
inline constexpr double kCoefficientTolerance = 1e-9;

}  // namespace perfbench
