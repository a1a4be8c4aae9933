#include "codesign/requirements.hpp"

#include <cmath>

#include "support/error.hpp"

namespace exareq::codesign {
namespace {

/// "(p, n)" / "(n)" / "()" — the layout a model actually has, for error
/// messages that name the offender instead of just the expectation.
std::string layout_of(const model::Model& m) {
  std::string layout = "(";
  for (std::size_t i = 0; i < m.parameter_names().size(); ++i) {
    if (i > 0) layout += ", ";
    layout += m.parameter_names()[i];
  }
  return layout + ")";
}

void check_two_parameter(const model::Model& m, const char* what) {
  exareq::require(m.parameter_names().size() == 2 &&
                      m.parameter_names()[0] == "p" && m.parameter_names()[1] == "n",
                  std::string("AppRequirements: ") + what +
                      " must be a model over (p, n), but this model is over " +
                      layout_of(m));
}

}  // namespace

void AppRequirements::validate() const {
  exareq::require(!name.empty(), "AppRequirements: name must not be empty");
  check_two_parameter(footprint, "footprint");
  check_two_parameter(flops, "flops");
  check_two_parameter(comm_bytes, "comm_bytes");
  check_two_parameter(loads_stores, "loads_stores");
  exareq::require(stack_distance.parameter_names().size() == 1,
                  "AppRequirements: stack_distance must be a model over (n), "
                  "but this model is over " +
                      layout_of(stack_distance));
  if (io_bytes.has_value()) check_two_parameter(*io_bytes, "io_bytes");
  if (energy_proxy.has_value()) {
    check_two_parameter(*energy_proxy, "energy_proxy");
  }
}

FilledSystem fill_memory(const AppRequirements& app, const SystemSkeleton& system,
                         const model::InversionOptions& options) {
  exareq::require(system.processes >= 1.0,
                  "fill_memory: system needs at least one process");
  exareq::require(system.memory_per_process > 0.0,
                  "fill_memory: memory per process must be positive");
  exareq::require(std::isfinite(system.processes) &&
                      std::isfinite(system.memory_per_process),
                  "fill_memory: process count and memory per process must be "
                  "finite");
  const double coordinate[] = {system.processes, 1.0};
  const double n = model::invert_model_in_parameter(
      app.footprint, 1, coordinate, system.memory_per_process, options);
  FilledSystem filled;
  filled.skeleton = system;
  filled.problem_size_per_process = n;
  filled.overall_problem_size = system.processes * n;
  return filled;
}

bool fits_in_memory(const AppRequirements& app, const SystemSkeleton& system) {
  const double minimum[] = {system.processes, 1.0};
  return app.footprint.evaluate(minimum) <= system.memory_per_process;
}

}  // namespace exareq::codesign
