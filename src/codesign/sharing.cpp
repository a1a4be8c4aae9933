#include "codesign/sharing.hpp"

#include <cmath>

#include "support/error.hpp"

namespace exareq::codesign {

std::vector<ShareOutcome> space_share(std::span<const ShareRequest> requests,
                                      const SystemSkeleton& system) {
  exareq::require(!requests.empty(), "space_share: no applications");
  exareq::require(system.processes >= 1.0 && system.memory_per_process > 0.0 &&
                      std::isfinite(system.processes) &&
                      std::isfinite(system.memory_per_process),
                  "space_share: invalid system skeleton");
  double total_fraction = 0.0;
  for (const ShareRequest& request : requests) {
    exareq::require(request.app != nullptr, "space_share: null application");
    exareq::require(request.fraction > 0.0, "space_share: fraction must be > 0");
    total_fraction += request.fraction;
  }
  exareq::require(total_fraction <= 1.0 + 1e-9,
                  "space_share: fractions exceed the whole machine");

  std::vector<ShareOutcome> outcomes;
  outcomes.reserve(requests.size());
  for (const ShareRequest& request : requests) {
    request.app->validate();
    ShareOutcome outcome;
    outcome.app_name = request.app->name;
    outcome.partition.processes =
        std::max(std::floor(system.processes * request.fraction), 1.0);
    outcome.partition.memory_per_process = system.memory_per_process;
    if (fits_in_memory(*request.app, outcome.partition)) {
      const FilledSystem filled = fill_memory(*request.app, outcome.partition);
      outcome.feasible = true;
      outcome.problem_size_per_process = filled.problem_size_per_process;
      outcome.overall_problem_size = filled.overall_problem_size;
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::vector<ShareOutcome> space_share_pair(const AppRequirements& first,
                                           const AppRequirements& second,
                                           double first_fraction,
                                           const SystemSkeleton& system) {
  exareq::require(first_fraction > 0.0 && first_fraction < 1.0,
                  "space_share_pair: fraction must be in (0, 1)");
  const ShareRequest requests[] = {
      {&first, first_fraction},
      {&second, 1.0 - first_fraction},
  };
  return space_share(requests, system);
}

}  // namespace exareq::codesign
