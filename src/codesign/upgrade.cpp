#include "codesign/upgrade.hpp"

#include <cmath>

#include "support/error.hpp"

namespace exareq::codesign {
namespace {

/// A requirement model that overflows (or vanishes) at the baseline or the
/// upgraded system makes its ratio inf or NaN; report that instead of
/// passing it off as a result.
void require_finite_ratio(double ratio, const char* name,
                          const UpgradeScenario& upgrade) {
  if (std::isfinite(ratio)) return;
  throw exareq::NumericError(
      "evaluate_upgrade: the " + std::string(name) + " ratio of '" +
      upgrade.label + "' is " + std::to_string(ratio) +
      "; upgrade ratios must be finite (a requirement model overflows or "
      "is zero at this system size)");
}

}  // namespace

std::vector<UpgradeScenario> paper_upgrades() {
  return {
      {"A: Double the racks", 2.0, 1.0},
      {"B: Double the sockets", 2.0, 0.5},
      {"C: Double the memory", 1.0, 2.0},
  };
}

UpgradeWalkthrough evaluate_upgrade(const AppRequirements& app,
                                    const SystemSkeleton& baseline,
                                    const UpgradeScenario& upgrade) {
  app.validate();
  exareq::require(upgrade.process_factor > 0.0 && upgrade.memory_factor > 0.0,
                  "evaluate_upgrade: factors must be positive");

  UpgradeWalkthrough walk;
  walk.baseline = fill_memory(app, baseline);

  SystemSkeleton upgraded = baseline;
  upgraded.processes *= upgrade.process_factor;
  upgraded.memory_per_process *= upgrade.memory_factor;
  walk.upgraded = fill_memory(app, upgraded);

  const double p0 = walk.baseline.skeleton.processes;
  const double n0 = walk.baseline.problem_size_per_process;
  const double p1 = walk.upgraded.skeleton.processes;
  const double n1 = walk.upgraded.problem_size_per_process;

  walk.footprint_old = app.footprint.evaluate2(p0, n0);
  walk.footprint_new = app.footprint.evaluate2(p1, n1);

  UpgradeOutcome& outcome = walk.outcome;
  outcome.upgrade_label = upgrade.label;
  outcome.problem_size_ratio = n1 / n0;
  outcome.overall_problem_ratio = (p1 * n1) / (p0 * n0);
  outcome.computation_ratio =
      app.flops.evaluate2(p1, n1) / app.flops.evaluate2(p0, n0);
  outcome.communication_ratio =
      app.comm_bytes.evaluate2(p1, n1) / app.comm_bytes.evaluate2(p0, n0);
  outcome.memory_access_ratio =
      app.loads_stores.evaluate2(p1, n1) / app.loads_stores.evaluate2(p0, n0);
  require_finite_ratio(outcome.problem_size_ratio, "problem size", upgrade);
  require_finite_ratio(outcome.overall_problem_ratio, "overall problem",
                       upgrade);
  require_finite_ratio(outcome.computation_ratio, "computation", upgrade);
  require_finite_ratio(outcome.communication_ratio, "communication", upgrade);
  require_finite_ratio(outcome.memory_access_ratio, "memory access", upgrade);
  return walk;
}

UpgradeOutcome baseline_expectation(const UpgradeScenario& upgrade) {
  // The paper's baseline column assumes requirements scale linearly with
  // the problem size per process: doubling memory doubles n and every
  // requirement; doubling sockets halves n and every requirement; doubling
  // racks keeps n and the requirements constant while doubling the overall
  // problem.
  UpgradeOutcome outcome;
  outcome.upgrade_label = upgrade.label;
  outcome.problem_size_ratio = upgrade.memory_factor;
  outcome.overall_problem_ratio = upgrade.memory_factor * upgrade.process_factor;
  outcome.computation_ratio = upgrade.memory_factor;
  outcome.communication_ratio = upgrade.memory_factor;
  outcome.memory_access_ratio = upgrade.memory_factor;
  return outcome;
}

}  // namespace exareq::codesign
