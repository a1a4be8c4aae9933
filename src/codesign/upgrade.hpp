// System-upgrade study (paper Sec. III-A, Tables III-V): given a baseline
// system that an application exactly exhausts, how do the largest solvable
// problem and the per-process requirements change under relative upgrades?
//
// Re-entrancy: every function here is safe to call from concurrent serve
// workers — inputs are taken by const reference, paper_upgrades() builds a
// fresh vector per call, and no mutable shared state exists in this layer.
#pragma once

#include <string>
#include <vector>

#include "codesign/requirements.hpp"

namespace exareq::codesign {

/// A relative upgrade (paper Table III).
struct UpgradeScenario {
  std::string label;       ///< "A: Double the racks"
  double process_factor;   ///< p' = factor * p
  double memory_factor;    ///< m' = factor * m
};

/// The paper's three scenarios: A doubles the racks (2p, m), B doubles the
/// sockets per node (2p, m/2), C doubles the memory (p, 2m).
std::vector<UpgradeScenario> paper_upgrades();

/// Requirement ratios new/old after an upgrade (one column block of
/// Table V).
struct UpgradeOutcome {
  std::string upgrade_label;
  double problem_size_ratio = 0.0;     ///< n'/n
  double overall_problem_ratio = 0.0;  ///< (p'n')/(pn)
  double computation_ratio = 0.0;      ///< flops ratio per process
  double communication_ratio = 0.0;    ///< comm bytes ratio per process
  double memory_access_ratio = 0.0;    ///< loads/stores ratio per process
};

/// The step-by-step walkthrough of Table IV, exposed so the bench harness
/// can print the same five steps the paper shows.
struct UpgradeWalkthrough {
  FilledSystem baseline;
  FilledSystem upgraded;
  UpgradeOutcome outcome;
  double footprint_old = 0.0;  ///< bytes at baseline (== old memory)
  double footprint_new = 0.0;  ///< bytes at upgraded (== new memory)
};

/// Evaluates one upgrade: fills the baseline memory, applies the upgrade,
/// refills, and forms the requirement ratios. Throws NumericError when the
/// application cannot fill either system (footprint exceeds memory at the
/// minimum problem size), or when a ratio is not finite (a requirement
/// model overflows or is zero at either system).
UpgradeWalkthrough evaluate_upgrade(const AppRequirements& app,
                                    const SystemSkeleton& baseline,
                                    const UpgradeScenario& upgrade);

/// Baseline-relative expectation (rightmost column of Table V): a linear
/// relation between requirements and problem size per process.
UpgradeOutcome baseline_expectation(const UpgradeScenario& upgrade);

}  // namespace exareq::codesign
