// Table V reproduction: how problem size and per-process requirements of
// every bundled application (the paper's five plus the suite-v2 four)
// change under the three system upgrades of Table III, against the linear
// baseline expectation.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codesign/upgrade.hpp"
#include "support/format.hpp"
#include "support/table.hpp"

namespace {

using namespace exareq;

std::string cell(const std::optional<double>& value) {
  return value.has_value() ? format_fixed(*value, 1) : "n/a";
}

int run() {
  bench::print_banner("System upgrade comparison",
                      "Tables III and V (Sec. III-A)");

  // 2^16 sockets with 2 GiB each: large enough for asymptotic behaviour,
  // small enough that even icoFoam's replicated p*log(p) metadata fits.
  const codesign::SystemSkeleton base{65536.0, 1ull << 31};
  const auto upgrades = codesign::paper_upgrades();
  const auto ids = apps::all_app_ids();

  // One column per app, from the same list the rows iterate.
  std::vector<std::string> headers{"Ratios"};
  for (apps::AppId id : ids) headers.push_back(apps::app_name(id));
  headers.push_back("Baseline");
  std::vector<Align> alignment(headers.size(), Align::kRight);
  alignment.front() = Align::kLeft;
  TextTable table(std::move(headers));
  table.set_alignment(std::move(alignment));

  for (const auto& upgrade : upgrades) {
    table.add_section("System upgrade " + upgrade.label);
    std::vector<std::optional<codesign::UpgradeOutcome>> outcomes;
    for (apps::AppId id : ids) {
      const auto& req = bench::app_models(id).requirements;
      try {
        outcomes.push_back(
            codesign::evaluate_upgrade(req, base, upgrade).outcome);
      } catch (const Error&) {
        outcomes.push_back(std::nullopt);
      }
    }
    const auto expectation = codesign::baseline_expectation(upgrade);

    const auto row = [&](const std::string& label, auto member,
                         double baseline_value) {
      std::vector<std::string> cells{label};
      for (const auto& outcome : outcomes) {
        cells.push_back(
            outcome.has_value()
                ? cell(std::optional<double>((*outcome).*member))
                : "n/a");
      }
      cells.push_back(format_fixed(baseline_value, 1));
      table.add_row(std::move(cells));
    };
    row("Problem size per process", &codesign::UpgradeOutcome::problem_size_ratio,
        expectation.problem_size_ratio);
    row("Overall problem size", &codesign::UpgradeOutcome::overall_problem_ratio,
        expectation.overall_problem_ratio);
    row("Computation", &codesign::UpgradeOutcome::computation_ratio,
        expectation.computation_ratio);
    row("Communication", &codesign::UpgradeOutcome::communication_ratio,
        expectation.communication_ratio);
    row("Memory access", &codesign::UpgradeOutcome::memory_access_ratio,
        expectation.memory_access_ratio);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper conclusions to compare against (Sec. III-A): Kripke profits\n"
      "equally from doubling memory or sockets; LULESH draws the biggest\n"
      "advantage from doubling the racks; MILC and Relearn profit most from\n"
      "doubling the memory; icoFoam would benefit only from doubling the\n"
      "memory. No upgrade is best for every application.\n");
  return 0;
}

}  // namespace

int main() { return run(); }
