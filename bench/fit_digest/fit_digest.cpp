// Prints every fit `model_requirements` makes over the given campaign CSVs
// (named <app>.csv, as `exareq measure --out` writes them) in a form that
// two builds can be diffed on: the constant, each term with its
// coefficient and the CV score as hexfloats, then the search counters.
// Every campaign is fitted four times: 1 and 4 engine threads, each with
// the batched and the scalar CV engine.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/campaign.hpp"
#include "support/csv.hpp"

namespace {

using namespace exareq;

void print_fit(const std::string& label, const model::FitResult& fit) {
  const model::Model& m = fit.model;
  std::printf("%s constant=%a", label.c_str(), m.constant());
  for (const model::Term& term : m.terms()) {
    std::printf(" [%s]=%a", term.to_string(m.parameter_names()).c_str(),
                term.coefficient);
  }
  const model::EngineStats& s = fit.stats;
  std::printf(
      " cv=%a hypotheses=%zu score_hits=%zu cv_solves=%zu qr_extensions=%zu "
      "downdates=%zu\n",
      fit.quality.cv_score, s.hypotheses_scored, s.score_cache_hits,
      s.cv_solves, s.qr_extensions, s.downdates);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: fit_digest APP.csv...\n";
    return 2;
  }
  const std::pair<const char*, pipeline::Metric> metrics[] = {
      {"bytes_used", pipeline::Metric::kBytesUsed},
      {"flops", pipeline::Metric::kFlops},
      {"bytes_sent_received", pipeline::Metric::kBytesSentReceived},
      {"loads_stores", pipeline::Metric::kLoadsStores},
      {"stack_distance", pipeline::Metric::kStackDistance},
      {"io_bytes", pipeline::Metric::kIoBytes},
      {"energy_proxy", pipeline::Metric::kEnergyProxy}};
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path path(argv[i]);
    std::ifstream file(path);
    if (!file.good()) {
      std::cerr << "fit_digest: cannot open " << path << "\n";
      return 1;
    }
    const pipeline::CampaignData data = pipeline::CampaignData::from_csv(
        CsvDocument::parse(file), path.stem().string());
    for (const std::size_t threads : {1, 4}) {
      for (const bool batched : {true, false}) {
        model::GeneratorOptions options;
        options.fit.threads = threads;
        options.fit.batched_cv = batched;
        const pipeline::RequirementModels models =
            pipeline::model_requirements(data, options);
        const std::string prefix = data.app_name + " threads=" +
                                   std::to_string(threads) +
                                   (batched ? " batched " : " scalar ");
        for (const auto& [name, metric] : metrics) {
          print_fit(prefix + name, models.result(metric));
        }
        for (const pipeline::ChannelModel& channel : models.comm_channels) {
          print_fit(prefix + "chan:" + channel.name, channel.fit);
        }
      }
    }
  }
  return 0;
}
