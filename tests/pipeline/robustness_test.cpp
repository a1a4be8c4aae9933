// Failure injection and noise robustness of the measurement pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "pipeline/campaign.hpp"
#include "pipeline/codesign_bridge.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace exareq::pipeline {
namespace {

/// An application whose ranks fail at a chosen process count.
class FaultyApp final : public apps::Application {
 public:
  explicit FaultyApp(int failing_p) : failing_p_(failing_p) {}
  std::string name() const override { return "Faulty"; }
  std::string description() const override { return "fails at one p"; }
  std::string problem_size_meaning() const override { return "units"; }

  void run_rank(simmpi::Communicator& comm, instr::ProcessInstrumentation& instr,
                std::int64_t n) const override {
    instr.count_flops(static_cast<std::uint64_t>(n));
    if (comm.size() == failing_p_ && comm.rank() == comm.size() - 1) {
      throw exareq::NumericError("injected failure");
    }
    // The survivors then wait on the failed rank. The runtime unwinds them
    // once none can make progress and rethrows the failure, so the job
    // neither hangs nor reports a deadlock.
    comm.barrier();
  }

  void trace_locality(std::int64_t, memtrace::TraceSink& sink) const override {
    const auto g = sink.register_group("g");
    for (int i = 0; i < 2000; ++i) sink.record(0x10 + (i % 4), g);
  }

 private:
  int failing_p_;
};

TEST(RobustnessTest, RankFailurePropagatesOutOfCampaign) {
  // A rank failure must surface as the original exception — although its
  // peers are parked in a barrier waiting on it — and must not corrupt
  // other configurations.
  const FaultyApp app(4);
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32};
  EXPECT_THROW(run_campaign(app, config), exareq::NumericError);
}

TEST(RobustnessTest, NonFailingConfigurationsStillMeasure) {
  const FaultyApp app(64);  // never triggered below
  CampaignConfig config;
  config.process_counts = {2, 4};
  config.problem_sizes = {32, 64};
  const CampaignData data = run_campaign(app, config);
  EXPECT_EQ(data.measurements.size(), 4u);
  for (const AppMeasurement& m : data.measurements) {
    EXPECT_DOUBLE_EQ(m.flops, static_cast<double>(m.problem_size));
  }
}

TEST(RobustnessTest, LocalityCanBeDisabled) {
  const auto& app = apps::application(apps::AppId::kKripke);
  LocalityOptions disabled;
  disabled.enabled = false;
  const AppMeasurement m = measure_app(app, 2, 64, disabled);
  EXPECT_DOUBLE_EQ(m.stack_distance, 0.0);
  EXPECT_GT(m.flops, 0.0);
}

TEST(RobustnessTest, CounterNoiseDoesNotChangeKripkeConclusions) {
  // Perturb a real Kripke campaign by +/-0.5% multiplicative noise (the
  // PAPI non-determinism the paper works around, Sec. II-B) and verify the
  // co-design-relevant behaviour of the refitted models.
  const auto& app = apps::application(apps::AppId::kKripke);
  CampaignData data = run_campaign(app);
  exareq::Rng rng(2026);
  for (AppMeasurement& m : data.measurements) {
    m.flops *= 1.0 + 0.005 * rng.normal();
    m.loads_stores *= 1.0 + 0.005 * rng.normal();
    m.bytes_used *= 1.0 + 0.005 * rng.normal();
    for (auto& [name, channel] : m.channels) {
      channel.bytes *= 1.0 + 0.005 * rng.normal();
    }
  }
  const RequirementModels models = model_requirements(data);
  const codesign::AppRequirements req = to_requirements(models);

  const auto n_ratio = [](const model::Model& m) {
    return m.evaluate2(1048576.0, 2097152.0) / m.evaluate2(1048576.0, 1048576.0);
  };
  const auto p_ratio = [](const model::Model& m) {
    return m.evaluate2(2097152.0, 1048576.0) / m.evaluate2(1048576.0, 1048576.0);
  };
  // Linear in n, p-independent computation and communication.
  EXPECT_NEAR(n_ratio(req.flops), 2.0, 0.15);
  EXPECT_NEAR(p_ratio(req.flops), 1.0, 0.1);
  EXPECT_NEAR(p_ratio(req.comm_bytes), 1.0, 0.1);
  EXPECT_NEAR(n_ratio(req.footprint), 2.0, 0.15);
  // The flagged n*p load/store coupling survives.
  EXPECT_GT(p_ratio(req.loads_stores), 1.5);
}

TEST(RobustnessTest, DegenerateGridRejectedEarly) {
  const auto& app = apps::application(apps::AppId::kKripke);
  CampaignConfig config;
  config.process_counts = {};
  EXPECT_THROW(run_campaign(app, config), exareq::InvalidArgument);
}

}  // namespace
}  // namespace exareq::pipeline
