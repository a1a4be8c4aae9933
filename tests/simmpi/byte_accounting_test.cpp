// Byte-accounting closed forms. These tests pin the contract between the
// simulated collectives and the model library's collective basis functions
// (model/basis.hpp): a fitted coefficient of Allreduce(p)/Bcast(p)/
// Alltoall(p) must equal the per-call payload in bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "simmpi/runtime.hpp"

namespace exareq::simmpi {
namespace {

constexpr std::size_t kElements = 32;
constexpr std::uint64_t kPayload = kElements * sizeof(double);  // s in bytes

RunResult run_collective(int p, const RankFunction& fn) { return run(p, fn); }

class ByteAccountingTest : public ::testing::TestWithParam<int> {};

std::string rank_count_name(const ::testing::TestParamInfo<int>& info) {
  return "p" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, ByteAccountingTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64),
                         rank_count_name);

TEST_P(ByteAccountingTest, AllreduceCostsTwoSLogPPerRank) {
  const int p = GetParam();
  const auto result = run_collective(p, [](Communicator& comm) {
    const std::vector<double> data(kElements, 1.0);
    (void)comm.allreduce<double>(data, ops::Sum{});
  });
  const auto log2p = static_cast<std::uint64_t>(std::log2(p));
  for (const CommStats& stats : result.stats) {
    EXPECT_EQ(stats.bytes_sent, kPayload * log2p);
    EXPECT_EQ(stats.bytes_received, kPayload * log2p);
    // bytes_total == payload * Allreduce(p) with Allreduce(p) = 2 log2 p.
    EXPECT_EQ(stats.bytes_total(), kPayload * 2 * log2p);
  }
}

TEST_P(ByteAccountingTest, BcastBusiestRankCostsSLogP) {
  const int p = GetParam();
  const auto result = run_collective(p, [](Communicator& comm) {
    std::vector<double> data(kElements, 2.0);
    comm.bcast(data, 0);
  });
  const auto log2p = static_cast<std::uint64_t>(std::log2(p));
  // Root sends one message per tree level and receives nothing.
  EXPECT_EQ(result.stats[0].bytes_sent, kPayload * log2p);
  EXPECT_EQ(result.stats[0].bytes_received, 0u);
  // The busiest rank's total equals payload * Bcast(p) = payload * log2(p).
  EXPECT_EQ(result.max_bytes_per_rank(), kPayload * log2p);
  // Conservation: total sent == total received == (p-1) messages.
  std::uint64_t sent = 0, received = 0;
  for (const CommStats& stats : result.stats) {
    sent += stats.bytes_sent;
    received += stats.bytes_received;
  }
  EXPECT_EQ(sent, kPayload * static_cast<std::uint64_t>(p - 1));
  EXPECT_EQ(received, sent);
}

TEST_P(ByteAccountingTest, AlltoallCostsTwoSTimesPMinusOnePerRank) {
  const int p = GetParam();
  const auto result = run_collective(p, [p](Communicator& comm) {
    const std::vector<double> data(kElements * static_cast<std::size_t>(p), 1.0);
    (void)comm.alltoall<double>(data);
  });
  for (const CommStats& stats : result.stats) {
    EXPECT_EQ(stats.bytes_sent, kPayload * static_cast<std::uint64_t>(p - 1));
    EXPECT_EQ(stats.bytes_total(),
              kPayload * 2 * static_cast<std::uint64_t>(p - 1));
  }
}

TEST_P(ByteAccountingTest, CollectiveCallCountsAreRecorded) {
  const int p = GetParam();
  const auto result = run_collective(p, [](Communicator& comm) {
    const std::vector<double> data(4, 1.0);
    (void)comm.allreduce<double>(data, ops::Sum{});
    comm.barrier();
    std::vector<double> b(4, 0.0);
    if (comm.rank() == 0) b.assign(4, 1.0);
    comm.bcast(b, 0);
  });
  for (const CommStats& stats : result.stats) {
    EXPECT_EQ(stats.collective_calls, 3u);
  }
}

TEST(ByteAccountingTest, SingleRankCollectivesMoveNoBytes) {
  const auto result = run_collective(1, [](Communicator& comm) {
    const std::vector<double> data(kElements, 1.0);
    (void)comm.allreduce<double>(data, ops::Sum{});
    (void)comm.alltoall<double>(data);
    std::vector<double> b(kElements, 1.0);
    comm.bcast(b, 0);
    comm.barrier();
  });
  EXPECT_EQ(result.stats[0].bytes_total(), 0u);
}

TEST(ByteAccountingTest, NonPowerOfTwoAllreduceStaysNearClosedForm) {
  // The binary-block fallback adds at most two extra payloads for the
  // folded ranks; the busiest rank stays within [2 s log2 p, 2 s (log2 p + 2)].
  for (const int p : {3, 5, 6, 7, 12, 24}) {
    const auto result = run_collective(p, [](Communicator& comm) {
      const std::vector<double> data(kElements, 1.0);
      (void)comm.allreduce<double>(data, ops::Sum{});
    });
    const double log2p = std::floor(std::log2(p));
    const auto busiest = static_cast<double>(result.max_bytes_per_rank());
    EXPECT_GE(busiest, 2.0 * static_cast<double>(kPayload) * log2p) << p;
    EXPECT_LE(busiest, 2.0 * static_cast<double>(kPayload) * (log2p + 2.0)) << p;
  }
}

}  // namespace
}  // namespace exareq::simmpi
