// Correctness of every collective over a sweep of rank counts, including
// non-powers of two (exercising the allreduce fallback and the generic
// tree and pairwise paths).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "simmpi/runtime.hpp"

namespace exareq::simmpi {
namespace {

class CollectiveTest : public ::testing::TestWithParam<int> {};

std::string rank_count_name(const ::testing::TestParamInfo<int>& info) {
  return "p" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 32),
                         rank_count_name);

TEST_P(CollectiveTest, BcastDeliversRootData) {
  const int p = GetParam();
  for (const Rank root : {0, p - 1}) {
    run(p, [root](Communicator& comm) {
      std::vector<double> data;
      if (comm.rank() == root) data = {1.5, 2.5, 3.5};
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_DOUBLE_EQ(data[0], 1.5);
      EXPECT_DOUBLE_EQ(data[1], 2.5);
      EXPECT_DOUBLE_EQ(data[2], 3.5);
    });
  }
}

TEST_P(CollectiveTest, AllreduceSumsOverRanks) {
  const int p = GetParam();
  run(p, [p](Communicator& comm) {
    const std::vector<std::int64_t> mine{comm.rank(), 2 * comm.rank(), 1};
    const auto result = comm.allreduce<std::int64_t>(mine, ops::Sum{});
    const std::int64_t rank_sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
    ASSERT_EQ(result.size(), 3u);
    EXPECT_EQ(result[0], rank_sum);
    EXPECT_EQ(result[1], 2 * rank_sum);
    EXPECT_EQ(result[2], p);
  });
}

TEST_P(CollectiveTest, AllreduceMaxAndMin) {
  const int p = GetParam();
  run(p, [p](Communicator& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank())};
    EXPECT_DOUBLE_EQ(comm.allreduce<double>(mine, ops::Max{})[0], p - 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce<double>(mine, ops::Min{})[0], 0.0);
  });
}

TEST_P(CollectiveTest, ReduceAtRoot) {
  const int p = GetParam();
  const Rank root = p / 2;
  run(p, [p, root](Communicator& comm) {
    const std::vector<std::int64_t> mine{1, comm.rank()};
    const auto result = comm.reduce<std::int64_t>(mine, ops::Sum{}, root);
    if (comm.rank() == root) {
      EXPECT_EQ(result[0], p);
      EXPECT_EQ(result[1], static_cast<std::int64_t>(p) * (p - 1) / 2);
    }
  });
}

TEST_P(CollectiveTest, AlltoallTransposesBlocks) {
  const int p = GetParam();
  run(p, [p](Communicator& comm) {
    // Block for destination d carries value 100 * rank + d.
    std::vector<std::int64_t> mine(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) mine[d] = 100 * comm.rank() + d;
    const auto result = comm.alltoall<std::int64_t>(mine);
    ASSERT_EQ(result.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(result[s], 100 * s + comm.rank());
    }
  });
}

TEST_P(CollectiveTest, BarrierCompletesRepeatedly) {
  const int p = GetParam();
  run(p, [](Communicator& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CollectiveTest, BackToBackCollectivesDoNotCrossTalk) {
  const int p = GetParam();
  run(p, [p](Communicator& comm) {
    for (int round = 0; round < 10; ++round) {
      const std::vector<std::int64_t> mine{comm.rank() + round};
      const auto sum = comm.allreduce<std::int64_t>(mine, ops::Sum{});
      EXPECT_EQ(sum[0],
                static_cast<std::int64_t>(p) * (p - 1) / 2 +
                    static_cast<std::int64_t>(p) * round);
      std::vector<std::int64_t> broadcast;
      if (comm.rank() == round % p) broadcast = {round};
      comm.bcast(broadcast, round % p);
      EXPECT_EQ(broadcast[0], round);
    }
  });
}

}  // namespace
}  // namespace exareq::simmpi
