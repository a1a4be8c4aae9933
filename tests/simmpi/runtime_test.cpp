#include "simmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace exareq::simmpi {
namespace {

/// Counts its destructions, so a test can see that a rank's stack unwound.
struct UnwindProbe {
  int* count;
  ~UnwindProbe() { ++*count; }
};

TEST(RuntimeTest, SingleRankRuns) {
  std::atomic<int> calls{0};
  run(1, [&calls](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(RuntimeTest, EveryRankGetsDistinctRank) {
  constexpr int p = 16;
  std::vector<std::atomic<int>> seen(p);
  run(p, [&seen](Communicator& comm) {
    ++seen[static_cast<std::size_t>(comm.rank())];
  });
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST(RuntimeTest, PointToPointRoundTrip) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> data{3.14, 2.71};
      comm.send<double>(1, 5, data);
      const auto back = comm.recv<double>(1, 6);
      EXPECT_DOUBLE_EQ(back[0], 6.28);
    } else {
      auto data = comm.recv<double>(0, 5);
      for (double& v : data) v *= 2.0;
      comm.send<double>(0, 6, std::vector<double>{data[0]});
    }
  });
}

TEST(RuntimeTest, SelfSendIsDelivered) {
  run(1, [](Communicator& comm) {
    comm.send<std::int64_t>(0, 1, std::vector<std::int64_t>{7});
    EXPECT_EQ(comm.recv<std::int64_t>(0, 1)[0], 7);
  });
}

TEST(RuntimeTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 2) {
                       throw exareq::NumericError("rank 2 failed");
                     }
                   }),
               exareq::NumericError);
}

TEST(RuntimeTest, RejectsInvalidSizes) {
  EXPECT_THROW(run(0, [](Communicator&) {}), exareq::InvalidArgument);
  EXPECT_THROW(run(-3, [](Communicator&) {}), exareq::InvalidArgument);
  EXPECT_THROW(run(100000, [](Communicator&) {}), exareq::InvalidArgument);
}

TEST(RuntimeTest, RejectsNullFunction) {
  EXPECT_THROW(run(2, RankFunction{}), exareq::InvalidArgument);
}

TEST(RuntimeTest, SendValidatesDestination) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       comm.send<double>(5, 0, std::vector<double>{1.0});
                     }
                   }),
               exareq::InvalidArgument);
}

TEST(RuntimeTest, StatsCountPointToPointBytes) {
  const RunResult result = run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 0, std::vector<double>(10));  // 80 bytes
    } else {
      (void)comm.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(result.stats[0].bytes_sent, 80u);
  EXPECT_EQ(result.stats[0].bytes_received, 0u);
  EXPECT_EQ(result.stats[0].messages_sent, 1u);
  EXPECT_EQ(result.stats[1].bytes_received, 80u);
  EXPECT_EQ(result.stats[1].messages_received, 1u);
  EXPECT_EQ(result.max_bytes_per_rank(), 80u);
}

TEST(RuntimeTest, StatsAggregationHelpers) {
  std::vector<CommStats> stats(3);
  stats[0].bytes_sent = 10;
  stats[1].bytes_sent = 5;
  stats[1].bytes_received = 20;
  stats[2].bytes_received = 7;
  EXPECT_EQ(max_bytes_total(stats), 25u);
  EXPECT_NEAR(mean_bytes_total(stats), (10.0 + 25.0 + 7.0) / 3.0, 1e-12);
  EXPECT_THROW(max_bytes_total({}), exareq::InvalidArgument);
}

TEST(RuntimeTest, FromBytesRejectsMisalignedPayload) {
  const std::vector<std::byte> bytes(7);
  EXPECT_THROW(from_bytes<double>(bytes), exareq::InvalidArgument);
}

TEST(RuntimeTest, ToBytesFromBytesRoundTrip) {
  const std::vector<double> values{1.0, -2.5, 1e300};
  const auto bytes = to_bytes<double>(values);
  EXPECT_EQ(bytes.size(), 24u);
  EXPECT_EQ(from_bytes<double>(bytes), values);
}

// -- fiber scheduling ------------------------------------------------------

TEST(RuntimeTest, RecvParksUntilMatchingSend) {
  // Rank 0 runs first and receives before rank 1 has sent: it parks, rank 1
  // runs and sends, and rank 0 resumes with the message.
  std::size_t received = 0;
  run(2, [&received](Communicator& comm) {
    if (comm.rank() == 0) {
      received = comm.recv_bytes(1, 9).size();
    } else {
      comm.send_bytes(0, 9, std::vector<std::byte>(21));
    }
  });
  EXPECT_EQ(received, 21u);
}

TEST(RuntimeTest, ManyProducersDeliverInPerSourceOrder) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 100;
  std::vector<std::size_t> sizes;
  run(kProducers + 1, [&sizes](Communicator& comm) {
    if (comm.rank() != 0) {
      for (std::size_t i = 1; i <= kPerProducer; ++i) {
        comm.send_bytes(0, 0, std::vector<std::byte>(i));
      }
      return;
    }
    // Per-source FIFO (MPI's non-overtaking rule) across interleaved senders.
    for (Rank producer = 1; producer <= kProducers; ++producer) {
      for (int i = 0; i < kPerProducer; ++i) {
        sizes.push_back(comm.recv_bytes(producer, 0).size());
      }
    }
  });
  ASSERT_EQ(sizes.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    ASSERT_EQ(sizes[k], k % kPerProducer + 1) << "message " << k;
  }
}

TEST(RuntimeTest, RecvAnyOrderIsTheSameOnEveryRun) {
  // The name is from the wildcard receive rank 0 used before simmpi dropped
  // it; the order checked now is the whole schedule's. Five senders
  // interleave their sends to rank 0 with a ring exchange among themselves,
  // while rank 0 receives from the last sender first, so ranks park and
  // resume in an order only the scheduler decides. Each rank logs its
  // number before every send and rank 0 logs -1 after every receive; the
  // ranks are fibers on one thread, so the shared log needs no lock and
  // records the schedule itself. The schedule is fixed, so the log repeats
  // exactly.
  constexpr int kSenders = 5;
  constexpr int kRounds = 3;
  const auto schedule = [] {
    std::vector<Rank> log;
    run(kSenders + 1, [&log](Communicator& comm) {
      if (comm.rank() == 0) {
        for (int round = 0; round < kRounds; ++round) {
          for (Rank sender = kSenders; sender >= 1; --sender) {
            EXPECT_EQ(comm.recv<int>(sender, 1)[0], round);
            log.push_back(-1);
          }
        }
        return;
      }
      const Rank next = comm.rank() % kSenders + 1;
      const Rank previous = (comm.rank() + kSenders - 2) % kSenders + 1;
      for (int round = 0; round < kRounds; ++round) {
        log.push_back(comm.rank());
        comm.send<int>(0, 1, std::vector<int>{round});
        log.push_back(comm.rank());
        (void)comm.sendrecv<int>(next, std::vector<int>{round}, previous, 3);
      }
    });
    return log;
  };
  const std::vector<Rank> first = schedule();
  ASSERT_EQ(first.size(), static_cast<std::size_t>(3 * kSenders * kRounds));
  EXPECT_EQ(std::count(first.begin(), first.end(), -1), kSenders * kRounds);
  for (Rank r = 1; r <= kSenders; ++r) {
    EXPECT_EQ(std::count(first.begin(), first.end(), r), 2 * kRounds) << r;
  }
  for (int repeat = 1; repeat < 20; ++repeat) {
    ASSERT_EQ(schedule(), first) << "repeat " << repeat;
  }
}

TEST(RuntimeTest, RankFailureSurfacesWhileAPeerWaitsOnIt) {
  // Rank 0 parks on a message rank 1 never sends because rank 1 throws: the
  // job must neither hang nor report a deadlock, but rethrow rank 1's error.
  try {
    run(2, [](Communicator& comm) {
      if (comm.rank() == 0) {
        (void)comm.recv<double>(1, 4);
      } else {
        throw exareq::NumericError("rank 1 failed");
      }
    });
    FAIL() << "run() returned";
  } catch (const exareq::NumericError& error) {
    EXPECT_STREQ(error.what(), "rank 1 failed");
  }
}

TEST(RuntimeTest, LowestFailedRankWinsAndParkedRanksAreUnwound) {
  // Every parked rank's stack is unwound (its destructors run) before the
  // error of the lowest failing rank is rethrown.
  int unwound = 0;
  try {
    run(6, [&unwound](Communicator& comm) {
      const UnwindProbe probe{&unwound};
      if (comm.rank() == 2 || comm.rank() == 4) {
        throw exareq::NumericError("rank " + std::to_string(comm.rank()));
      }
      comm.barrier();
    });
    FAIL() << "run() returned";
  } catch (const exareq::NumericError& error) {
    EXPECT_STREQ(error.what(), "rank 2");
  }
  EXPECT_EQ(unwound, 6);
}

TEST(RuntimeTest, MutualReceiveRaisesDeadlockError) {
  int unwound = 0;
  try {
    run(3, [&unwound](Communicator& comm) {
      const UnwindProbe probe{&unwound};
      if (comm.rank() == 2) return;  // finishes; only 0 and 1 deadlock
      const Rank peer = 1 - comm.rank();
      (void)comm.recv<int>(peer, 7);
      comm.send<int>(peer, 7, std::vector<int>{1});
    });
    FAIL() << "run() returned";
  } catch (const DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("2 of 3 ranks"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0 (source 1, tag 7)"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1 (source 0, tag 7)"), std::string::npos) << what;
  }
  EXPECT_EQ(unwound, 3);
}

TEST(RuntimeTest, FiveHundredTwelveRanksCompleteAnAllreduce) {
  constexpr int p = 512;
  std::vector<std::int64_t> sums(p, 0);
  run(p, [&sums](Communicator& comm) {
    const std::vector<std::int64_t> mine{comm.rank() + 1};
    sums[static_cast<std::size_t>(comm.rank())] =
        comm.allreduce<std::int64_t>(mine, ops::Sum{})[0];
  });
  for (const std::int64_t sum : sums) EXPECT_EQ(sum, p * (p + 1) / 2);
}

TEST(RuntimeTest, EachRankKeepsItsOwnFloatingPointControlState) {
  // A rank's rounding mode lives in the x87 control word and in MXCSR, which
  // a fiber switch must save and restore. Each rank sets its own mode and
  // then parks — in a ring where each rank sends to its predecessor and
  // receives from its successor, and in a barrier — while ranks with other
  // modes run. fegetround reads the x87 control word; a division of
  // runtime values is done in SSE and rounds by MXCSR.
  constexpr int kModes[] = {FE_TONEAREST, FE_DOWNWARD, FE_UPWARD,
                            FE_TOWARDZERO};
  constexpr int p = 4;
  const int caller_mode = fegetround();
  volatile double numerator = 1.0;
  volatile double denominator = 3.0;
  std::vector<double> expected_third(p);
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(fesetround(kModes[r]), 0);
    expected_third[static_cast<std::size_t>(r)] = numerator / denominator;
  }
  ASSERT_EQ(fesetround(caller_mode), 0);
  ASSERT_NE(expected_third[1], expected_third[2]);  // down vs up differ
  const double caller_third = numerator / denominator;

  std::vector<int> mode_read(p, -1);
  std::vector<double> third(p, 0.0);
  run(p, [&](Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    EXPECT_EQ(fesetround(kModes[r]), 0);
    const Rank predecessor = (comm.rank() + p - 1) % p;
    const Rank successor = (comm.rank() + 1) % p;
    comm.send<int>(predecessor, 2, std::vector<int>{comm.rank()});
    EXPECT_EQ(comm.recv<int>(successor, 2)[0], successor);
    comm.barrier();
    mode_read[r] = fegetround();
    third[r] = numerator / denominator;
  });
  EXPECT_EQ(fegetround(), caller_mode);
  EXPECT_EQ(numerator / denominator, caller_third);
  for (std::size_t r = 0; r < p; ++r) {
    EXPECT_EQ(mode_read[r], kModes[r]) << "rank " << r;
    EXPECT_EQ(third[r], expected_third[r]) << "rank " << r;
  }
  fesetround(caller_mode);
}

TEST(RuntimeTest, ReceiveOutsideRunIsRejected) {
  // Without run() there is no scheduler to park on: an unmatched receive
  // would wait forever, so it throws instead.
  Runtime runtime(2);
  Communicator comm(0, runtime);
  EXPECT_THROW((void)comm.recv_bytes(1, 0), exareq::InvalidArgument);
}

}  // namespace
}  // namespace exareq::simmpi
