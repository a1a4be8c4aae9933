#include "support/task_dag.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace exareq {
namespace {

/// Runs `dag` as a serial campaign does: a one-thread pool has no workers,
/// so every task runs inline and the ready heap releases them in id order.
void run_on_one_thread(TaskDag& dag) {
  ThreadPool pool(1);
  dag.run(pool);
}

TEST(TaskDagTest, SerialRunsInIdOrder) {
  TaskDag dag;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    dag.add([&order, i] { order.push_back(i); });
  }
  run_on_one_thread(dag);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskDagTest, DependRequiresBackwardEdges) {
  TaskDag dag;
  dag.add([] {});
  dag.add([] {});
  EXPECT_THROW(dag.depend(0, 1), InvalidArgument);  // forward edge
  EXPECT_THROW(dag.depend(1, 1), InvalidArgument);  // self edge
  EXPECT_THROW(dag.depend(5, 0), InvalidArgument);  // unknown id
  dag.depend(1, 0);
}

TEST(TaskDagTest, ParallelRespectsDependencies) {
  // A chain interleaved with independent tasks: every chain link checks that
  // its predecessor's value is already in place.
  TaskDag dag;
  constexpr std::size_t kLinks = 32;
  std::vector<std::size_t> chain(kLinks, 0);
  std::atomic<std::size_t> independent{0};
  std::size_t previous_id = dag.add([&chain] { chain[0] = 1; });
  for (std::size_t i = 1; i < kLinks; ++i) {
    dag.add([&independent] { independent.fetch_add(1); });
    const std::size_t id =
        dag.add([&chain, i] { chain[i] = chain[i - 1] + 1; });
    dag.depend(id, previous_id);
    previous_id = id;
  }
  ThreadPool pool(4);
  dag.run(pool);
  for (std::size_t i = 0; i < kLinks; ++i) EXPECT_EQ(chain[i], i + 1);
  EXPECT_EQ(independent.load(), kLinks - 1);
}

TEST(TaskDagTest, ParallelMatchesSerialSlots) {
  // Every task writes its own slot; parallel and serial runs must agree.
  const auto build = [](std::vector<int>& slots) {
    TaskDag dag;
    for (int i = 0; i < 40; ++i) {
      dag.add([&slots, i] { slots[static_cast<std::size_t>(i)] = i * i; });
    }
    for (std::size_t t = 8; t < 40; t += 3) dag.depend(t, t - 8);
    return dag;
  };
  std::vector<int> serial(40, -1);
  std::vector<int> parallel(40, -1);
  TaskDag serial_dag = build(serial);
  run_on_one_thread(serial_dag);
  ThreadPool pool(8);
  build(parallel).run(pool);
  EXPECT_EQ(serial, parallel);
}

TEST(TaskDagTest, SmallestFailingTaskWins) {
  // Two independent failures: the rethrown error is the smaller task id's,
  // in both serial and parallel mode.
  const auto build = [](TaskDag& dag, std::atomic<int>& ran) {
    dag.add([&ran] { ran.fetch_add(1); });
    dag.add([] { throw NumericError("task 1 failed"); });
    dag.add([&ran] { ran.fetch_add(1); });
    dag.add([] { throw NumericError("task 3 failed"); });
    dag.add([&ran] { ran.fetch_add(1); });
  };
  {
    TaskDag dag;
    std::atomic<int> ran{0};
    build(dag, ran);
    EXPECT_THROW(
        {
          try {
            run_on_one_thread(dag);
          } catch (const NumericError& e) {
            EXPECT_STREQ(e.what(), "task 1 failed");
            throw;
          }
        },
        NumericError);
    EXPECT_EQ(ran.load(), 3);  // independent tasks still ran
  }
  {
    TaskDag dag;
    std::atomic<int> ran{0};
    build(dag, ran);
    ThreadPool pool(4);
    EXPECT_THROW(
        {
          try {
            dag.run(pool);
          } catch (const NumericError& e) {
            EXPECT_STREQ(e.what(), "task 1 failed");
            throw;
          }
        },
        NumericError);
    EXPECT_EQ(ran.load(), 3);
  }
}

TEST(TaskDagTest, FailureSkipsTransitiveDependents) {
  for (const bool parallel : {false, true}) {
    TaskDag dag;
    std::atomic<int> ran{0};
    const std::size_t failing = dag.add([] { throw NumericError("boom"); });
    const std::size_t child = dag.add([&ran] { ran.fetch_add(1); });
    dag.depend(child, failing);
    const std::size_t grandchild = dag.add([&ran] { ran.fetch_add(1); });
    dag.depend(grandchild, child);
    const std::size_t independent = dag.add([&ran] { ran.fetch_add(10); });
    (void)independent;
    if (parallel) {
      ThreadPool pool(4);
      EXPECT_THROW(dag.run(pool), NumericError);
    } else {
      EXPECT_THROW(run_on_one_thread(dag), NumericError);
    }
    EXPECT_EQ(ran.load(), 10);  // only the independent task ran
  }
}

TEST(TaskDagTest, RunsInlineOnSingleThreadPool) {
  TaskDag dag;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    dag.add([&order, i] { order.push_back(i); });
  }
  dag.depend(5, 0);
  dag.depend(3, 1);
  ThreadPool pool(1);
  dag.run(pool);
  // Inline execution pops the smallest ready id first -> id order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(TaskDagTest, EmptyDagIsANoop) {
  TaskDag dag;
  run_on_one_thread(dag);
  ThreadPool pool(2);
  dag.run(pool);
}

TEST(TaskDagTest, NamedTaskErrorCarriesTaskName) {
  // Regression: the rethrown error of a named task must name the task (a
  // campaign failure should say which grid point died) while preserving the
  // exareq exception type, identically in serial and parallel mode.
  for (const bool parallel : {false, true}) {
    TaskDag dag;
    dag.add("measure p=4 n=32", [] {});
    dag.add("measure p=8 n=32",
            [] { throw NumericError("injected failure"); });
    std::string message;
    try {
      if (parallel) {
        ThreadPool pool(4);
        dag.run(pool);
      } else {
        run_on_one_thread(dag);
      }
      FAIL() << "expected NumericError";
    } catch (const NumericError& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "task 'measure p=8 n=32' failed: injected failure");
  }
}

TEST(TaskDagTest, NamedTaskWrapPreservesExceptionType) {
  const auto thrown_message = [](TaskDag& dag) {
    try {
      run_on_one_thread(dag);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  {
    TaskDag dag;
    dag.add("t", [] { throw InvalidArgument("bad input"); });
    EXPECT_THROW(run_on_one_thread(dag), InvalidArgument);
  }
  {
    TaskDag dag;
    dag.add("t", [] { throw std::runtime_error("plain"); });
    EXPECT_EQ(thrown_message(dag), "task 't' failed: plain");
  }
  {
    // Unnamed tasks rethrow the original exception object untouched.
    TaskDag dag;
    dag.add([] { throw NumericError("untouched"); });
    EXPECT_EQ(thrown_message(dag), "untouched");
  }
}

TEST(TaskDagTest, SmallestFailingNamedTaskWinsInParallel) {
  // The named wrap must not break the determinism contract: serial and
  // parallel runs surface the same (smallest-id) task's error text.
  const auto run_message = [](bool parallel) {
    TaskDag dag;
    for (int i = 0; i < 8; ++i) {
      dag.add("task " + std::to_string(i), [i] {
        if (i % 3 == 1) {
          throw NumericError("failure " + std::to_string(i));
        }
      });
    }
    try {
      if (parallel) {
        ThreadPool pool(4);
        dag.run(pool);
      } else {
        run_on_one_thread(dag);
      }
    } catch (const NumericError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string serial = run_message(false);
  EXPECT_EQ(serial, "task 'task 1' failed: failure 1");
  EXPECT_EQ(run_message(true), serial);
}

}  // namespace
}  // namespace exareq
