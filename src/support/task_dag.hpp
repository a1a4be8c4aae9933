// Small dependency-graph scheduler on top of ThreadPool.
//
// A TaskDag holds numbered tasks plus edges "task t may only start after
// prereq q". Edges must point backwards (q < t), which makes the graph
// acyclic by construction and task-id order a valid topological order.
// run(pool) schedules every task whose prerequisites have settled onto the
// pool, smallest ready id first; on a ThreadPool(1), which has no workers,
// that executes the tasks inline in id order.
//
// The determinism contract matches ThreadPool::parallel_for: every task must
// write only into its own preallocated slot, so the combined result is
// bit-identical at any thread count.
//
// Failure model: a throwing task marks itself failed; its transitive
// dependents are skipped (never started), but all independent tasks still
// run to completion. Afterwards the exception of the smallest failing task
// id is rethrown — the same error a serial run in id order would surface.
// Named tasks rethrow with the task's name attached to the message (the
// exareq exception type is preserved), so a campaign failure reports which
// grid point died instead of a bare "injected failure".
//
// Observability: each task execution is recorded as an obs::ScopedSpan
// under its name (category "taskdag") when tracing is enabled, and the
// "taskdag.tasks" / "taskdag.failures" / "taskdag.skipped" counters of the
// global MetricRegistry are bumped per run.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "support/thread_pool.hpp"

namespace exareq {

class TaskDag {
 public:
  /// Adds a task and returns its id (ids are dense, starting at 0).
  std::size_t add(std::function<void()> fn);

  /// Adds a named task: the name labels the task's trace span and is
  /// attached to its error on rethrow ("task 'name' failed: ...").
  std::size_t add(std::string name, std::function<void()> fn);

  /// Declares that `task` must not start before `prereq` has finished.
  /// Requires prereq < task (edges point backwards; see file comment).
  void depend(std::size_t task, std::size_t prereq);

  std::size_t size() const { return tasks_.size(); }

  /// Executes all tasks on `pool`, respecting dependencies. Blocks until
  /// every task has settled (finished, failed, or been skipped).
  void run(ThreadPool& pool);

 private:
  struct Task {
    std::function<void()> fn;
    std::string name;  ///< empty for unnamed tasks
    std::vector<std::size_t> dependents;
    std::size_t pending_prereqs = 0;
    bool skipped = false;
    std::exception_ptr error;
  };

  /// Runs one task's function inside its trace span, catching its error.
  void execute(Task& task);

  /// Rethrows the error of the smallest failing task id, if any; named
  /// tasks get their name prefixed onto the message (type preserved for
  /// the exareq exception hierarchy). Also records the failure/skip
  /// counters for the finished run.
  void finish_run() const;

  std::vector<Task> tasks_;
};

}  // namespace exareq
