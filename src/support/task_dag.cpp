#include "support/task_dag.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace exareq {

std::size_t TaskDag::add(std::function<void()> fn) {
  Task task;
  task.fn = std::move(fn);
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

std::size_t TaskDag::add(std::string name, std::function<void()> fn) {
  Task task;
  task.fn = std::move(fn);
  task.name = std::move(name);
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

void TaskDag::depend(std::size_t task, std::size_t prereq) {
  exareq::require(task < tasks_.size() && prereq < tasks_.size(),
                  "TaskDag::depend: unknown task id");
  exareq::require(prereq < task,
                  "TaskDag::depend: edges must point backwards (prereq < task)");
  tasks_[prereq].dependents.push_back(task);
  ++tasks_[task].pending_prereqs;
}

void TaskDag::execute(Task& task) {
  obs::ScopedSpan span(task.name.empty() ? std::string_view("task")
                                         : std::string_view(task.name),
                       "taskdag");
  try {
    task.fn();
  } catch (...) {
    task.error = std::current_exception();
    span.arg("failed", 1.0);
  }
}

void TaskDag::finish_run() const {
  const Task* failing = nullptr;
  std::size_t failures = 0;
  std::size_t skipped = 0;
  for (const Task& task : tasks_) {
    if (task.skipped) ++skipped;
    if (task.error) {
      ++failures;
      if (failing == nullptr) failing = &task;
    }
  }
  auto& metrics = obs::MetricRegistry::instance();
  metrics.counter("taskdag.tasks").add(tasks_.size());
  metrics.counter("taskdag.failures").add(failures);
  metrics.counter("taskdag.skipped").add(skipped);

  if (failing == nullptr) return;
  if (failing->name.empty()) std::rethrow_exception(failing->error);
  // Attach the failing task's name to the message while keeping the exareq
  // exception type, so callers matching on InvalidArgument/NumericError
  // still work and the report names the grid point that died.
  const std::string context = "task '" + failing->name + "' failed: ";
  try {
    std::rethrow_exception(failing->error);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(context + e.what());
  } catch (const NumericError& e) {
    throw NumericError(context + e.what());
  } catch (const Error& e) {
    throw Error(context + e.what());
  } catch (const std::exception& e) {
    throw Error(context + e.what());
  }
  // Non-std exceptions carry no message to augment; propagate unchanged.
}

void TaskDag::run(ThreadPool& pool) {
  const std::size_t count = tasks_.size();
  if (count == 0) return;

  std::mutex mutex;
  std::condition_variable ready_cv;
  // Min-heap of runnable task ids: the smallest ready id runs first, which
  // keeps scheduling close to serial order without affecting results.
  std::vector<std::size_t> ready;
  std::size_t settled = 0;

  {
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t id = 0; id < count; ++id) {
      if (tasks_[id].pending_prereqs == 0) ready.push_back(id);
    }
    std::make_heap(ready.begin(), ready.end(), std::greater<>());
  }

  // Settles `id` under `lock`: propagates skips to dependents of a failed or
  // skipped task and releases dependents whose last prerequisite this was.
  const auto settle = [&](std::size_t id, bool failed) {
    Task& task = tasks_[id];
    ++settled;
    for (const std::size_t dependent : task.dependents) {
      if (failed || task.skipped) tasks_[dependent].skipped = true;
      if (--tasks_[dependent].pending_prereqs == 0) {
        ready.push_back(dependent);
        std::push_heap(ready.begin(), ready.end(), std::greater<>());
      }
    }
  };

  // parallel_for hands out `count` slots; each slot consumes exactly one
  // task. A slot that finds no runnable task waits: because edges point
  // backwards the graph is acyclic, so some task is always running or ready
  // until all have settled, and every settle() notifies the waiters.
  pool.parallel_for(count, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ready_cv.wait(lock, [&] { return !ready.empty(); });
    std::pop_heap(ready.begin(), ready.end(), std::greater<>());
    const std::size_t id = ready.back();
    ready.pop_back();

    Task& task = tasks_[id];
    if (task.skipped) {
      settle(id, false);
      ready_cv.notify_all();
      return;
    }
    lock.unlock();
    execute(task);
    lock.lock();
    settle(id, task.error != nullptr);
    ready_cv.notify_all();
  });

  exareq::require(settled == count, "TaskDag::run: scheduler lost tasks");
  finish_run();
}

}  // namespace exareq
