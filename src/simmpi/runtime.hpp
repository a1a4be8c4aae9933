// The simulated MPI runtime: per-rank mailboxes and statistics, and a
// scheduler that runs the ranks of one job as fibers (fiber.hpp) on the
// calling thread. Substitutes the paper's real MPI machines (JUQUEEN,
// Lichtenberg) for requirement measurement — the counted metrics (bytes,
// messages) are architecture independent, which is the paper's own premise.
//
// Scheduling: every rank starts ready, in rank order. The running rank runs
// until it finishes or posts a receive that no queued envelope matches; it
// then parks, and the next ready rank runs (FIFO, starting from rank 0). A
// send that matches a parked rank's receive makes that rank ready again.
// Nothing preempts a rank and no OS thread is created per rank, so the
// interleaving of messages is the same on every run, and a rank-level bug
// replays exactly. A switch between ranks makes no system call on x86-64 (a
// register switch; ucontext elsewhere, see fiber.hpp), and each rank keeps
// its own floating-point control state. Parallelism comes from running several jobs on several
// threads (a campaign runs one grid point per thread).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/stats.hpp"
#include "support/error.hpp"

namespace exareq::simmpi {

class Fiber;

/// Thrown by run() when every unfinished rank is parked in a receive that no
/// rank can satisfy any more and no rank failed. The message names the
/// parked ranks and the (source, tag) each one waits for.
class DeadlockError : public exareq::Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

/// Per-rank entry point.
using RankFunction = std::function<void(Communicator&)>;

/// Shared state of one job (mailboxes, counters, scheduler). Not
/// thread-safe: one job runs on the thread that calls run().
class Runtime {
 public:
  explicit Runtime(int size);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int size() const { return size_; }
  Mailbox& mailbox(Rank r);
  CommStats& stats(Rank r);
  const std::vector<CommStats>& all_stats() const { return stats_; }

  /// Queues `envelope` for `dest`; a rank parked on a receive the envelope
  /// matches becomes ready.
  void deliver(Rank dest, Envelope envelope);

  /// Removes the earliest envelope for `self` matching (source, tag). While
  /// none is queued, parks `self` — which must be the running rank — and
  /// runs the other ranks.
  Envelope receive(Rank self, Rank source, Tag tag);

  /// Runs `rank_function` on every rank to completion; see simmpi::run.
  /// A Runtime runs one job.
  void run(const RankFunction& rank_function);

 private:
  enum class Status { kReady, kRunning, kParked, kDone };

  struct RankState {
    std::unique_ptr<Fiber> fiber;
    Status status = Status::kReady;
    Rank wait_source = 0;  ///< the posted receive, while parked
    Tag wait_tag = 0;
    std::exception_ptr error;  ///< what the rank threw, if it failed
  };

  static void rank_entry(void* runtime);
  void rank_main();
  void switch_to(Rank rank);
  void park(Rank self, Rank source, Tag tag);
  void make_ready(Rank rank);
  std::string describe_parked(const std::vector<Rank>& parked) const;

  int size_;
  std::vector<Mailbox> mailboxes_;
  std::vector<CommStats> stats_;
  std::vector<RankState> ranks_;

  /// Ready ranks, a FIFO ring: a rank is queued at most once at a time.
  std::vector<Rank> ready_;
  std::size_t ready_head_ = 0;
  std::size_t ready_count_ = 0;

  Rank current_ = -1;  ///< the running rank; -1 while the scheduler runs
  const RankFunction* rank_function_ = nullptr;
  bool cancelling_ = false;  ///< run() is unwinding the parked ranks
};

/// Result of a completed job.
struct RunResult {
  std::vector<CommStats> stats;  ///< per-rank communication counters

  std::uint64_t max_bytes_per_rank() const { return max_bytes_total(stats); }
};

/// Runs `rank_function` on `size` ranks as fibers on the calling thread and
/// returns the collected statistics. `size` must be >= 1; sizes beyond 512
/// are rejected to catch runaway configurations.
///
/// Failure semantics: a throwing rank stops participating, and the other
/// ranks run on as far as they can. When every unfinished rank is parked
/// (or none is left), run() unwinds the parked ranks — their stacks'
/// destructors run — and then rethrows the exception of the lowest failed
/// rank. If no rank failed but ranks are still parked, the job deadlocked:
/// run() throws DeadlockError naming the parked ranks. A job never hangs.
/// Rank functions must let the unwinding pass: it is not an std::exception,
/// so `catch (const std::exception&)` does not intercept it.
RunResult run(int size, const RankFunction& rank_function);

}  // namespace exareq::simmpi
