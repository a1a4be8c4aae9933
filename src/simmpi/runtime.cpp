#include "simmpi/runtime.hpp"

#include <utility>

#include "simmpi/fiber.hpp"

namespace exareq::simmpi {
namespace {

// Ranks run the proxy kernels, which keep their data in heap buffers, so a
// small stack suffices; only the pages a rank touches cost memory.
// Sanitizer builds inflate every frame.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kRankStackBytes = std::size_t{1} << 20;
#else
constexpr std::size_t kRankStackBytes = std::size_t{256} << 10;
#endif

/// Thrown into a parked rank to unwind its stack when run() gives up on it.
/// Deliberately not an std::exception, so rank code that catches those
/// lets it pass.
struct Cancelled {};

}  // namespace

Runtime::Runtime(int size) : size_(size) {
  exareq::require(size >= 1, "Runtime: size must be >= 1");
  const auto count = static_cast<std::size_t>(size);
  mailboxes_.resize(count);
  stats_.resize(count);
  ranks_.resize(count);
  ready_.resize(count);
}

Runtime::~Runtime() = default;

Mailbox& Runtime::mailbox(Rank r) {
  exareq::require(r >= 0 && r < size_, "Runtime::mailbox: rank out of range");
  return mailboxes_[static_cast<std::size_t>(r)];
}

CommStats& Runtime::stats(Rank r) {
  exareq::require(r >= 0 && r < size_, "Runtime::stats: rank out of range");
  return stats_[static_cast<std::size_t>(r)];
}

void Runtime::deliver(Rank dest, Envelope envelope) {
  Mailbox& box = mailbox(dest);
  RankState& state = ranks_[static_cast<std::size_t>(dest)];
  if (state.status == Status::kParked &&
      matches(envelope, state.wait_source, state.wait_tag)) {
    make_ready(dest);
  }
  box.put(std::move(envelope));
}

Envelope Runtime::receive(Rank self, Rank source, Tag tag) {
  Mailbox& box = mailbox(self);
  for (;;) {
    if (std::optional<Envelope> envelope = box.take(source, tag)) {
      return std::move(*envelope);
    }
    park(self, source, tag);
  }
}

void Runtime::park(Rank self, Rank source, Tag tag) {
  exareq::require(self == current_,
                  "Runtime::receive: only the running rank of a job started "
                  "by run() can wait for a message");
  if (cancelling_) throw Cancelled{};
  RankState& state = ranks_[static_cast<std::size_t>(self)];
  state.status = Status::kParked;
  state.wait_source = source;
  state.wait_tag = tag;
  state.fiber->suspend();
  if (cancelling_) throw Cancelled{};
}

void Runtime::make_ready(Rank rank) {
  ranks_[static_cast<std::size_t>(rank)].status = Status::kReady;
  ready_[(ready_head_ + ready_count_) % ready_.size()] = rank;
  ++ready_count_;
}

void Runtime::switch_to(Rank rank) {
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  state.status = Status::kRunning;
  current_ = rank;
  state.fiber->resume();
  current_ = -1;
}

void Runtime::rank_entry(void* runtime) {
  static_cast<Runtime*>(runtime)->rank_main();
}

void Runtime::rank_main() {
  const Rank rank = current_;
  RankState& state = ranks_[static_cast<std::size_t>(rank)];
  try {
    Communicator comm(rank, *this);
    (*rank_function_)(comm);
  } catch (const Cancelled&) {
    // Unwound by run(): a peer failed or the job deadlocked.
  } catch (...) {
    state.error = std::current_exception();
  }
  // Outside the handler: the fiber switches away for good on return, and a
  // handler left open across a switch would corrupt this thread's
  // exception bookkeeping.
  state.status = Status::kDone;
}

void Runtime::run(const RankFunction& rank_function) {
  exareq::require(rank_function_ == nullptr, "Runtime::run: already ran a job");
  rank_function_ = &rank_function;
  for (Rank r = 0; r < size_; ++r) {
    ranks_[static_cast<std::size_t>(r)].fiber =
        std::make_unique<Fiber>(kRankStackBytes, &Runtime::rank_entry, this);
    make_ready(r);
  }
  while (ready_count_ > 0) {
    const Rank next = ready_[ready_head_];
    ready_head_ = (ready_head_ + 1) % ready_.size();
    --ready_count_;
    switch_to(next);
  }

  // Nothing is ready: every rank finished, or the unfinished ones all wait
  // for messages no rank will send.
  std::vector<Rank> parked;
  for (Rank r = 0; r < size_; ++r) {
    if (ranks_[static_cast<std::size_t>(r)].status != Status::kDone) {
      parked.push_back(r);
    }
  }
  std::string deadlock;
  if (!parked.empty()) {
    deadlock = describe_parked(parked);
    cancelling_ = true;
    for (const Rank r : parked) switch_to(r);
  }
  for (const RankState& state : ranks_) {
    if (state.error) std::rethrow_exception(state.error);
  }
  if (!parked.empty()) throw DeadlockError(deadlock);
}

std::string Runtime::describe_parked(const std::vector<Rank>& parked) const {
  constexpr std::size_t kListed = 16;
  std::string text = "simmpi: deadlock: " + std::to_string(parked.size()) +
                     " of " + std::to_string(size_) +
                     " ranks wait for messages no rank will send:";
  for (std::size_t i = 0; i < parked.size() && i < kListed; ++i) {
    const RankState& state = ranks_[static_cast<std::size_t>(parked[i])];
    text += (i == 0 ? " rank " : ", rank ") + std::to_string(parked[i]) +
            " (source " + std::to_string(state.wait_source) + ", tag " +
            std::to_string(state.wait_tag) + ")";
  }
  if (parked.size() > kListed) {
    text += ", and " + std::to_string(parked.size() - kListed) + " more";
  }
  return text;
}

RunResult run(int size, const RankFunction& rank_function) {
  exareq::require(size >= 1 && size <= 512,
                  "run: rank count must be in [1, 512]");
  exareq::require(static_cast<bool>(rank_function), "run: null rank function");

  Runtime runtime(size);
  runtime.run(rank_function);

  RunResult result;
  result.stats = runtime.all_stats();
  return result;
}

}  // namespace exareq::simmpi
