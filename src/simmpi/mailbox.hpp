// Per-rank mailbox with (source, tag) matching.
//
// send() is buffered and never blocks (like an eager-protocol MPI_Send),
// which makes the collective algorithms deadlock-free without requiring
// carefully ordered send/recv pairs. Messages from the same (source, tag)
// pair are delivered in FIFO order (MPI's non-overtaking rule).
//
// A Mailbox never blocks and takes no lock: all ranks of a job run as
// fibers on one thread (runtime.hpp), so only that thread ever touches it.
// A receive that finds no match parks its rank in the runtime instead.
#pragma once

#include <optional>
#include <vector>

#include "simmpi/message.hpp"

namespace exareq::simmpi {

/// True when `envelope` satisfies a receive posted for (source, tag).
inline bool matches(const Envelope& envelope, Rank source, Tag tag) {
  return envelope.source == source && envelope.tag == tag;
}

class Mailbox {
 public:
  /// Enqueues an envelope.
  void put(Envelope envelope);

  /// Removes and returns the earliest envelope with matching source and
  /// tag, or nullopt when none is queued.
  std::optional<Envelope> take(Rank source, Tag tag);

  /// Number of queued envelopes (any source/tag).
  std::size_t pending() const { return queue_.size(); }

 private:
  std::vector<Envelope> queue_;  ///< arrival order
};

}  // namespace exareq::simmpi
