// The communicator of the simulated MPI runtime.
//
// Point-to-point transport is byte-based (buffered eager sends, matched
// receives that park the rank until a match arrives); the typed API and all collectives are built on top of
// it, so every byte a collective moves is counted in the per-rank CommStats
// at the send/recv boundary. The collective algorithms are the textbook
// ones whose per-rank byte costs define the paper's collective basis
// functions (model/basis.hpp):
//   Bcast      binomial tree            busiest rank: s * log2(p) bytes
//   Allreduce  recursive doubling       per rank:    2 * s * log2(p) bytes
//   Alltoall   pairwise exchange        per rank:    2 * s * (p - 1) bytes
//   Barrier    dissemination            per rank:    2 * ceil(log2 p) msgs
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "simmpi/mailbox.hpp"
#include "simmpi/message.hpp"
#include "simmpi/stats.hpp"
#include "support/error.hpp"

namespace exareq::simmpi {

class Runtime;

/// Collective kinds recorded per channel.
enum class CollectiveKind { kAllreduce, kBcast, kAlltoall, kOther };

/// Element-wise reduction operators for reduce/allreduce.
namespace ops {
struct Sum {
  template <typename T>
  T operator()(T a, T b) const {
    return a + b;
  }
};
struct Max {
  template <typename T>
  T operator()(T a, T b) const {
    return a > b ? a : b;
  }
};
struct Min {
  template <typename T>
  T operator()(T a, T b) const {
    return a < b ? a : b;
  }
};
}  // namespace ops

/// Byte serialization for trivially copyable element types.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::byte> to_bytes(std::span<const T> values) {
  std::vector<std::byte> bytes(values.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> from_bytes(std::span<const std::byte> bytes) {
  exareq::require(bytes.size() % sizeof(T) == 0,
                  "from_bytes: payload size not a multiple of element size");
  std::vector<T> values(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

/// Rank-local communicator handle. One instance per rank; valid only on
/// that rank's fiber while its job runs.
class Communicator {
 public:
  Communicator(Rank rank, Runtime& runtime);

  Rank rank() const { return rank_; }
  int size() const;

  // -- byte-level point-to-point ------------------------------------------

  /// Buffered, non-blocking send (eager protocol).
  void send_bytes(Rank dest, Tag tag, std::span<const std::byte> data);

  /// Receive matched by (source, tag); parks this rank until a match arrives.
  std::vector<std::byte> recv_bytes(Rank source, Tag tag);

  // -- typed point-to-point -----------------------------------------------

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send(Rank dest, Tag tag, std::span<const T> data) {
    send_bytes(dest, tag, std::as_bytes(data));
  }

  template <typename T>
  std::vector<T> recv(Rank source, Tag tag) {
    return from_bytes<T>(recv_bytes(source, tag));
  }

  /// Combined exchange; safe against deadlock because sends are buffered.
  template <typename T>
  std::vector<T> sendrecv(Rank dest, std::span<const T> data, Rank source,
                          Tag tag) {
    send(dest, tag, data);
    return recv<T>(source, tag);
  }

  // -- collectives ----------------------------------------------------------

  /// Dissemination barrier.
  void barrier();

  /// Binomial-tree broadcast; `data` is input on root, output elsewhere.
  template <typename T>
  void bcast(std::vector<T>& data, Rank root) {
    note_collective(CollectiveKind::kBcast);
    const int p = size();
    check_rank(root, "bcast: root");
    if (p == 1) return;
    const Rank relative = (rank_ - root + p) % p;
    // Receive phase: find the highest set bit of the relative rank; the
    // sender is relative - that bit.
    if (relative != 0) {
      int bit = 1;
      while (bit * 2 <= relative) bit *= 2;
      const Rank source = ((relative - bit) + root) % p;
      data = recv<T>(source, kTagBcast);
    }
    // Send phase: forward to children at increasing bit offsets.
    int bit = 1;
    while (bit <= relative) bit *= 2;
    for (; relative + bit < p; bit *= 2) {
      const Rank dest = ((relative + bit) + root) % p;
      send<T>(dest, kTagBcast, data);
    }
  }

  /// Recursive-doubling allreduce (binary-block fallback for non-powers of
  /// two); returns the element-wise reduction over all ranks.
  template <typename T, typename Op>
  std::vector<T> allreduce(std::span<const T> data, Op op) {
    note_collective(CollectiveKind::kAllreduce);
    std::vector<T> value(data.begin(), data.end());
    const int p = size();
    if (p == 1) return value;

    int power = 1;
    while (power * 2 <= p) power *= 2;
    const int extra = p - power;

    // Fold the surplus ranks into the first `extra` ranks.
    if (rank_ >= power) {
      send<T>(rank_ - power, kTagAllreduce, value);
    } else {
      if (rank_ < extra) {
        combine(value, recv<T>(rank_ + power, kTagAllreduce), op);
      }
      for (int mask = 1; mask < power; mask *= 2) {
        const Rank partner = rank_ ^ mask;
        const std::vector<T> theirs =
            sendrecv<T>(partner, value, partner, kTagAllreduce);
        combine(value, theirs, op);
      }
      if (rank_ < extra) {
        send<T>(rank_ + power, kTagAllreduce, value);
      }
    }
    if (rank_ >= power) {
      value = recv<T>(rank_ - power, kTagAllreduce);
    }
    return value;
  }

  /// Binomial-tree reduce to `root`; every rank returns the reduction, but
  /// only root's copy is defined (others return their partial value, as
  /// with MPI_Reduce's undefined non-root buffers).
  template <typename T, typename Op>
  std::vector<T> reduce(std::span<const T> data, Op op, Rank root) {
    note_collective(CollectiveKind::kOther);
    check_rank(root, "reduce: root");
    std::vector<T> value(data.begin(), data.end());
    const int p = size();
    if (p == 1) return value;
    const Rank relative = (rank_ - root + p) % p;
    int bit = 1;
    // Children arrive from increasing bit offsets; mirror of bcast.
    for (; bit < p; bit *= 2) {
      if ((relative & bit) != 0) {
        const Rank dest = ((relative - bit) + root) % p;
        send<T>(dest, kTagReduce, value);
        break;
      }
      if (relative + bit < p) {
        combine(value, recv<T>(((relative + bit) + root) % p, kTagReduce), op);
      }
    }
    return value;
  }

  /// Pairwise-exchange alltoall; `data` holds size() blocks of equal size,
  /// block d destined for rank d. Returns the blocks received, ordered by
  /// source rank.
  template <typename T>
  std::vector<T> alltoall(std::span<const T> data) {
    note_collective(CollectiveKind::kAlltoall);
    const int p = size();
    exareq::require(data.size() % static_cast<std::size_t>(p) == 0,
                    "alltoall: data size must be a multiple of size()");
    const std::size_t chunk = data.size() / static_cast<std::size_t>(p);
    std::vector<T> result(data.size());
    // Own block moves locally (no network bytes, as in the pairwise cost).
    std::copy(data.begin() + static_cast<std::size_t>(rank_) * chunk,
              data.begin() + static_cast<std::size_t>(rank_ + 1) * chunk,
              result.begin() + static_cast<std::size_t>(rank_) * chunk);
    for (int step = 1; step < p; ++step) {
      const Rank dest = (rank_ + step) % p;
      const Rank source = (rank_ - step + p) % p;
      send<T>(dest, kTagAlltoall,
              std::span<const T>(
                  data.data() + static_cast<std::size_t>(dest) * chunk, chunk));
      const std::vector<T> block = recv<T>(source, kTagAlltoall);
      exareq::require(block.size() == chunk, "alltoall: chunk size mismatch");
      std::copy(block.begin(), block.end(),
                result.begin() + static_cast<std::size_t>(source) * chunk);
    }
    return result;
  }

  /// This rank's communication counters.
  const CommStats& stats() const;

  /// Sets the channel (communication call path) that subsequent traffic of
  /// this rank is attributed to; empty selects the default channel. The
  /// per-channel totals let the modeling pipeline fit one model per
  /// communication call path, as the paper does (Sec. III).
  void set_channel(std::string name);
  const std::string& channel() const { return channel_; }

 private:
  static constexpr Tag kTagBarrier = kUserTagLimit + 1;
  static constexpr Tag kTagBcast = kUserTagLimit + 2;
  static constexpr Tag kTagAllreduce = kUserTagLimit + 3;
  static constexpr Tag kTagReduce = kUserTagLimit + 4;
  static constexpr Tag kTagAlltoall = kUserTagLimit + 5;

  template <typename T, typename Op>
  static void combine(std::vector<T>& into, const std::vector<T>& other, Op op) {
    exareq::require(into.size() == other.size(),
                    "allreduce/reduce: rank payload sizes differ");
    for (std::size_t i = 0; i < into.size(); ++i) {
      into[i] = op(into[i], other[i]);
    }
  }

  void check_rank(Rank r, const char* what) const;
  void note_collective(CollectiveKind kind);
  ChannelStats& channel_stats();

  Rank rank_;
  Runtime& runtime_;
  std::string channel_;
  /// channel_'s entry in this rank's CommStats, once traffic or a
  /// collective created it; set_channel resets it.
  ChannelStats* channel_stats_ = nullptr;
};

/// RAII channel guard: attributes the enclosed traffic to `name` and
/// restores the previous channel on exit.
class ChannelScope {
 public:
  ChannelScope(Communicator& comm, std::string name)
      : comm_(comm), previous_(comm.channel()) {
    comm_.set_channel(std::move(name));
  }
  ChannelScope(const ChannelScope&) = delete;
  ChannelScope& operator=(const ChannelScope&) = delete;
  ~ChannelScope() { comm_.set_channel(previous_); }

 private:
  Communicator& comm_;
  std::string previous_;
};

}  // namespace exareq::simmpi
