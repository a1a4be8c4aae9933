#include "simmpi/comm.hpp"

#include "simmpi/runtime.hpp"

namespace exareq::simmpi {

Communicator::Communicator(Rank rank, Runtime& runtime)
    : rank_(rank), runtime_(runtime) {
  exareq::require(rank >= 0 && rank < runtime.size(),
                  "Communicator: rank out of range");
}

int Communicator::size() const { return runtime_.size(); }

void Communicator::send_bytes(Rank dest, Tag tag,
                              std::span<const std::byte> data) {
  check_rank(dest, "send: destination");
  CommStats& stats = runtime_.stats(rank_);
  stats.bytes_sent += data.size();
  ++stats.messages_sent;
  channel_stats().bytes_sent += data.size();
  Envelope envelope;
  envelope.source = rank_;
  envelope.tag = tag;
  envelope.payload.assign(data.begin(), data.end());
  runtime_.deliver(dest, std::move(envelope));
}

std::vector<std::byte> Communicator::recv_bytes(Rank source, Tag tag) {
  check_rank(source, "recv: source");
  Envelope envelope = runtime_.receive(rank_, source, tag);
  CommStats& stats = runtime_.stats(rank_);
  stats.bytes_received += envelope.payload.size();
  ++stats.messages_received;
  channel_stats().bytes_received += envelope.payload.size();
  return std::move(envelope.payload);
}

void Communicator::barrier() {
  note_collective(CollectiveKind::kOther);
  const int p = size();
  if (p == 1) return;
  const std::byte token[] = {std::byte{0}};
  for (int distance = 1; distance < p; distance *= 2) {
    const Rank dest = (rank_ + distance) % p;
    const Rank source = (rank_ - distance % p + p) % p;
    send_bytes(dest, kTagBarrier, token);
    (void)recv_bytes(source, kTagBarrier);
  }
}

const CommStats& Communicator::stats() const { return runtime_.stats(rank_); }

void Communicator::check_rank(Rank r, const char* what) const {
  if (r < 0 || r >= runtime_.size()) {
    throw exareq::InvalidArgument(std::string(what) + " rank out of range");
  }
}

void Communicator::set_channel(std::string name) {
  channel_ = std::move(name);
  channel_stats_ = nullptr;
}

ChannelStats& Communicator::channel_stats() {
  // std::map nodes never move, so the entry stays valid as others are added.
  if (channel_stats_ == nullptr) {
    channel_stats_ = &runtime_.stats(rank_).channels[channel_];
  }
  return *channel_stats_;
}

void Communicator::note_collective(CollectiveKind kind) {
  ++runtime_.stats(rank_).collective_calls;
  ChannelStats& channel = channel_stats();
  switch (kind) {
    case CollectiveKind::kAllreduce:
      ++channel.allreduce_calls;
      break;
    case CollectiveKind::kBcast:
      ++channel.bcast_calls;
      break;
    case CollectiveKind::kAlltoall:
      ++channel.alltoall_calls;
      break;
    case CollectiveKind::kOther:
      ++channel.other_collective_calls;
      break;
  }
}

}  // namespace exareq::simmpi
