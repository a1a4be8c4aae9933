#include "simmpi/mailbox.hpp"

#include <algorithm>

namespace exareq::simmpi {

void Mailbox::put(Envelope envelope) { queue_.push_back(std::move(envelope)); }

std::optional<Envelope> Mailbox::take(Rank source, Tag tag) {
  const auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [source, tag](const Envelope& e) { return matches(e, source, tag); });
  if (it == queue_.end()) return std::nullopt;
  Envelope envelope = std::move(*it);
  queue_.erase(it);
  return envelope;
}

}  // namespace exareq::simmpi
