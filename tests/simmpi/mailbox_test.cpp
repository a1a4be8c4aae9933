#include "simmpi/mailbox.hpp"

#include <gtest/gtest.h>

namespace exareq::simmpi {
namespace {

Envelope make_envelope(Rank source, Tag tag, std::size_t size) {
  Envelope e;
  e.source = source;
  e.tag = tag;
  e.payload.assign(size, std::byte{42});
  return e;
}

TEST(MailboxTest, PutThenGetMatches) {
  Mailbox box;
  box.put(make_envelope(3, 7, 16));
  const Envelope e = box.take(3, 7).value();
  EXPECT_EQ(e.source, 3);
  EXPECT_EQ(e.tag, 7);
  EXPECT_EQ(e.payload.size(), 16u);
}

TEST(MailboxTest, GetSkipsNonMatching) {
  Mailbox box;
  box.put(make_envelope(1, 1, 8));
  box.put(make_envelope(2, 2, 9));
  const Envelope e = box.take(2, 2).value();
  EXPECT_EQ(e.payload.size(), 9u);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(MailboxTest, FifoPerSourceAndTag) {
  Mailbox box;
  box.put(make_envelope(1, 5, 1));
  box.put(make_envelope(1, 5, 2));
  box.put(make_envelope(1, 5, 3));
  EXPECT_EQ(box.take(1, 5).value().payload.size(), 1u);
  EXPECT_EQ(box.take(1, 5).value().payload.size(), 2u);
  EXPECT_EQ(box.take(1, 5).value().payload.size(), 3u);
}

TEST(MailboxTest, TakeWithoutMatchLeavesTheQueueAlone) {
  // A mailbox never blocks: a receive with no match parks its rank in the
  // runtime instead (RuntimeTest.RecvParksUntilMatchingSend).
  Mailbox box;
  box.put(make_envelope(1, 1, 8));
  EXPECT_FALSE(box.take(2, 1).has_value());
  EXPECT_FALSE(box.take(1, 2).has_value());
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_EQ(box.take(1, 1).value().payload.size(), 8u);
  EXPECT_EQ(box.pending(), 0u);
}

}  // namespace
}  // namespace exareq::simmpi
