// Ingest payload validation (wire -> rows).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "online/ingest.hpp"
#include "support/error.hpp"

namespace exareq::online {
namespace {

const char* kHeader =
    "p,n,bytes_used,flops,loads_stores,bytes_sent_received,stack_distance";

std::string payload(const std::vector<std::string>& records) {
  std::string text = kHeader;
  for (const std::string& record : records) text += ";" + record;
  return text;
}

TEST(OnlineIngestTest, ParsesValidBatch) {
  const auto rows = parse_ingest_payload(
      payload({"4,64,1e3,2e6,3e5,4e4,12.5", "8,128,2e3,4e6,6e5,8e4,25"}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].processes, 4);
  EXPECT_EQ(rows[0].problem_size, 64);
  EXPECT_DOUBLE_EQ(rows[0].bytes_used, 1e3);
  EXPECT_DOUBLE_EQ(rows[1].stack_distance, 25.0);
  EXPECT_TRUE(rows[0].channels.empty());
}

TEST(OnlineIngestTest, ParsesChannelColumns) {
  const std::string text =
      std::string(kHeader) +
      ",chan:a:mpi_allreduce;16,256,1,2,3,4,5,9.5e2";
  const auto rows = parse_ingest_payload(text);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].channels.count("mpi_allreduce"), 1u);
  const auto& channel = rows[0].channels.at("mpi_allreduce");
  EXPECT_DOUBLE_EQ(channel.bytes, 9.5e2);
  EXPECT_TRUE(channel.uses_allreduce);
  EXPECT_FALSE(channel.uses_bcast);
}

TEST(OnlineIngestTest, RejectsHeaderOnlyPayload) {
  EXPECT_THROW(parse_ingest_payload(kHeader), exareq::InvalidArgument);
}

TEST(OnlineIngestTest, RejectsMissingColumns) {
  EXPECT_THROW(parse_ingest_payload("p,n,bytes_used;4,64,1"),
               exareq::InvalidArgument);
}

TEST(OnlineIngestTest, RejectsRaggedRows) {
  EXPECT_THROW(parse_ingest_payload(payload({"4,64,1,2,3,4"})),
               exareq::InvalidArgument);
}

TEST(OnlineIngestTest, RejectsNanAndInfCells) {
  EXPECT_THROW(parse_ingest_payload(payload({"4,64,nan,2,3,4,5"})),
               exareq::InvalidArgument);
  EXPECT_THROW(parse_ingest_payload(payload({"4,64,inf,2,3,4,5"})),
               exareq::InvalidArgument);
}

TEST(OnlineIngestTest, RejectsNonIntegralOrNonPositiveGridCoordinates) {
  EXPECT_THROW(parse_ingest_payload(payload({"4.5,64,1,2,3,4,5"})),
               exareq::InvalidArgument);
  EXPECT_THROW(parse_ingest_payload(payload({"0,64,1,2,3,4,5"})),
               exareq::InvalidArgument);
  EXPECT_THROW(parse_ingest_payload(payload({"4,-64,1,2,3,4,5"})),
               exareq::InvalidArgument);
}

TEST(OnlineIngestTest, RejectsNegativeMetrics) {
  EXPECT_THROW(parse_ingest_payload(payload({"4,64,-1,2,3,4,5"})),
               exareq::InvalidArgument);
}

TEST(OnlineIngestTest, ErrorsNameTheOffendingRow) {
  try {
    parse_ingest_payload(payload({"4,64,1,2,3,4,5", "3.5,64,1,2,3,4,5"}));
    FAIL() << "expected InvalidArgument";
  } catch (const exareq::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("row 2"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace exareq::online
