#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace exareq::serve {
namespace {

TEST(ServeProtocolTest, ParsesEval) {
  const Request r = parse_request("eval LULESH flops 64 1024");
  EXPECT_EQ(r.kind, RequestKind::kEval);
  EXPECT_EQ(r.app, "LULESH");
  EXPECT_EQ(r.metric, "flops");
  EXPECT_EQ(r.p, 64.0);
  EXPECT_EQ(r.n, 1024.0);
}

TEST(ServeProtocolTest, ParsesInvertUpgradeStrawmanStatus) {
  const Request invert = parse_request("invert MILC 65536 2147483648");
  EXPECT_EQ(invert.kind, RequestKind::kInvert);
  EXPECT_EQ(invert.processes, 65536.0);
  EXPECT_EQ(invert.memory_per_process, 2147483648.0);

  const Request upgrade = parse_request("upgrade MILC 1024 1e9");
  EXPECT_EQ(upgrade.kind, RequestKind::kUpgrade);
  EXPECT_EQ(upgrade.memory_per_process, 1e9);

  const Request strawman = parse_request("strawman icoFoam");
  EXPECT_EQ(strawman.kind, RequestKind::kStrawman);
  EXPECT_EQ(strawman.app, "icoFoam");

  const Request status = parse_request("  status  ");
  EXPECT_EQ(status.kind, RequestKind::kStatus);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request(""), exareq::InvalidArgument);
  EXPECT_THROW(parse_request("frobnicate x"), exareq::InvalidArgument);
  EXPECT_THROW(parse_request("eval LULESH flops 64"), exareq::InvalidArgument);
  EXPECT_THROW(parse_request("eval LULESH watts 64 1024"),
               exareq::InvalidArgument);
  EXPECT_THROW(parse_request("eval LULESH flops sixty 1024"),
               exareq::InvalidArgument);
  EXPECT_THROW(parse_request("eval LULESH flops 0.5 1024"),
               exareq::InvalidArgument);
  EXPECT_THROW(parse_request("invert MILC 64 0"), exareq::InvalidArgument);
  EXPECT_THROW(parse_request("status extra"), exareq::InvalidArgument);
}

TEST(ServeProtocolTest, RejectsNonFiniteNumbers) {
  // `inf` passes a `>= 1` or `> 0` check; NaN fails it.
  const struct {
    const char* line;
    const char* message;
  } cases[] = {
      {"eval lulesh flops inf 64", "eval coordinates must be finite"},
      {"eval lulesh flops 64 inf", "eval coordinates must be finite"},
      {"eval lulesh flops nan 64", "eval coordinates must be >= 1"},
      {"upgrade lulesh inf 2e9",
       "process count and memory per process must be finite"},
      {"invert lulesh 64 inf",
       "process count and memory per process must be finite"},
  };
  for (const auto& test_case : cases) {
    try {
      parse_request(test_case.line);
      ADD_FAILURE() << "accepted: " << test_case.line;
    } catch (const exareq::InvalidArgument& error) {
      EXPECT_STREQ(error.what(), test_case.message) << test_case.line;
    }
  }
}

TEST(ServeProtocolTest, CanonicalKeyUnifiesSpellings) {
  const Request a = parse_request("eval LULESH flops 64 1024");
  const Request b = parse_request("eval lulesh flops 64.0 1.024e3");
  EXPECT_EQ(canonical_key(a), canonical_key(b));

  const Request c = parse_request("eval LULESH flops 64 1025");
  EXPECT_NE(canonical_key(a), canonical_key(c));

  const Request d = parse_request("eval LULESH footprint 64 1024");
  EXPECT_NE(canonical_key(a), canonical_key(d));

  // invert and upgrade share their numeric fields but not their kind.
  const Request e = parse_request("invert MILC 64 1e9");
  const Request f = parse_request("upgrade MILC 64 1e9");
  EXPECT_NE(canonical_key(e), canonical_key(f));
}

TEST(ServeProtocolTest, StatusIsNotCacheable) {
  EXPECT_FALSE(cacheable(parse_request("status")));
  EXPECT_TRUE(cacheable(parse_request("strawman MILC")));
}

TEST(ServeProtocolTest, ResponsesAreSingleLines) {
  EXPECT_EQ(ok_response("eval 42"), "ok eval 42");
  const std::string error =
      error_response("bad-request", "first line\nsecond line");
  EXPECT_EQ(error, "error bad-request: first line second line");
  EXPECT_EQ(error.find('\n'), std::string::npos);
}

TEST(ServeProtocolTest, RenderValueRoundTripsDoubles) {
  for (const double value : {1.0, 1.0 / 3.0, 2147483648.0, 6.02e23, 1e-12}) {
    EXPECT_EQ(std::stod(render_value(value)), value);
  }
}

TEST(ServeProtocolTest, RejectsUnknownCommandWithExpectedList) {
  try {
    parse_request("evaal lulesh flops 4 64");
    FAIL() << "unknown command accepted";
  } catch (const exareq::InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown request 'evaal'"), std::string::npos) << what;
    EXPECT_NE(what.find("eval|invert|upgrade|strawman|status"),
              std::string::npos)
        << what;
  }
}

TEST(ServeProtocolTest, ParsesIngestWithRawCsvPayload) {
  const Request r = parse_request(
      "ingest LULESH p,n,bytes_used,flops,loads_stores,"
      "bytes_sent_received,stack_distance;4,64,1,2,3,4,5  ");
  EXPECT_EQ(r.kind, RequestKind::kIngest);
  EXPECT_EQ(r.app, "LULESH");
  // The payload is the raw rest-of-line (trailing whitespace trimmed);
  // validation happens in the online layer, not the protocol parser.
  EXPECT_EQ(r.payload,
            "p,n,bytes_used,flops,loads_stores,"
            "bytes_sent_received,stack_distance;4,64,1,2,3,4,5");
}

TEST(ServeProtocolTest, RejectsIngestWithoutAppOrPayload) {
  EXPECT_THROW(parse_request("ingest"), exareq::InvalidArgument);
  EXPECT_THROW(parse_request("ingest lulesh"), exareq::InvalidArgument);
  EXPECT_THROW(parse_request("ingest lulesh   "), exareq::InvalidArgument);
  try {
    parse_request("ingest lulesh ");
    FAIL() << "empty payload accepted";
  } catch (const exareq::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("payload"), std::string::npos)
        << error.what();
  }
}

TEST(ServeProtocolTest, IngestIsNotCacheableAndKeysByApp) {
  const Request a = parse_request("ingest LULESH p,n;4,64");
  EXPECT_FALSE(cacheable(a));
  const Request b = parse_request("ingest lulesh p,n;8,128");
  // The cache key unifies app spellings; ingest bypasses the cache anyway.
  EXPECT_EQ(canonical_key(a), canonical_key(b));
}

TEST(ServeFrameDecoderTest, SplitsCompleteFramesAndBuffersTheTail) {
  FrameDecoder decoder;
  const auto frames = decoder.feed("status\neval a flops 1 2\npartial");
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "status");
  EXPECT_EQ(frames[1], "eval a flops 1 2");
  // The truncated frame stays buffered until the terminator arrives.
  EXPECT_TRUE(decoder.has_partial_frame());
  EXPECT_EQ(decoder.partial_bytes(), 7u);
  const auto rest = decoder.feed(" frame\n");
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], "partial frame");
  EXPECT_FALSE(decoder.has_partial_frame());
}

TEST(ServeFrameDecoderTest, StripsCrAndSkipsEmptyFrames) {
  FrameDecoder decoder;
  const auto frames = decoder.feed("status\r\n\r\n\nstrawman milc\n");
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "status");
  EXPECT_EQ(frames[1], "strawman milc");
}

TEST(ServeFrameDecoderTest, TruncatedFrameIsNeverDelivered) {
  // A connection closing mid-frame simply drops the partial line; the
  // decoder must not have handed it out as a request.
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.feed("eval lulesh floo").empty());
  EXPECT_TRUE(decoder.has_partial_frame());
}

TEST(ServeFrameDecoderTest, OversizedFrameThrowsAndDropsPendingBytes) {
  FrameDecoder decoder(16);
  EXPECT_THROW(decoder.feed(std::string(17, 'x')), exareq::InvalidArgument);
  // The decoder stays usable after rejecting the hostile frame.
  EXPECT_FALSE(decoder.has_partial_frame());
  const auto frames = decoder.feed("status\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "status");
}

TEST(ServeFrameDecoderTest, OversizedFrameDetectedAcrossChunks) {
  FrameDecoder decoder(16);
  EXPECT_TRUE(decoder.feed(std::string(10, 'a')).empty());
  EXPECT_THROW(decoder.feed(std::string(10, 'b')), exareq::InvalidArgument);
  // Also when the terminator does arrive but the completed frame is too
  // large for the bound.
  FrameDecoder other(16);
  EXPECT_THROW(other.feed(std::string(17, 'c') + "\n"),
               exareq::InvalidArgument);
}

TEST(ServeFrameDecoderTest, OversizedIngestFrameIsRejectedStructurally) {
  // An ingest line carrying an unbounded CSV payload must hit the frame
  // bound before the payload is ever buffered whole.
  FrameDecoder decoder(64);
  std::string line = "ingest app p,n";
  while (line.size() <= 80) line += ";4,64";
  try {
    decoder.feed(line + "\n");
    FAIL() << "oversized ingest frame accepted";
  } catch (const exareq::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("frame"), std::string::npos)
        << error.what();
  }
  // The decoder recovers: the next well-formed request still parses.
  EXPECT_FALSE(decoder.has_partial_frame());
  const auto frames = decoder.feed("status\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "status");
}

TEST(ServeFrameDecoderTest, FrameOfExactlyMaxBytesIsAccepted) {
  FrameDecoder decoder(8);
  const auto frames = decoder.feed("12345678\n");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "12345678");
}

}  // namespace
}  // namespace exareq::serve
