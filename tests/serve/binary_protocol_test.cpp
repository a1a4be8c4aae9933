#include "serve/binary_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace binary = exareq::serve::binary;
using exareq::InvalidArgument;
using exareq::serve::Request;
using exareq::serve::RequestKind;

namespace {

Request eval_request(const std::string& app, const std::string& metric,
                     double p, double n) {
  Request request;
  request.kind = RequestKind::kEval;
  request.app = app;
  request.metric = metric;
  request.p = p;
  request.n = n;
  return request;
}

Request invert_request(double processes, double memory) {
  Request request;
  request.kind = RequestKind::kInvert;
  request.app = "lulesh";
  request.processes = processes;
  request.memory_per_process = memory;
  return request;
}

std::vector<Request> sample_batch() {
  std::vector<Request> batch;
  batch.push_back(eval_request("lulesh", "flops", 64.0, 1.0e6));
  batch.push_back(eval_request("HPCG", "stack_distance", 1.0, 1048576.0));
  batch.push_back(invert_request(4096.0, 2.5e9));
  Request upgrade = invert_request(512.0, 0.125);
  upgrade.kind = RequestKind::kUpgrade;
  batch.push_back(upgrade);
  Request strawman;
  strawman.kind = RequestKind::kStrawman;
  strawman.app = "amg";
  batch.push_back(strawman);
  Request status;
  status.kind = RequestKind::kStatus;
  batch.push_back(status);
  Request ingest;
  ingest.kind = RequestKind::kIngest;
  ingest.app = "relearn";
  ingest.payload = "p,n,footprint;64,100,123.5;128,100,130.25";
  batch.push_back(ingest);
  return batch;
}

std::string message_of(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected InvalidArgument";
  return {};
}

}  // namespace

TEST(BinaryProtocolTest, MagicBytesDoNotCollideWithTextVerbs) {
  EXPECT_TRUE(binary::is_binary_frame_start(binary::kRequestMagic));
  EXPECT_TRUE(binary::is_binary_frame_start(binary::kResponseMagic));
  for (const char verb_start : {'e', 'i', 'u', 's', ' ', '\t'}) {
    EXPECT_FALSE(
        binary::is_binary_frame_start(static_cast<unsigned char>(verb_start)))
        << "text protocol byte " << verb_start;
  }
}

TEST(BinaryProtocolTest, RequestRoundTripPreservesEveryField) {
  const std::vector<Request> batch = sample_batch();
  const std::string frame = binary::encode_request_frame(batch);
  const std::vector<binary::RequestView> views =
      binary::decode_request_frame(frame);
  ASSERT_EQ(views.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request back = views[i].materialize();
    EXPECT_EQ(back.kind, batch[i].kind) << "record " << i;
    EXPECT_EQ(back.app, batch[i].app) << "record " << i;
    EXPECT_EQ(back.payload, batch[i].payload) << "record " << i;
    EXPECT_EQ(back.metric, batch[i].metric) << "record " << i;
    // Doubles travel as their exact bit pattern, not a decimal rendering.
    EXPECT_EQ(back.p, batch[i].p) << "record " << i;
    EXPECT_EQ(back.n, batch[i].n) << "record " << i;
    EXPECT_EQ(back.processes, batch[i].processes) << "record " << i;
    EXPECT_EQ(back.memory_per_process, batch[i].memory_per_process)
        << "record " << i;
  }
}

TEST(BinaryProtocolTest, DoublesSurviveBitExactly) {
  const double awkward[] = {0.1, 1.0 / 3.0, 6.02214076e23,
                            std::nextafter(1.0, 2.0),
                            std::numeric_limits<double>::max()};
  for (const double value : awkward) {
    const std::string frame = binary::encode_request_frame(
        {eval_request("app", "footprint", value >= 1.0 ? value : 1.0, value >= 1.0 ? value : 1.0)});
    const auto views = binary::decode_request_frame(frame);
    ASSERT_EQ(views.size(), 1u);
    const double sent = value >= 1.0 ? value : 1.0;
    EXPECT_EQ(views[0].p, sent);
    EXPECT_EQ(views[0].n, sent);
  }
}

TEST(BinaryProtocolTest, DecodedViewsAliasTheFrameBuffer) {
  const std::string frame =
      binary::encode_request_frame({eval_request("lulesh", "flops", 2, 3)});
  const auto views = binary::decode_request_frame(frame);
  ASSERT_EQ(views.size(), 1u);
  const char* begin = frame.data();
  const char* end = frame.data() + frame.size();
  EXPECT_GE(views[0].app.data(), begin);
  EXPECT_LE(views[0].app.data() + views[0].app.size(), end);
}

TEST(BinaryProtocolTest, ResponseRoundTrip) {
  const std::vector<std::string> lines = {
      "ok eval 123.45000000000000284",
      "error numeric: requirement not reachable",
      "",  // empty line survives (length-prefixed, not newline-framed)
      std::string(100000, 'x'),
  };
  const std::string frame = binary::encode_response_frame(lines);
  EXPECT_EQ(binary::decode_response_frame(frame), lines);
}

TEST(BinaryProtocolTest, MaterializeMatchesTextParserValidationMessages) {
  // The binary decoder and the text parser must reject a bad request with
  // byte-identical messages, so clients see one protocol semantics.
  const struct {
    Request request;
    std::string line;
  } cases[] = {
      {eval_request("app", "flops", 0.5, 10.0), "eval app flops 0.5 10"},
      {invert_request(0.0, 1.0e9), "invert lulesh 0 1e9"},
      {invert_request(64.0, 0.0), "invert lulesh 64 0"},
  };
  for (const auto& test_case : cases) {
    const std::string binary_message = message_of([&] {
      const std::string frame =
          binary::encode_request_frame({test_case.request});
      binary::decode_request_frame(frame)[0].materialize();
    });
    const std::string text_message = message_of([&] {
      exareq::serve::parse_request(test_case.line);
    });
    EXPECT_EQ(binary_message, text_message) << test_case.line;
  }
}

TEST(BinaryProtocolTest, MaterializeRejectsNonFiniteNumbers) {
  // A binary frame carries doubles as raw bits, so infinities reach the
  // same check as the text parser's `inf` and fail it the same way.
  const double inf = std::numeric_limits<double>::infinity();
  Request upgrade = invert_request(inf, 2.0e9);
  upgrade.kind = RequestKind::kUpgrade;
  const struct {
    Request request;
    std::string line;
  } cases[] = {
      {eval_request("lulesh", "flops", inf, 64.0), "eval lulesh flops inf 64"},
      {eval_request("lulesh", "flops", 64.0, inf), "eval lulesh flops 64 inf"},
      {upgrade, "upgrade lulesh inf 2e9"},
      {invert_request(64.0, inf), "invert lulesh 64 inf"},
  };
  for (const auto& test_case : cases) {
    const std::string frame = binary::encode_request_frame({test_case.request});
    const auto views = binary::decode_request_frame(frame);
    const std::string binary_message =
        message_of([&] { views[0].materialize(); });
    EXPECT_NE(binary_message.find("must be finite"), std::string::npos)
        << test_case.line << ": " << binary_message;
    EXPECT_EQ(binary_message, message_of([&] {
                exareq::serve::parse_request(test_case.line);
              }))
        << test_case.line;
  }
}

TEST(BinaryProtocolTest, MaterializeRejectsUnknownMetricId) {
  std::string frame =
      binary::encode_request_frame({eval_request("app", "flops", 2, 3)});
  // The metric id sits after the header (8), count (4), opcode (1),
  // app length (2) and app bytes (3).
  const std::size_t metric_offset = 8 + 4 + 1 + 2 + 3;
  frame[metric_offset] = static_cast<char>(200);
  const auto views = binary::decode_request_frame(frame);
  EXPECT_THROW(views[0].materialize(), InvalidArgument);
}

TEST(BinaryProtocolTest, MaterializeRejectsEmptyAppAndPayload) {
  Request empty_app = eval_request("", "flops", 2, 3);
  const std::string app_frame = binary::encode_request_frame({empty_app});
  const auto views = binary::decode_request_frame(app_frame);
  EXPECT_THROW(views[0].materialize(), InvalidArgument);

  Request empty_ingest;
  empty_ingest.kind = RequestKind::kIngest;
  empty_ingest.app = "app";
  const std::string ingest_frame =
      binary::encode_request_frame({empty_ingest});
  const auto ingest_views = binary::decode_request_frame(ingest_frame);
  EXPECT_THROW(ingest_views[0].materialize(), InvalidArgument);
}

TEST(BinaryProtocolTest, EncodeRejectsUnknownMetricAndOversizedApp) {
  EXPECT_THROW(binary::encode_request_frame(
                   {eval_request("app", "watts", 2, 3)}),
               InvalidArgument);
  Request huge_app;
  huge_app.kind = RequestKind::kStrawman;
  huge_app.app.assign(70000, 'a');
  EXPECT_THROW(binary::encode_request_frame({huge_app}), InvalidArgument);
}

TEST(BinaryProtocolTest, DecodeRejectsCorruptHeaders) {
  const std::string good =
      binary::encode_request_frame({eval_request("app", "flops", 2, 3)});

  std::string bad_magic = good;
  bad_magic[0] = 'e';
  EXPECT_THROW(binary::decode_request_frame(bad_magic), InvalidArgument);

  // A response frame handed to the request decoder is a magic mismatch.
  EXPECT_THROW(
      binary::decode_request_frame(binary::encode_response_frame({"ok"})),
      InvalidArgument);

  std::string bad_version = good;
  bad_version[1] = 2;
  EXPECT_THROW(binary::decode_request_frame(bad_version), InvalidArgument);

  std::string bad_kind = good;
  bad_kind[2] = 9;
  EXPECT_THROW(binary::decode_request_frame(bad_kind), InvalidArgument);

  std::string bad_reserved = good;
  bad_reserved[3] = 1;
  EXPECT_THROW(binary::decode_request_frame(bad_reserved), InvalidArgument);

  std::string short_payload = good.substr(0, good.size() - 1);
  EXPECT_THROW(binary::decode_request_frame(short_payload), InvalidArgument);

  std::string trailing = good + "x";
  EXPECT_THROW(binary::decode_request_frame(trailing), InvalidArgument);

  EXPECT_THROW(binary::decode_request_frame("\xEB"), InvalidArgument);
}

TEST(BinaryProtocolTest, DecodeRejectsCorruptRecords) {
  const std::string good =
      binary::encode_request_frame({eval_request("app", "flops", 2, 3)});

  std::string bad_opcode = good;
  bad_opcode[12] = 99;  // opcode is the first payload byte after the count
  EXPECT_THROW(binary::decode_request_frame(bad_opcode), InvalidArgument);

  // Record count larger than the payload could ever hold.
  std::string bad_count = good;
  bad_count[8] = static_cast<char>(0xFF);
  bad_count[9] = static_cast<char>(0xFF);
  bad_count[10] = static_cast<char>(0xFF);
  bad_count[11] = static_cast<char>(0xFF);
  EXPECT_THROW(binary::decode_request_frame(bad_count), InvalidArgument);

  // A string length that runs past the end of the payload.
  std::string bad_strlen = good;
  bad_strlen[13] = static_cast<char>(0xFF);  // app length low byte
  bad_strlen[14] = static_cast<char>(0xFF);  // app length high byte
  EXPECT_THROW(binary::decode_request_frame(bad_strlen), InvalidArgument);
}

TEST(BinaryFrameDecoderTest, ReassemblesFramesFedByteByByte) {
  const std::string frame1 =
      binary::encode_request_frame({eval_request("a", "flops", 2, 3)});
  const std::string frame2 = binary::encode_request_frame(sample_batch());
  const std::string stream = frame1 + frame2;
  binary::BinaryFrameDecoder decoder;
  std::vector<std::string> frames;
  for (const char byte : stream) {
    for (std::string& frame : decoder.feed(std::string_view(&byte, 1))) {
      frames.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], frame1);
  EXPECT_EQ(frames[1], frame2);
  EXPECT_FALSE(decoder.has_partial_frame());
}

TEST(BinaryFrameDecoderTest, ReturnsMultipleFramesFromOneFeed) {
  const std::string frame =
      binary::encode_request_frame({eval_request("a", "flops", 2, 3)});
  binary::BinaryFrameDecoder decoder;
  const auto frames = decoder.feed(frame + frame + frame);
  EXPECT_EQ(frames.size(), 3u);
}

TEST(BinaryFrameDecoderTest, TracksPartialFrameState) {
  const std::string frame = binary::encode_request_frame(sample_batch());
  binary::BinaryFrameDecoder decoder;
  EXPECT_TRUE(decoder.feed(frame.substr(0, frame.size() / 2)).empty());
  EXPECT_TRUE(decoder.has_partial_frame());
  EXPECT_EQ(decoder.partial_bytes(), frame.size() / 2);
  const auto frames = decoder.feed(frame.substr(frame.size() / 2));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], frame);
  EXPECT_FALSE(decoder.has_partial_frame());
}

TEST(BinaryFrameDecoderTest, OversizedFrameThrowsAndDecoderRecovers) {
  binary::BinaryFrameDecoder decoder(64);
  // Header declaring a 1 MiB payload against a 64-byte limit.
  std::string header;
  header.push_back(static_cast<char>(binary::kRequestMagic));
  header.push_back(static_cast<char>(binary::kVersion));
  header.push_back(static_cast<char>(binary::kKindBatch));
  header.push_back(0);
  const std::uint32_t payload_len = 1 << 20;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((payload_len >> shift) & 0xFF));
  }
  EXPECT_THROW(decoder.feed(header), InvalidArgument);
  EXPECT_FALSE(decoder.has_partial_frame());
  // The decoder stays usable: a well-formed small frame still decodes.
  const std::string frame =
      binary::encode_request_frame({eval_request("a", "flops", 2, 3)});
  ASSERT_LE(frame.size(), 64u);
  EXPECT_EQ(decoder.feed(frame).size(), 1u);
}

TEST(BinaryFrameDecoderTest, RejectsNonBinaryStream) {
  binary::BinaryFrameDecoder decoder;
  EXPECT_THROW(decoder.feed("eval lulesh flops 64 100\n"), InvalidArgument);
  EXPECT_FALSE(decoder.has_partial_frame());
}

TEST(BinaryFrameDecoderTest, DefaultLimitIsRaisedForBatchFrames) {
  // Satellite: the binary path's default frame bound must comfortably
  // exceed the text protocol's 64 KiB line default.
  EXPECT_GE(binary::kDefaultBatchMaxFrameBytes,
            16 * exareq::serve::FrameDecoder::kDefaultMaxFrameBytes);
  binary::BinaryFrameDecoder decoder;
  EXPECT_EQ(decoder.max_frame_bytes(), binary::kDefaultBatchMaxFrameBytes);
}
