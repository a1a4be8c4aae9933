#include "serve/binary_protocol.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/error.hpp"

namespace exareq::serve::binary {
namespace {

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u16(std::string& out, std::uint16_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_f64(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
}

void put_str16(std::string& out, std::string_view text, const char* what) {
  if (text.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw exareq::InvalidArgument(
        std::string("binary: ") + what + " exceeds " +
        std::to_string(std::numeric_limits<std::uint16_t>::max()) + " bytes");
  }
  put_u16(out, static_cast<std::uint16_t>(text.size()));
  out.append(text);
}

void put_str32(std::string& out, std::string_view text, const char* what) {
  if (text.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw exareq::InvalidArgument(std::string("binary: ") + what +
                                  " exceeds a u32 length");
  }
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text);
}

/// Cursor over a frame payload. Every read checks the remaining length and
/// throws InvalidArgument on truncation, so malformed frames from a fuzzer
/// or a buggy client can never read out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8(const char* what) { return take(1, what)[0]; }

  std::uint16_t u16(const char* what) {
    const unsigned char* p = take(2, what);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t u32(const char* what) {
    const unsigned char* p = take(4, what);
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  double f64(const char* what) {
    const unsigned char* p = take(8, what);
    std::uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) bits = (bits << 8) | p[i];
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string_view bytes(std::size_t count, const char* what) {
    const char* begin = reinterpret_cast<const char*>(take(count, what));
    return std::string_view(begin, count);
  }

  std::string_view str16(const char* what) { return bytes(u16(what), what); }
  std::string_view str32(const char* what) { return bytes(u32(what), what); }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  const unsigned char* take(std::size_t count, const char* what) {
    if (remaining() < count) {
      throw exareq::InvalidArgument(
          std::string("binary: frame truncated reading ") + what);
    }
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += count;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

std::string frame_header(std::uint8_t magic, std::size_t payload_bytes) {
  exareq::require(payload_bytes <= std::numeric_limits<std::uint32_t>::max(),
                  "binary: frame payload exceeds a u32 length");
  std::string out;
  out.reserve(kHeaderBytes + payload_bytes);
  put_u8(out, magic);
  put_u8(out, kVersion);
  put_u8(out, kKindBatch);
  put_u8(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload_bytes));
  return out;
}

/// Validates the header and returns a reader over the payload.
Reader open_frame(std::string_view frame, std::uint8_t expected_magic) {
  exareq::require(frame.size() >= kHeaderBytes,
                  "binary: frame shorter than its 8-byte header");
  Reader header(frame.substr(0, kHeaderBytes));
  const std::uint8_t magic = header.u8("magic");
  if (magic != expected_magic) {
    throw exareq::InvalidArgument(
        "binary: bad magic 0x" + std::to_string(magic) + " (expected 0x" +
        std::to_string(expected_magic) + ")");
  }
  const std::uint8_t version = header.u8("version");
  if (version != kVersion) {
    throw exareq::InvalidArgument(
        "binary: unsupported version " + std::to_string(version) +
        " (this server speaks version " + std::to_string(kVersion) + ")");
  }
  const std::uint8_t kind = header.u8("kind");
  if (kind != kKindBatch) {
    throw exareq::InvalidArgument("binary: unsupported frame kind " +
                                  std::to_string(kind));
  }
  const std::uint8_t reserved = header.u8("reserved");
  exareq::require(reserved == 0, "binary: reserved header byte must be 0");
  const std::uint32_t payload_len = header.u32("payload length");
  if (frame.size() - kHeaderBytes != payload_len) {
    throw exareq::InvalidArgument(
        "binary: declared payload length " + std::to_string(payload_len) +
        " does not match the " + std::to_string(frame.size() - kHeaderBytes) +
        " bytes received");
  }
  return Reader(frame.substr(kHeaderBytes));
}

}  // namespace

Request RequestView::materialize() const {
  Request request;
  switch (opcode) {
    case Opcode::kEval:
      request.kind = RequestKind::kEval;
      request.app = std::string(app);
      if (metric_id >= metric_names().size()) {
        throw exareq::InvalidArgument("binary: unknown metric id " +
                                      std::to_string(metric_id));
      }
      request.metric = metric_names()[metric_id];
      request.p = p;
      request.n = n;
      break;
    case Opcode::kInvert:
    case Opcode::kUpgrade:
      request.kind = opcode == Opcode::kInvert ? RequestKind::kInvert
                                               : RequestKind::kUpgrade;
      request.app = std::string(app);
      request.processes = processes;
      request.memory_per_process = memory_per_process;
      break;
    case Opcode::kStrawman:
      request.kind = RequestKind::kStrawman;
      request.app = std::string(app);
      break;
    case Opcode::kStatus:
      request.kind = RequestKind::kStatus;
      break;
    case Opcode::kIngest:
      request.kind = RequestKind::kIngest;
      request.app = std::string(app);
      request.payload = std::string(payload);
      break;
  }
  validate_request(request);
  return request;
}

std::string encode_request_frame(const std::vector<Request>& requests) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(requests.size()));
  for (const Request& request : requests) {
    switch (request.kind) {
      case RequestKind::kEval: {
        const auto& names = metric_names();
        const auto it =
            std::find(names.begin(), names.end(), request.metric);
        if (it == names.end()) {
          throw exareq::InvalidArgument("binary: unknown metric '" +
                                        request.metric + "'");
        }
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kEval));
        put_str16(payload, request.app, "application name");
        put_u8(payload, static_cast<std::uint8_t>(it - names.begin()));
        put_f64(payload, request.p);
        put_f64(payload, request.n);
        break;
      }
      case RequestKind::kInvert:
      case RequestKind::kUpgrade:
        put_u8(payload, static_cast<std::uint8_t>(
                            request.kind == RequestKind::kInvert
                                ? Opcode::kInvert
                                : Opcode::kUpgrade));
        put_str16(payload, request.app, "application name");
        put_f64(payload, request.processes);
        put_f64(payload, request.memory_per_process);
        break;
      case RequestKind::kStrawman:
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kStrawman));
        put_str16(payload, request.app, "application name");
        break;
      case RequestKind::kStatus:
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kStatus));
        break;
      case RequestKind::kIngest:
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kIngest));
        put_str16(payload, request.app, "application name");
        put_str32(payload, request.payload, "ingest payload");
        break;
    }
  }
  std::string frame = frame_header(kRequestMagic, payload.size());
  frame.append(payload);
  return frame;
}

std::string encode_response_frame(const std::vector<std::string>& lines) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(lines.size()));
  for (const std::string& line : lines) {
    put_str32(payload, line, "response line");
  }
  std::string frame = frame_header(kResponseMagic, payload.size());
  frame.append(payload);
  return frame;
}

std::vector<RequestView> decode_request_frame(std::string_view frame) {
  Reader reader = open_frame(frame, kRequestMagic);
  const std::uint32_t count = reader.u32("record count");
  // Every record is at least one opcode byte, so a count beyond the
  // remaining payload is malformed — reject before reserving memory for it.
  if (count > reader.remaining()) {
    throw exareq::InvalidArgument("binary: record count " +
                                  std::to_string(count) +
                                  " exceeds the frame payload");
  }
  std::vector<RequestView> views;
  views.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RequestView view;
    const std::uint8_t opcode = reader.u8("opcode");
    switch (static_cast<Opcode>(opcode)) {
      case Opcode::kEval:
        view.opcode = Opcode::kEval;
        view.app = reader.str16("application name");
        view.metric_id = reader.u8("metric id");
        view.p = reader.f64("process count");
        view.n = reader.f64("problem size");
        break;
      case Opcode::kInvert:
      case Opcode::kUpgrade:
        view.opcode = static_cast<Opcode>(opcode);
        view.app = reader.str16("application name");
        view.processes = reader.f64("process count");
        view.memory_per_process = reader.f64("memory per process");
        break;
      case Opcode::kStrawman:
        view.opcode = Opcode::kStrawman;
        view.app = reader.str16("application name");
        break;
      case Opcode::kStatus:
        view.opcode = Opcode::kStatus;
        break;
      case Opcode::kIngest:
        view.opcode = Opcode::kIngest;
        view.app = reader.str16("application name");
        view.payload = reader.str32("ingest payload");
        break;
      default:
        throw exareq::InvalidArgument("binary: unknown opcode " +
                                      std::to_string(opcode));
    }
    views.push_back(view);
  }
  if (reader.remaining() != 0) {
    throw exareq::InvalidArgument("binary: " +
                                  std::to_string(reader.remaining()) +
                                  " trailing bytes after the last record");
  }
  return views;
}

std::vector<std::string> decode_response_frame(std::string_view frame) {
  Reader reader = open_frame(frame, kResponseMagic);
  const std::uint32_t count = reader.u32("record count");
  if (count > reader.remaining()) {
    throw exareq::InvalidArgument("binary: record count " +
                                  std::to_string(count) +
                                  " exceeds the frame payload");
  }
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    lines.emplace_back(reader.str32("response line"));
  }
  if (reader.remaining() != 0) {
    throw exareq::InvalidArgument("binary: " +
                                  std::to_string(reader.remaining()) +
                                  " trailing bytes after the last record");
  }
  return lines;
}

BinaryFrameDecoder::BinaryFrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  exareq::require(max_frame_bytes_ >= kHeaderBytes,
                  "BinaryFrameDecoder: max_frame_bytes must cover the header");
}

std::vector<std::string> BinaryFrameDecoder::feed(std::string_view bytes) {
  buffer_.append(bytes);
  std::vector<std::string> frames;
  while (buffer_.size() >= kHeaderBytes) {
    const auto first = static_cast<unsigned char>(buffer_[0]);
    if (!is_binary_frame_start(first)) {
      buffer_.clear();
      throw InvalidArgument("binary: stream does not start with a frame "
                            "magic (0xEB request / 0xEC response)");
    }
    Reader header(std::string_view(buffer_).substr(0, kHeaderBytes));
    header.u32("magic+version+kind+reserved");
    const std::uint32_t payload_len = header.u32("payload length");
    const std::size_t total = kHeaderBytes + payload_len;
    if (total > max_frame_bytes_) {
      buffer_.clear();
      throw InvalidArgument("binary: frame of " + std::to_string(total) +
                            " bytes exceeds the " +
                            std::to_string(max_frame_bytes_) + "-byte limit");
    }
    if (buffer_.size() < total) break;
    frames.push_back(buffer_.substr(0, total));
    buffer_.erase(0, total);
  }
  return frames;
}

}  // namespace exareq::serve::binary
