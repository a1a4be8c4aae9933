#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "support/error.hpp"

namespace exareq::serve {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

double parse_number(const std::string& token, const char* what) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw exareq::InvalidArgument(std::string("bad ") + what + ": '" + token +
                                  "'");
  }
  return value;
}

std::string lowercase(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

void expect_arity(const std::vector<std::string>& tokens, std::size_t arity,
                  const char* form) {
  if (tokens.size() != arity) {
    throw exareq::InvalidArgument(std::string("request '") + tokens[0] +
                                  "' expects the form '" + form + "'");
  }
}

}  // namespace

const std::vector<std::string>& metric_names() {
  static const std::vector<std::string> names = {
      "footprint",      "flops",    "comm_bytes",  "loads_stores",
      "stack_distance", "io_bytes", "energy_proxy"};
  return names;
}

void validate_request(const Request& request) {
  if (request.kind == RequestKind::kStatus) return;
  exareq::require(!request.app.empty(), "application name is empty");
  switch (request.kind) {
    case RequestKind::kEval: {
      const auto& names = metric_names();
      if (std::find(names.begin(), names.end(), request.metric) ==
          names.end()) {
        throw exareq::InvalidArgument(
            "unknown metric '" + request.metric +
            "' (expected footprint|flops|comm_bytes|loads_stores|"
            "stack_distance|io_bytes|energy_proxy)");
      }
      exareq::require(request.p >= 1.0 && request.n >= 1.0,
                      "eval coordinates must be >= 1");
      exareq::require(std::isfinite(request.p) && std::isfinite(request.n),
                      "eval coordinates must be finite");
      break;
    }
    case RequestKind::kInvert:
    case RequestKind::kUpgrade:
      exareq::require(request.processes >= 1.0, "process count must be >= 1");
      exareq::require(request.memory_per_process > 0.0,
                      "memory per process must be positive");
      exareq::require(std::isfinite(request.processes) &&
                          std::isfinite(request.memory_per_process),
                      "process count and memory per process must be finite");
      break;
    case RequestKind::kIngest:
      exareq::require(!request.payload.empty(),
                      "ingest payload is empty (expected ';'-joined campaign "
                      "CSV records, header first)");
      break;
    case RequestKind::kStrawman:
    case RequestKind::kStatus:
      break;
  }
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  exareq::require(max_frame_bytes_ > 0,
                  "FrameDecoder: max_frame_bytes must be positive");
}

std::vector<std::string> FrameDecoder::feed(std::string_view bytes) {
  std::vector<std::string> frames;
  while (!bytes.empty()) {
    const std::size_t newline = bytes.find('\n');
    if (newline == std::string_view::npos) {
      if (buffer_.size() + bytes.size() > max_frame_bytes_) {
        buffer_.clear();
        throw InvalidArgument(
            "frame exceeds " + std::to_string(max_frame_bytes_) +
            " bytes without a terminator");
      }
      buffer_.append(bytes);
      break;
    }
    std::string line = std::move(buffer_);
    buffer_.clear();
    line.append(bytes.substr(0, newline));
    bytes.remove_prefix(newline + 1);
    if (line.size() > max_frame_bytes_) {
      throw InvalidArgument("frame exceeds " +
                            std::to_string(max_frame_bytes_) +
                            " bytes without a terminator");
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // telnet-style blank lines
    frames.push_back(std::move(line));
  }
  return frames;
}

namespace {

// `ingest <app> <payload>` carries a CSV batch whose cells may hold
// arbitrary non-whitespace runs, so it is split verb/app/rest-of-line
// instead of whitespace-tokenized like the query verbs.
Request parse_ingest(const std::string& line) {
  std::size_t pos = line.find_first_not_of(" \t");
  pos = line.find_first_of(" \t", pos);  // skip the verb
  pos = line.find_first_not_of(" \t", pos);
  exareq::require(pos != std::string::npos,
                  "request 'ingest' expects the form 'ingest <app> <csv-payload>'");
  const std::size_t app_end = line.find_first_of(" \t", pos);
  exareq::require(app_end != std::string::npos,
                  "request 'ingest' expects the form 'ingest <app> <csv-payload>'");
  Request request;
  request.kind = RequestKind::kIngest;
  request.app = line.substr(pos, app_end - pos);
  const std::size_t payload_begin = line.find_first_not_of(" \t", app_end);
  exareq::require(payload_begin != std::string::npos,
                  "ingest payload is empty (expected ';'-joined campaign CSV "
                  "records, header first)");
  request.payload = line.substr(payload_begin);
  while (!request.payload.empty() &&
         (request.payload.back() == ' ' || request.payload.back() == '\t')) {
    request.payload.pop_back();
  }
  return request;
}

}  // namespace

Request parse_request(const std::string& line) {
  {
    const std::size_t verb_begin = line.find_first_not_of(" \t");
    if (verb_begin != std::string::npos &&
        line.compare(verb_begin, 6, "ingest") == 0 &&
        (verb_begin + 6 == line.size() ||
         line[verb_begin + 6] == ' ' || line[verb_begin + 6] == '\t')) {
      return parse_ingest(line);
    }
  }
  const std::vector<std::string> tokens = tokenize(line);
  exareq::require(!tokens.empty(), "empty request line");
  Request request;
  const std::string& verb = tokens[0];
  if (verb == "status") {
    expect_arity(tokens, 1, "status");
    request.kind = RequestKind::kStatus;
    return request;
  }
  if (verb == "eval") {
    expect_arity(tokens, 5, "eval <app> <metric> <p> <n>");
    request.kind = RequestKind::kEval;
    request.app = tokens[1];
    request.metric = tokens[2];
    request.p = parse_number(tokens[3], "process count");
    request.n = parse_number(tokens[4], "problem size");
    validate_request(request);
    return request;
  }
  if (verb == "invert" || verb == "upgrade") {
    expect_arity(tokens, 4,
                 verb == "invert" ? "invert <app> <processes> <memory_bytes>"
                                  : "upgrade <app> <processes> <memory_bytes>");
    request.kind =
        verb == "invert" ? RequestKind::kInvert : RequestKind::kUpgrade;
    request.app = tokens[1];
    request.processes = parse_number(tokens[2], "process count");
    request.memory_per_process = parse_number(tokens[3], "memory per process");
    validate_request(request);
    return request;
  }
  if (verb == "strawman") {
    expect_arity(tokens, 2, "strawman <app>");
    request.kind = RequestKind::kStrawman;
    request.app = tokens[1];
    return request;
  }
  throw exareq::InvalidArgument(
      "unknown request '" + verb +
      "' (expected eval|invert|upgrade|strawman|status|ingest)");
}

std::string canonical_key(const Request& request) {
  std::ostringstream os;
  switch (request.kind) {
    case RequestKind::kEval:
      os << "eval|" << lowercase(request.app) << '|' << request.metric << '|'
         << render_value(request.p) << '|' << render_value(request.n);
      break;
    case RequestKind::kInvert:
      os << "invert|" << lowercase(request.app) << '|'
         << render_value(request.processes) << '|'
         << render_value(request.memory_per_process);
      break;
    case RequestKind::kUpgrade:
      os << "upgrade|" << lowercase(request.app) << '|'
         << render_value(request.processes) << '|'
         << render_value(request.memory_per_process);
      break;
    case RequestKind::kStrawman:
      os << "strawman|" << lowercase(request.app);
      break;
    case RequestKind::kStatus:
      os << "status";
      break;
    case RequestKind::kIngest:
      // Never cached; the key exists only so every request has one.
      os << "ingest|" << lowercase(request.app);
      break;
  }
  return os.str();
}

bool cacheable(const Request& request) {
  return request.kind != RequestKind::kStatus &&
         request.kind != RequestKind::kIngest;
}

std::string ok_response(const std::string& payload) {
  return "ok " + payload;
}

std::string error_response(const std::string& category,
                           const std::string& message) {
  std::string flat = message;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  std::replace(flat.begin(), flat.end(), '\r', ' ');
  return "error " + category + ": " + flat;
}

std::string render_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace exareq::serve
