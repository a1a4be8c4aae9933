// Tests for the obs tracing layer: span recording, disabled-mode no-op,
// the Chrome trace_event JSON export (golden structure with normalized
// timestamps, well-formedness under generated span names fed through a
// chunked JSON scanner), and TraceGuard path validation. All suites are
// named Obs* so the sanitizer CI jobs can select them with
// `ctest -R '^Obs'`.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "testkit/gen.hpp"
#include "testkit/property.hpp"

namespace exareq::obs {
namespace {

/// Minimal JSON well-formedness scanner (objects, arrays, strings with
/// escapes, numbers, literals). Feedable in chunks: the caller streams
/// bytes through `feed` and asks `done` at the end; any structural error
/// latches `failed`. Deliberately independent of the writer's code paths.
class JsonScanner {
 public:
  void feed(std::string_view chunk) {
    for (const char c : chunk) step(c);
  }

  bool done() const {
    return !failed_ && depth_ == 0 && !in_string_ && seen_value_;
  }

  bool failed() const { return failed_; }

 private:
  void step(char c) {
    if (failed_) return;
    if (in_string_) {
      if (escaped_) {
        escaped_ = false;
      } else if (c == '\\') {
        escaped_ = true;
      } else if (c == '"') {
        in_string_ = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        failed_ = true;  // raw control characters must be escaped
      }
      return;
    }
    switch (c) {
      case '"':
        in_string_ = true;
        seen_value_ = true;
        break;
      case '{':
      case '[':
        stack_.push_back(c);
        ++depth_;
        seen_value_ = true;
        break;
      case '}':
      case ']': {
        const char open = c == '}' ? '{' : '[';
        if (stack_.empty() || stack_.back() != open) {
          failed_ = true;
        } else {
          stack_.pop_back();
          --depth_;
        }
        break;
      }
      default:
        if (std::isspace(static_cast<unsigned char>(c)) != 0) break;
        const bool value_char =
            std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
            c == '+' || c == '.' || c == ',' || c == ':';
        if (!value_char) failed_ = true;
        seen_value_ = true;
    }
  }

  std::vector<char> stack_;
  int depth_ = 0;
  bool in_string_ = false;
  bool escaped_ = false;
  bool failed_ = false;
  bool seen_value_ = false;
};

bool well_formed(const std::string& json) {
  JsonScanner scanner;
  scanner.feed(json);
  return scanner.done();
}

TEST(ObsTraceTest, DisabledSpanRecordsNothing) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.stop();
  const std::size_t before = recorder.span_count();
  {
    ScopedSpan span("ignored", "test");
    EXPECT_FALSE(span.active());
    span.arg("dropped", 1.0);
  }
  EXPECT_EQ(recorder.span_count(), before);
}

TEST(ObsTraceTest, RecordsSpanWithArguments) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  {
    ScopedSpan span("fit", "model");
    EXPECT_TRUE(span.active());
    span.arg("candidates", 42.0);
    span.arg("points", 5.0);
  }
  recorder.stop();
  const std::vector<SpanEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "fit");
  EXPECT_EQ(events[0].category, "model");
  EXPECT_GE(events[0].start_us, 0);
  EXPECT_GE(events[0].duration_us, 0);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].key, "candidates");
  EXPECT_EQ(events[0].args[0].value, 42.0);
}

TEST(ObsTraceTest, StartClearsPreviousSpans) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  { ScopedSpan span("first", "test"); }
  EXPECT_EQ(recorder.span_count(), 1u);
  recorder.start();
  EXPECT_EQ(recorder.span_count(), 0u);
  recorder.stop();
}

/// Replaces the digits after every "tid":, "ts": and "dur": with 0, and a
/// minus sign before a timestamp's digits with them; a negative thread id
/// or duration stays visible. Every other byte is left alone.
std::string zero_varying_fields(std::string json) {
  for (const std::string_view key : {"\"tid\":", "\"ts\":", "\"dur\":"}) {
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
      at += key.size();
      std::size_t end = at;
      if (key == "\"ts\":" && end < json.size() && json[end] == '-') ++end;
      const std::size_t digits = end;
      while (end < json.size() &&
             std::isdigit(static_cast<unsigned char>(json[end])) != 0) {
        ++end;
      }
      if (end > digits) json.replace(at, end - at, "0");
    }
  }
  return json;
}

TEST(ObsTraceTest, ChromeJsonGoldenStructure) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  { ScopedSpan span("alpha", "catA"); }
  {
    ScopedSpan span("beta", "catB");
    span.arg("n", 64.0);
  }
  recorder.stop();

  // Timestamps, durations, and the recorder-assigned thread id vary run to
  // run; every other field is stable and must match the golden form.
  const std::string json = zero_varying_fields(recorder.chrome_json());

  const std::string golden =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"alpha\",\"cat\":\"catA\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":0,\"dur\":0},\n"
      "{\"name\":\"beta\",\"cat\":\"catB\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":0,\"dur\":0,\"args\":{\"n\":64}}\n"
      "]}\n";
  EXPECT_EQ(json, golden);
}

TEST(ObsTraceTest, EscapesSpanNamesInJson) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  { ScopedSpan span("quote\" back\\slash\nnewline\ttab", "ctrl\x01"); }
  recorder.stop();
  const std::string json = recorder.chrome_json();
  EXPECT_NE(json.find("quote\\\" back\\\\slash\\nnewline\\ttab"),
            std::string::npos);
  EXPECT_NE(json.find("ctrl\\u0001"), std::string::npos);
  EXPECT_TRUE(well_formed(json));
}

TEST(ObsTraceTest, NonFiniteArgumentsRenderAsZero) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.start();
  {
    ScopedSpan span("nonfinite", "test");
    span.arg("inf", std::numeric_limits<double>::infinity());
    span.arg("nan", std::numeric_limits<double>::quiet_NaN());
  }
  recorder.stop();
  const std::string json = recorder.chrome_json();
  EXPECT_NE(json.find("\"inf\":0"), std::string::npos);
  EXPECT_NE(json.find("\"nan\":0"), std::string::npos);
  EXPECT_TRUE(well_formed(json));
}

TEST(ObsTraceJsonPropertyTest, WellFormedUnderArbitraryNamesAndChunking) {
  // Property: whatever bytes end up in span names, categories, and argument
  // keys, the exported file must scan as well-formed JSON — including when
  // fed to the scanner in arbitrary chunk sizes, which catches errors that
  // only a specific buffer split would hide.
  struct Case {
    std::string name;
    std::string category;
    std::string key;
    std::uint64_t chunk_seed = 0;
  };
  const testkit::Gen<std::string> nasty = testkit::string_of(
      std::string("ab\"\\\n\t\r{}[]:,\x01\x1f /"), 0, 24);
  const testkit::Gen<Case> gen([nasty](Rng& rng) {
    Case c;
    c.name = nasty(rng);
    c.category = nasty(rng);
    c.key = nasty(rng);
    c.chunk_seed = rng.uniform_int(1, 1 << 30);
    return c;
  });
  const auto config = testkit::property_config(
      "chrome json well-formed under fuzz names and chunking", 150);
  const auto result = testkit::check<Case>(
      config, gen, nullptr, [](const Case& c) -> std::string {
        TraceRecorder& recorder = TraceRecorder::instance();
        recorder.start();
        {
          ScopedSpan span(c.name, c.category);
          span.arg(c.key, 1.5);
        }
        recorder.stop();
        const std::string json = recorder.chrome_json();

        JsonScanner chunked;
        Rng chunker(c.chunk_seed);
        std::size_t offset = 0;
        while (offset < json.size()) {
          const auto step =
              static_cast<std::size_t>(chunker.uniform_int(1, 16));
          const std::size_t take = std::min(step, json.size() - offset);
          chunked.feed(std::string_view(json).substr(offset, take));
          offset += take;
        }
        if (!chunked.done()) return "chunked scan rejected the export";
        if (!well_formed(json)) return "whole-buffer scan rejected the export";
        return "";
      });
  EXPECT_TRUE(result.passed()) << result.report();
}

TEST(ObsTraceTest, TraceGuardRejectsUnwritablePath) {
  try {
    TraceGuard guard("/nonexistent-dir/trace.json");
    FAIL() << "expected exareq::Error";
  } catch (const exareq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/trace.json"),
              std::string::npos);
  }
  // A failed guard must not leave the recorder running.
  EXPECT_FALSE(TraceRecorder::enabled());
}

TEST(ObsTraceTest, TraceGuardWritesFileOnFinish) {
  const std::string path = ::testing::TempDir() + "obs_guard_trace.json";
  {
    TraceGuard guard(path);
    EXPECT_TRUE(TraceRecorder::enabled());
    { ScopedSpan span("guarded", "test"); }
    guard.finish();
    EXPECT_EQ(guard.spans_written(), 1u);
    guard.finish();  // idempotent
    EXPECT_EQ(guard.spans_written(), 1u);
  }
  EXPECT_FALSE(TraceRecorder::enabled());
  std::ifstream file(path);
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("\"guarded\""), std::string::npos);
  EXPECT_TRUE(well_formed(content.str()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace exareq::obs
