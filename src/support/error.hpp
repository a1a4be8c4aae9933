// Error handling primitives shared by all exareq libraries.
//
// Library code reports contract violations and unsatisfiable requests with
// exceptions derived from exareq::Error so that callers (tests, example
// drivers, bench harnesses) can distinguish library failures from std
// failures.
#pragma once

#include <stdexcept>
#include <string>

namespace exareq {

/// Base class of all exceptions thrown by exareq libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a numeric routine cannot produce a meaningful result
/// (singular system, no admissible hypothesis, inversion out of range, ...).
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& what) : Error(what) {}
};

/// Throws InvalidArgument with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) [[unlikely]] throw InvalidArgument(message);
}

/// Literal-message overload for hot paths (every TrackedBuffer element
/// access goes through it): the std::string is only built when the check
/// fails. A message that must be concatenated from runtime values belongs
/// in `if (!condition) throw InvalidArgument(...)`, so that it, too, is
/// only built on failure.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] throw InvalidArgument(message);
}

}  // namespace exareq
