// Call-path profiling (the Score-P substitute).
//
// Score-P attributes metrics to individual function call paths, which lets
// the paper pinpoint which program location drives a requirement. Our
// profiler maintains a call tree of named regions; counter increments are
// attributed to the currently open region (inclusively propagated to its
// ancestors on flatten).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "instr/counters.hpp"

namespace exareq::instr {

/// One call path with its exclusive metrics.
struct CallPathMetrics {
  std::string path;       ///< "main/solve/dot" style
  std::uint64_t visits = 0;
  OpCounters exclusive;   ///< counted while this path was innermost
  OpCounters inclusive;   ///< exclusive plus all descendants
};

/// Region tree profiler. Regions are opened/closed strictly nested (use
/// ScopedRegion). Counter deltas go to the innermost open region; anything
/// counted with no open region lands on the implicit root "".
class RegionProfiler {
 public:
  RegionProfiler();

  /// Opens a child region of the current one (created on first use).
  void enter(std::string_view name);

  /// Closes the innermost region; throws if only the root is open.
  void exit();

  /// Adds counters to the innermost open region. Inline: every
  /// ProcessInstrumentation::count_* call lands here.
  void add(const OpCounters& delta) { nodes_[current_].exclusive += delta; }

  /// Depth of open regions (root excluded).
  std::size_t depth() const;

  /// All call paths with exclusive and inclusive metrics, in depth-first
  /// order; path components joined by '/'. The root's inclusive metrics are
  /// the process totals.
  std::vector<CallPathMetrics> flatten() const;

  /// Process-wide totals (root inclusive).
  OpCounters totals() const;

 private:
  struct Node {
    std::string name;
    std::size_t parent;
    std::vector<std::size_t> children;
    std::uint64_t visits = 0;
    OpCounters exclusive;
  };

  std::size_t find_or_create_child(std::size_t parent, std::string_view name);

  std::vector<Node> nodes_;     // nodes_[0] is the root
  std::size_t current_ = 0;
};

/// RAII region guard.
class ScopedRegion {
 public:
  ScopedRegion(RegionProfiler& profiler, std::string_view name)
      : profiler_(profiler) {
    profiler_.enter(name);
  }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;
  ~ScopedRegion() { profiler_.exit(); }

 private:
  RegionProfiler& profiler_;
};

}  // namespace exareq::instr
