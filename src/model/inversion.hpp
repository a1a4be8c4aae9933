// Model inversion: given a requirement model and a budget, find the
// parameter value that exactly consumes the budget. The co-design workflow
// (paper Table IV, step IV) inverts the memory-footprint model to determine
// the problem size per process that fills the memory available to each
// process ("inflating the input problem", Sec. II-E).
#pragma once

#include <functional>
#include <span>

#include "model/model.hpp"

namespace exareq::model {

/// Options for monotone inversion.
struct InversionOptions {
  double lower_bound = 1.0;       ///< smallest admissible parameter value
  double upper_limit = 1e30;      ///< give up growing the bracket beyond this
  double relative_tolerance = 1e-12;
  std::size_t max_iterations = 400;
};

/// Finds x >= lower_bound with f(x) == target for a non-decreasing f, by
/// exponential bracket growth followed by bisection. Throws NumericError if
/// f(lower_bound) > target or the target is unreachable below upper_limit.
double invert_monotone(const std::function<double(double)>& f, double target,
                       const InversionOptions& options = {});

/// Inverts a single-parameter model.
double invert_model(const Model& model, double target,
                    const InversionOptions& options = {});

/// Inverts a multi-parameter model in one parameter with the remaining
/// coordinate components fixed; `coordinate[parameter]` is ignored.
double invert_model_in_parameter(const Model& model, std::size_t parameter,
                                 std::span<const double> coordinate, double target,
                                 const InversionOptions& options = {});

}  // namespace exareq::model
