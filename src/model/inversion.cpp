#include "model/inversion.hpp"

#include <cmath>
#include <vector>

#include "support/error.hpp"
#include "support/format.hpp"

namespace exareq::model {

double invert_monotone(const std::function<double(double)>& f, double target,
                       const InversionOptions& options) {
  exareq::require(options.lower_bound >= 1.0,
                  "invert_monotone: lower bound must be >= 1");
  double lo = options.lower_bound;
  const double f_lo = f(lo);
  if (f_lo > target) {
    throw exareq::NumericError(
        "invert_monotone: target " + exareq::format_compact(target) +
        " below model value " + exareq::format_compact(f_lo) +
        " at the lower bound");
  }
  if (f_lo == target) return lo;

  // Grow the bracket geometrically until f(hi) >= target.
  double hi = std::max(lo * 2.0, 2.0);
  while (f(hi) < target) {
    lo = hi;
    hi *= 2.0;
    if (hi > options.upper_limit) {
      throw exareq::NumericError(
          "invert_monotone: target " + exareq::format_compact(target) +
          " unreachable below upper limit " +
          exareq::format_compact(options.upper_limit) +
          " (model may be bounded or decreasing)");
    }
  }

  for (std::size_t i = 0; i < options.max_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if ((hi - lo) <= options.relative_tolerance * std::max(1.0, std::fabs(mid))) {
      break;
    }
    if (f(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double invert_model(const Model& model, double target,
                    const InversionOptions& options) {
  exareq::require(model.parameter_names().size() == 1,
                  "invert_model: model must be single-parameter");
  return invert_monotone([&model](double x) { return model.evaluate1(x); }, target,
                         options);
}

double invert_model_in_parameter(const Model& model, std::size_t parameter,
                                 std::span<const double> coordinate, double target,
                                 const InversionOptions& options) {
  exareq::require(coordinate.size() == model.parameter_names().size(),
                  "invert_model_in_parameter: coordinate width mismatch");
  exareq::require(parameter < coordinate.size(),
                  "invert_model_in_parameter: parameter out of range");
  std::vector<double> point(coordinate.begin(), coordinate.end());
  return invert_monotone(
      [&model, &point, parameter](double x) {
        point[parameter] = x;
        return model.evaluate(point);
      },
      target, options);
}

}  // namespace exareq::model
