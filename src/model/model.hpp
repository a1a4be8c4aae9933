// Requirement models in the (expanded) performance model normal form.
//
// A Model is  f(x_1..x_m) = c_0 + sum_k c_k * prod_l factor_kl(x_l)
// exactly as in the paper's Eq. 2, with the addition of named collective
// factors for communication metrics (Table II).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/basis.hpp"
#include "model/measurement.hpp"

namespace exareq::model {

/// One term: coefficient times a product of at most one factor per
/// parameter. Factors with is_identity() are not stored.
struct Term {
  double coefficient = 0.0;
  std::vector<Factor> factors;

  /// Evaluates coefficient * prod factor(x[factor.parameter]).
  double evaluate(std::span<const double> coordinate) const;

  /// Evaluates only the factor product (coefficient excluded).
  double evaluate_basis(std::span<const double> coordinate) const;

  /// Sum of factor complexities; used for tie-breaking in model selection.
  double complexity() const;

  /// True if the term involves parameter `parameter`.
  bool depends_on(std::size_t parameter) const;

  std::string to_string(std::span<const std::string> parameter_names) const;

  /// Structural equality of the basis (ignores the coefficient).
  bool same_basis(const Term& other) const;
};

/// A fitted requirement model plus its provenance-free structure.
class Model {
 public:
  Model() = default;
  Model(std::vector<std::string> parameter_names, double constant,
        std::vector<Term> terms);

  /// A constant model c (parameter names still recorded for printing).
  static Model constant_model(std::vector<std::string> parameter_names, double c);

  const std::vector<std::string>& parameter_names() const {
    return parameter_names_;
  }
  double constant() const { return constant_; }
  const std::vector<Term>& terms() const { return terms_; }
  bool is_constant() const { return terms_.empty(); }

  /// Evaluates the model; the coordinate width must match the parameter
  /// count and each component must be >= 1.
  double evaluate(std::span<const double> coordinate) const;

  /// Single-parameter convenience.
  double evaluate1(double x) const;

  /// Two-parameter convenience (the paper's r(p, n)).
  double evaluate2(double x0, double x1) const;

  /// Model predictions for every coordinate of `data`.
  std::vector<double> predict(const MeasurementSet& data) const;

  /// True if any non-constant term depends on parameter `parameter`.
  bool depends_on(std::size_t parameter) const;

  /// Human-readable rendering: "1.2e+03 + 4.5e+01 * n * log2(p)".
  std::string to_string() const;

  /// Paper Table II rendering: each coefficient rounded to the nearest
  /// power of ten, e.g. "10^5 * n * log2(n)"; a pure constant renders as
  /// "Constant".
  std::string to_string_rounded() const;

  /// Total complexity (sum over terms); constants have complexity 0.
  double complexity() const;

  /// Sum of models over identical parameter lists (used to combine
  /// per-call-path communication models into a whole-program requirement).
  /// Terms with identical bases are folded into one.
  static Model sum(std::span<const Model> models);

 private:
  std::vector<std::string> parameter_names_;
  double constant_ = 0.0;
  std::vector<Term> terms_;
};

}  // namespace exareq::model
