#include "model/model.hpp"

#include "support/error.hpp"
#include "support/format.hpp"

namespace exareq::model {

double Term::evaluate(std::span<const double> coordinate) const {
  return coefficient * evaluate_basis(coordinate);
}

double Term::evaluate_basis(std::span<const double> coordinate) const {
  double value = 1.0;
  for (const Factor& f : factors) {
    exareq::require(f.parameter < coordinate.size(),
                    "Term::evaluate: factor parameter out of range");
    value *= f.evaluate(coordinate[f.parameter]);
  }
  return value;
}

double Term::complexity() const {
  double total = 0.0;
  for (const Factor& f : factors) total += f.complexity();
  return total;
}

bool Term::depends_on(std::size_t parameter) const {
  for (const Factor& f : factors) {
    if (f.parameter == parameter && !f.is_identity()) return true;
  }
  return false;
}

std::string Term::to_string(std::span<const std::string> parameter_names) const {
  std::string out;
  for (const Factor& f : factors) {
    if (f.is_identity()) continue;
    if (!out.empty()) out += " * ";
    exareq::require(f.parameter < parameter_names.size(),
                    "Term::to_string: factor parameter out of range");
    out += f.to_string(parameter_names[f.parameter]);
  }
  return out.empty() ? "1" : out;
}

bool Term::same_basis(const Term& other) const {
  if (factors.size() != other.factors.size()) return false;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (!(factors[i] == other.factors[i])) return false;
  }
  return true;
}

Model::Model(std::vector<std::string> parameter_names, double constant,
             std::vector<Term> terms)
    : parameter_names_(std::move(parameter_names)),
      constant_(constant),
      terms_(std::move(terms)) {
  exareq::require(!parameter_names_.empty(), "Model: need at least one parameter");
  for (const Term& term : terms_) {
    for (const Factor& f : term.factors) {
      exareq::require(f.parameter < parameter_names_.size(),
                      "Model: term references unknown parameter");
    }
  }
}

Model Model::constant_model(std::vector<std::string> parameter_names, double c) {
  return Model(std::move(parameter_names), c, {});
}

double Model::evaluate(std::span<const double> coordinate) const {
  exareq::require(coordinate.size() == parameter_names_.size(),
                  "Model::evaluate: coordinate width mismatch");
  double value = constant_;
  for (const Term& term : terms_) value += term.evaluate(coordinate);
  return value;
}

double Model::evaluate1(double x) const {
  const double coordinate[] = {x};
  return evaluate(coordinate);
}

double Model::evaluate2(double x0, double x1) const {
  const double coordinate[] = {x0, x1};
  return evaluate(coordinate);
}

std::vector<double> Model::predict(const MeasurementSet& data) const {
  std::vector<double> out;
  out.reserve(data.size());
  for (std::size_t k = 0; k < data.size(); ++k) {
    out.push_back(evaluate(data.coordinate(k)));
  }
  return out;
}

bool Model::depends_on(std::size_t parameter) const {
  for (const Term& term : terms_) {
    if (term.depends_on(parameter)) return true;
  }
  return false;
}

std::string Model::to_string() const {
  if (terms_.empty()) return exareq::format_compact(constant_);
  std::string out;
  if (constant_ != 0.0) out = exareq::format_compact(constant_);
  for (const Term& term : terms_) {
    if (!out.empty()) out += " + ";
    out += exareq::format_compact(term.coefficient) + " * " +
           term.to_string(parameter_names_);
  }
  return out;
}

std::string Model::to_string_rounded() const {
  if (terms_.empty()) return "Constant";
  std::string out;
  if (constant_ > 0.0 && nearest_power_of_ten_exponent(constant_) > 0) {
    out = exareq::power_of_ten_string(constant_);
  }
  for (const Term& term : terms_) {
    if (term.coefficient <= 0.0) continue;
    if (!out.empty()) out += " + ";
    const std::string basis = term.to_string(parameter_names_);
    const int exponent = exareq::nearest_power_of_ten_exponent(term.coefficient);
    if (exponent == 0) {
      out += basis;
    } else {
      out += exareq::power_of_ten_string(term.coefficient) + " * " + basis;
    }
  }
  return out.empty() ? "Constant" : out;
}

double Model::complexity() const {
  double total = 0.0;
  for (const Term& term : terms_) total += term.complexity();
  return total;
}

Model Model::sum(std::span<const Model> models) {
  exareq::require(!models.empty(), "Model::sum: no models");
  const std::vector<std::string>& names = models.front().parameter_names();
  double constant = 0.0;
  std::vector<Term> terms;
  for (const Model& m : models) {
    exareq::require(m.parameter_names() == names,
                    "Model::sum: parameter lists differ");
    constant += m.constant();
    for (const Term& term : m.terms()) {
      bool folded = false;
      for (Term& existing : terms) {
        if (existing.same_basis(term)) {
          existing.coefficient += term.coefficient;
          folded = true;
          break;
        }
      }
      if (!folded) terms.push_back(term);
    }
  }
  return Model(names, constant, std::move(terms));
}

}  // namespace exareq::model
