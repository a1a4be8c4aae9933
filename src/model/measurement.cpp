#include "model/measurement.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace exareq::model {

MeasurementSet::MeasurementSet(std::vector<std::string> parameter_names)
    : parameter_names_(std::move(parameter_names)) {
  exareq::require(!parameter_names_.empty(),
                  "MeasurementSet: need at least one parameter");
}

void MeasurementSet::add(Coordinate coordinate, double value) {
  exareq::require(coordinate.size() == parameter_names_.size(),
                  "MeasurementSet::add: coordinate width mismatch");
  for (double c : coordinate) {
    exareq::require(c >= 1.0, "MeasurementSet::add: parameters must be >= 1");
  }
  coordinates_.push_back(std::move(coordinate));
  values_.push_back(value);
}

void MeasurementSet::add2(double first, double second, double value) {
  add(Coordinate{first, second}, value);
}

const Coordinate& MeasurementSet::coordinate(std::size_t index) const {
  exareq::require(index < coordinates_.size(),
                  "MeasurementSet::coordinate: index out of range");
  return coordinates_[index];
}

double MeasurementSet::value(std::size_t index) const {
  exareq::require(index < values_.size(),
                  "MeasurementSet::value: index out of range");
  return values_[index];
}

std::vector<double> MeasurementSet::distinct_values(std::size_t parameter) const {
  exareq::require(parameter < parameter_names_.size(),
                  "MeasurementSet::distinct_values: parameter out of range");
  std::vector<double> values;
  values.reserve(coordinates_.size());
  for (const auto& c : coordinates_) values.push_back(c[parameter]);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

MeasurementSet MeasurementSet::slice(std::size_t parameter,
                                     const Coordinate& anchor) const {
  exareq::require(parameter < parameter_names_.size(),
                  "MeasurementSet::slice: parameter out of range");
  exareq::require(anchor.size() == parameter_names_.size(),
                  "MeasurementSet::slice: anchor width mismatch");
  MeasurementSet result({parameter_names_[parameter]});
  for (std::size_t k = 0; k < coordinates_.size(); ++k) {
    bool matches = true;
    for (std::size_t l = 0; l < anchor.size(); ++l) {
      if (l != parameter && coordinates_[k][l] != anchor[l]) {
        matches = false;
        break;
      }
    }
    if (matches) result.add({coordinates_[k][parameter]}, values_[k]);
  }
  return result;
}

std::size_t MeasurementSet::parameter_index(const std::string& name) const {
  for (std::size_t i = 0; i < parameter_names_.size(); ++i) {
    if (parameter_names_[i] == name) return i;
  }
  throw exareq::InvalidArgument("MeasurementSet: no parameter named '" + name + "'");
}

void MeasurementSet::validate_for_modeling(std::size_t min_distinct) const {
  for (std::size_t l = 0; l < parameter_names_.size(); ++l) {
    const std::size_t distinct = distinct_values(l).size();
    if (distinct < min_distinct) {
      throw exareq::InvalidArgument(
          "MeasurementSet: parameter '" + parameter_names_[l] + "' has only " +
          std::to_string(distinct) + " distinct values; need at least " +
          std::to_string(min_distinct) + " (paper rule of thumb, Sec. II-C)");
    }
  }
}

}  // namespace exareq::model
