#include "model/term_cache.hpp"

#include <cstring>

#include "support/error.hpp"

namespace exareq::model {
namespace {

void append_raw(std::string& key, const void* bytes, std::size_t size) {
  key.append(static_cast<const char*>(bytes), size);
}

void append_factor(std::string& key, const Factor& factor) {
  append_raw(key, &factor.parameter, sizeof(factor.parameter));
  append_raw(key, &factor.poly_exponent, sizeof(factor.poly_exponent));
  append_raw(key, &factor.log_exponent, sizeof(factor.log_exponent));
  const auto special = static_cast<int>(factor.special);
  append_raw(key, &special, sizeof(special));
}

void append_term(std::string& key, const Term& term) {
  key.push_back('t');
  for (const Factor& factor : term.factors) append_factor(key, factor);
}

}  // namespace

TermCache::TermCache(const MeasurementSet& data) : data_(&data) {
  // Fused log2 tables: one log2_clamped per (parameter, coordinate), paid
  // once up front; every factor column evaluation below reads from them.
  log2_tables_.resize(data.parameter_count());
  for (std::size_t l = 0; l < log2_tables_.size(); ++l) {
    std::vector<double>& table = log2_tables_[l];
    table.reserve(data.size());
    for (const Coordinate& x : data.coordinates()) {
      table.push_back(log2_clamped(x[l]));
    }
  }
}

const std::vector<double>& TermCache::log2_table(std::size_t parameter) const {
  exareq::require(parameter < log2_tables_.size(),
                  "TermCache::log2_table: parameter out of range");
  return log2_tables_[parameter];
}

const std::vector<double>& TermCache::factor_column_locked(const Factor& factor) {
  std::string key;
  append_factor(key, factor);
  const auto it = factor_columns_.find(key);
  if (it != factor_columns_.end()) return *it->second;
  exareq::require(factor.parameter < log2_tables_.size(),
                  "TermCache: factor parameter out of range");
  const std::vector<double>& log2s = log2_tables_[factor.parameter];
  auto values = std::make_unique<std::vector<double>>();
  values->reserve(data_->size());
  for (std::size_t r = 0; r < data_->size(); ++r) {
    values->push_back(
        factor.evaluate_with_log2(data_->coordinate(r)[factor.parameter],
                                  log2s[r]));
  }
  return *factor_columns_.emplace(key, std::move(values)).first->second;
}

const std::vector<double>& TermCache::factor_column(const Factor& factor) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factor_column_locked(factor);
}

const std::vector<double>& TermCache::column(const Term& term) {
  std::string key;
  append_term(key, term);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = columns_.find(key);
  if (it != columns_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Ordered product of the factor columns — the same multiplications, in
  // the same order, as Term::evaluate_basis per coordinate.
  auto values = std::make_unique<std::vector<double>>(data_->size(), 1.0);
  for (const Factor& factor : term.factors) {
    const std::vector<double>& part = factor_column_locked(factor);
    for (std::size_t r = 0; r < values->size(); ++r) (*values)[r] *= part[r];
  }
  return *columns_.emplace(key, std::move(values)).first->second;
}

}  // namespace exareq::model
