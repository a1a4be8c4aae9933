#include "model/fitter.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>

#include "model/linalg.hpp"
#include "model/term_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace exareq::model {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Candidates scoring within this fraction of the best are considered
/// ties and resolved toward lower structural complexity. Generous on
/// purpose: the PMNF grid contains many shapes that only differ beyond
/// measurement precision, and the paper's workflow values interpretable
/// (simple) models.
constexpr double kTieTolerance = 0.05;

/// Terms whose largest relative contribution over the measured points
/// falls below this share are dropped from the final model: they fit
/// sub-noise residuals in-sample yet can dominate (and wreck) the
/// extrapolation — a p^3 term with a 0.2% in-sample share is invisible to
/// cross-validation but grows 8x per process-count doubling.
constexpr double kMinTermContribution = 0.01;

/// Hypotheses whose term coefficients vary by more than this relative
/// spread (stddev / |mean|) across the leave-one-out folds are rejected:
/// a genuine requirement term is estimable from any subset of the
/// measurements, while a noise-chasing term's coefficient is dictated by
/// whichever points happen to be in the fold.
constexpr double kMaxCoefficientSpread = 0.5;

/// Scale used to turn absolute deviations at near-zero observations into
/// meaningful relative errors.
double observation_scale(std::span<const double> values) {
  double max_abs = 0.0;
  for (double v : values) max_abs = std::max(max_abs, std::fabs(v));
  return max_abs > 0.0 ? max_abs : 1.0;
}

double relative_error(double predicted, double observed, double scale) {
  const double denom = std::max(std::fabs(observed), 1e-9 * scale);
  return std::fabs(predicted - observed) / denom;
}

/// One term's basis values at every coordinate of the data set, as the
/// engine's TermCache holds them.
using Column = std::vector<double>;

/// The cached basis columns of a hypothesis, one per term, in term order.
/// Within one engine two terms have the same structure exactly when they
/// share a cached column, so this sequence also identifies the hypothesis.
using Columns = std::span<const Column* const>;

struct CoefficientFit {
  double constant = 0.0;
  std::vector<double> coefficients;
  bool admissible = false;
};

Model make_model(const MeasurementSet& data, const std::vector<Term>& basis,
                 const CoefficientFit& fit) {
  std::vector<Term> terms;
  terms.reserve(basis.size());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    Term term = basis[i];
    term.coefficient = fit.coefficients[i];
    if (term.coefficient != 0.0) terms.push_back(std::move(term));
  }
  return Model(data.parameter_names(), fit.constant, std::move(terms));
}

FitQuality evaluate_quality(const MeasurementSet& data, const Model& model,
                            double cv_score) {
  FitQuality quality;
  quality.cv_score = cv_score;
  const std::vector<double> predicted = model.predict(data);
  const std::vector<double>& observed = data.values();
  quality.smape = exareq::smape(observed, predicted);
  const double scale = observation_scale(observed);
  quality.relative_errors.reserve(observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    quality.relative_errors.push_back(
        relative_error(predicted[i], observed[i], scale));
  }
  // R^2 is undefined for constant observations; report a perfect 1.0 there,
  // which matches the constant model being exact.
  bool constant_data = true;
  for (double v : observed) {
    if (v != observed.front()) {
      constant_data = false;
      break;
    }
  }
  quality.r_squared =
      constant_data ? 1.0 : exareq::r_squared(observed, predicted);
  return quality;
}

/// Hypothesis-score memo keyed by a hypothesis' column sequence (see
/// Columns). Keys are copied into one arena and the table is open-addressed
/// with linear probing, so a lookup never allocates and an insert only when
/// the arena or the table grows. Not thread-safe: the engine holds its memo
/// mutex around every call.
class ScoreMemo {
 public:
  /// The memoized score of `key`, or null.
  const double* find(Columns key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(key, hash(key))];
    return slot.occupied ? &slot.score : nullptr;
  }

  /// Memoizes `score` under `key`; a key already present keeps its score.
  void insert(Columns key, double score) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t key_hash = hash(key);
    Slot& slot = slots_[probe(key, key_hash)];
    if (slot.occupied) return;
    slot = {key_hash, arena_.size(), key.size(), score, true};
    arena_.insert(arena_.end(), key.begin(), key.end());
    ++size_;
  }

 private:
  struct Slot {
    std::size_t hash = 0;
    std::size_t begin = 0;  ///< the key's first column in arena_
    std::size_t length = 0;
    double score = 0.0;
    bool occupied = false;
  };

  static std::size_t hash(Columns key) {
    std::uint64_t h = key.size();
    for (const Column* column : key) {
      h ^= reinterpret_cast<std::uintptr_t>(column);
      h *= 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }

  /// The slot holding `key`, or the empty slot where it belongs.
  std::size_t probe(Columns key, std::size_t key_hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = key_hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (!slot.occupied) return i;
      if (slot.hash == key_hash && slot.length == key.size() &&
          std::equal(key.begin(), key.end(), arena_.data() + slot.begin)) {
        return i;
      }
    }
  }

  /// Doubles the table (at most half full after any insert).
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (!slot.occupied) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].occupied) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<const Column*> arena_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Per-thread scratch of the scoring code. It outlives fits and engines,
/// so once its buffers have grown, scoring a hypothesis allocates nothing.
/// Each member has one role, and code holding a member must not call code
/// that takes the same member (a candidate body may run on the thread of
/// the generation that started it):
/// - `qr`, `weighted`, `folds`, `subset`, `fold_table`: the hypothesis
///   being scored — its factorization, one weighted column at a time, and
///   its leave-one-out folds (the scalar engine's per-fold rows and
///   coefficients in `subset` and `fold_table`);
/// - `fold_refit`, `fold_columns`: the batched engine's refit of a fold
///   whose downdate is flagged singular (with `subset` and `weighted`),
///   while `qr` and `folds` hold the hypothesis;
/// - `trial`: the columns of a trial hypothesis handed to cv_score;
/// - `prefix`, `key`, `missing`, `fresh`: one generation of
///   score_extensions_batch, held while its candidate bodies run.
struct Workspace {
  RetainedQr qr;
  std::vector<double> weighted;
  LeaveOneOutFolds folds;
  std::vector<std::size_t> subset;
  std::vector<double> fold_table;
  RetainedQr fold_refit;
  std::vector<const Column*> fold_columns;
  std::vector<const Column*> trial;
  RetainedQr prefix;
  std::vector<const Column*> key;
  std::vector<std::size_t> missing;
  std::vector<double> fresh;
};

Workspace& thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

}  // namespace

double EngineStats::cache_hit_rate() const {
  const double hits =
      static_cast<double>(score_cache_hits + basis_column_hits);
  const double lookups = static_cast<double>(
      hypotheses_scored + basis_column_hits + basis_columns_built);
  return lookups > 0.0 ? hits / lookups : 0.0;
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  hypotheses_scored += other.hypotheses_scored;
  score_cache_hits += other.score_cache_hits;
  cv_solves += other.cv_solves;
  qr_extensions += other.qr_extensions;
  downdates += other.downdates;
  basis_column_hits += other.basis_column_hits;
  basis_columns_built += other.basis_columns_built;
  wall_seconds += other.wall_seconds;
  threads = std::max(threads, other.threads);
  return *this;
}

struct FitEngine::Impl {
  const MeasurementSet& data;
  FitOptions options;  // threads resolved
  TermCache cache;
  exareq::ThreadPool* pool = nullptr;
  std::atomic<std::size_t> hypotheses{0};
  std::atomic<std::size_t> score_hits{0};
  std::atomic<std::size_t> solves{0};
  std::atomic<std::size_t> extension_count{0};
  std::atomic<std::size_t> downdate_count{0};
  std::mutex memo_mutex;
  ScoreMemo score_memo;

  // Precomputed once per engine: the fitter's weighted view of the data.
  // Every solve factors [w*1, w*col_1, ...] against w*y over some rows, so
  // the row weights are shared by every hypothesis and fold the engine ever
  // fits. The weights w = 1/|y| make the residuals relative, so small-scale
  // configurations count as much as large ones, which is what an
  // extrapolating model needs. Their near-zero floor is anchored to the
  // whole data set, so a leave-one-out fold weighs each surviving row
  // exactly like the full fit does.
  double obs_scale = 1.0;
  std::vector<double> row_weights;
  std::vector<double> ones;  ///< the intercept's basis column
  std::vector<std::size_t> every_row;

  Impl(const MeasurementSet& data_in, const FitOptions& options_in)
      : data(data_in), options(options_in), cache(data_in) {
    if (options.threads == 0) {
      options.threads = exareq::ThreadPool::hardware_threads();
    }
    if (options.threads > 1) pool = &exareq::shared_pool(options.threads);
    obs_scale = observation_scale(data.values());
    const std::size_t m = data.size();
    ones.assign(m, 1.0);
    every_row.resize(m);
    for (std::size_t r = 0; r < m; ++r) every_row[r] = r;
    row_weights.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      row_weights[r] =
          1.0 / std::max(std::fabs(data.value(r)), 1e-9 * obs_scale);
    }
  }

  /// Runs body(i) for i in [0, count), on the pool when attached. Bodies
  /// must write results only under their own index; callers reduce serially
  /// afterwards, which keeps every thread count bit-identical.
  template <typename Body>
  void for_each_index(std::size_t count, const Body& body) {
    if (pool == nullptr) {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } else {
      pool->parallel_for(count, body);
    }
  }

  /// The cached column of every term, in order.
  std::vector<const Column*> columns_for(const std::vector<Term>& basis) {
    std::vector<const Column*> columns;
    columns.reserve(basis.size());
    for (const Term& term : basis) columns.push_back(&cache.column(term));
    return columns;
  }

  /// Coefficient-stability guard shared by both CV paths: every term must
  /// be estimable consistently from any m-1 of the measurements. `table`
  /// holds `terms` rows of m fold coefficients each.
  bool coefficients_stable(std::span<const double> table, std::size_t terms,
                           std::size_t m) const {
    for (std::size_t c = 0; c < terms; ++c) {
      const std::span<const double> folds = table.subspan(c * m, m);
      if (folds.size() < 2) continue;
      const double mean_coefficient = exareq::mean(folds);
      const double spread = exareq::stddev(folds);
      if (spread > kMaxCoefficientSpread *
                       std::max(std::fabs(mean_coefficient), 1e-300)) {
        return false;
      }
    }
    return true;
  }

  /// w .* column over `rows` into `out`: one column of the weighted problem.
  void weighted_rows(const Column& column, std::span<const std::size_t> rows,
                     std::vector<double>& out) const {
    out.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out[i] = column[rows[i]] * row_weights[rows[i]];
    }
  }

  /// Factors the weighted design [w*1, w*col_1, ..., w*col_k] against w*y
  /// over `rows` into `qr`, retaining the reflectors so callers can extend
  /// or downdate it; `weighted` carries one column at a time. Every
  /// least-squares solve of the fitter starts here: full-data fits and
  /// batched scoring pass every row, the scalar engine's folds the m-1 rows
  /// that remain.
  void factor_basis(Columns columns, std::span<const std::size_t> rows,
                    RetainedQr& qr, std::vector<double>& weighted) const {
    weighted_rows(data.values(), rows, weighted);
    qr.restart(rows.size(), weighted);
    weighted_rows(ones, rows, weighted);
    qr.append_column(weighted);
    for (const Column* column : columns) {
      if (qr.rank_deficient()) break;
      weighted_rows(*column, rows, weighted);
      qr.append_column(weighted);
    }
  }

  /// The coefficient checks every solution passes, full fit or fold:
  /// finite, and (when required) non-negative term coefficients — index 0
  /// is the constant, which may take any sign. The `count` coefficients lie
  /// `stride` apart (a fold is one column of the fold table).
  bool admissible(const double* solution, std::size_t count,
                  std::size_t stride) const {
    for (std::size_t c = 0; c < count; ++c) {
      if (!std::isfinite(solution[c * stride])) return false;
    }
    if (options.require_nonnegative) {
      for (std::size_t c = 1; c < count; ++c) {
        if (solution[c * stride] < 0.0) return false;
      }
    }
    return true;
  }

  bool admissible(std::span<const double> solution) const {
    return admissible(solution.data(), solution.size(), 1);
  }

  /// Weighted least-squares fit of [1, columns...] over `rows` into `qr`
  /// (`weighted` carries one column at a time): one factorization, counted
  /// as a solve. False when underdetermined, rank-deficient, or rejected by
  /// `admissible`; otherwise qr.solution() is [constant, coefficients...].
  bool solve_coefficients(Columns columns, std::span<const std::size_t> rows,
                          RetainedQr& qr, std::vector<double>& weighted) {
    if (rows.size() < columns.size() + 1) return false;  // underdetermined
    solves.fetch_add(1, std::memory_order_relaxed);
    factor_basis(columns, rows, qr, weighted);
    if (qr.rank_deficient()) return false;
    qr.solve();
    return admissible(qr.solution());
  }

  /// The rows of data except `left_out` into `subset`: one fold's rows.
  void fold_rows(std::size_t left_out, std::vector<std::size_t>& subset) const {
    subset.clear();
    for (std::size_t r = 0; r < data.size(); ++r) {
      if (r != left_out) subset.push_back(r);
    }
  }

  /// solve_coefficients over every row, copied out of the workspace.
  CoefficientFit fit_coefficients(Columns columns) {
    CoefficientFit fit;
    Workspace& ws = thread_workspace();
    if (!solve_coefficients(columns, every_row, ws.qr, ws.weighted)) return fit;
    const std::vector<double>& solution = ws.qr.solution();
    fit.constant = solution[0];
    fit.coefficients.assign(solution.begin() + 1, solution.end());
    fit.admissible = true;
    return fit;
  }

  /// Refits fold `left_out` of the hypothesis [prefix..., last] (`last`
  /// may be null) over the other m-1 rows, as the scalar engine does: the
  /// batched engine's fallback for a fold whose downdate is flagged
  /// singular. The flag says the downdate is unusable, not the fold — the
  /// remaining rows, re-equilibrated, can still determine every
  /// coefficient. Writes the fold's coefficients into column `left_out` of
  /// `folds`' table, so the spread check reads them, and its prediction of
  /// the left-out row into `predicted`. False when the refit is
  /// rank-deficient or inadmissible. The caller holds the workspace's `qr`
  /// and `folds`, so the refit factors into `fold_refit`.
  bool refit_fold(Columns prefix, const Column* last, std::size_t left_out,
                  LeaveOneOutFolds& folds, double& predicted) {
    const std::size_t m = data.size();
    Workspace& ws = thread_workspace();
    ws.fold_columns.assign(prefix.begin(), prefix.end());
    if (last != nullptr) ws.fold_columns.push_back(last);
    fold_rows(left_out, ws.subset);
    if (!solve_coefficients(ws.fold_columns, ws.subset, ws.fold_refit,
                            ws.weighted)) {
      return false;
    }
    const std::vector<double>& fit = ws.fold_refit.solution();
    predicted = fit[0];
    folds.coefficients[left_out] = fit[0];
    for (std::size_t c = 0; c < ws.fold_columns.size(); ++c) {
      predicted += fit[c + 1] * (*ws.fold_columns[c])[left_out];
      folds.coefficients[(c + 1) * m + left_out] = fit[c + 1];
    }
    return true;
  }

  /// LOO score from an already-solved factorization of the hypothesis
  /// [prefix..., last] (`last` may be null): admissibility of the full
  /// fit, then every fold by a rank-one downdate instead of a refit, except
  /// that a fold whose downdate is flagged singular is refit (refit_fold).
  /// Checks per fold mirror the scalar path exactly — the same
  /// `admissible` and the same spread check over the fold coefficients —
  /// so both paths reject the same hypotheses. Counts one downdate per
  /// downdated fold up to and including the first rejected one.
  double cv_from_factored(const RetainedQr& qr, LeaveOneOutFolds& folds,
                          Columns prefix, const Column* last) {
    const std::size_t m = data.size();
    const std::size_t n = qr.cols();
    if (!admissible(qr.solution())) return kInfinity;
    qr.leave_one_out_folds(folds);

    std::size_t checked = 0;
    const double score = [&] {
      double total = 0.0;
      for (std::size_t left_out = 0; left_out < m; ++left_out) {
        double predicted = 0.0;
        if (folds.singular[left_out] != 0) {
          if (!refit_fold(prefix, last, left_out, folds, predicted)) {
            return kInfinity;
          }
        } else {
          ++checked;
          if (!admissible(folds.coefficients.data() + left_out, n, m)) {
            return kInfinity;
          }
          // The fold's prediction error comes from the PRESS residual, not
          // from re-summing the downdated coefficients — the factored form
          // is exact where the coefficient reconstruction cancels on
          // near-exact fits. The residual lives in the weighted problem;
          // dividing by the row weight (== 1 / relative_error's
          // denominator) takes it back.
          predicted = data.value(left_out) -
                      folds.press[left_out] / row_weights[left_out];
        }
        total += relative_error(predicted, data.value(left_out), obs_scale);
      }
      // The term coefficients' folds, after the constant's.
      if (!coefficients_stable(
              std::span<const double>(folds.coefficients).subspan(m), n - 1,
              m)) {
        return kInfinity;
      }
      return total / static_cast<double>(m);
    }();
    downdate_count.fetch_add(checked, std::memory_order_relaxed);
    return score;
  }

  /// Batched CV: one retained QR for the whole hypothesis, m downdates.
  double compute_cv_batched(Columns columns) {
    const std::size_t m = data.size();
    if (m < columns.size() + 2) return kInfinity;
    Workspace& ws = thread_workspace();
    solves.fetch_add(1, std::memory_order_relaxed);
    factor_basis(columns, every_row, ws.qr, ws.weighted);
    if (ws.qr.rank_deficient()) return kInfinity;
    ws.qr.solve();
    return cv_from_factored(ws.qr, ws.folds, columns, nullptr);
  }

  /// The CV computation proper: batched, or a refit per fold (scalar).
  double compute_cv(Columns columns) {
    if (options.batched_cv) return compute_cv_batched(columns);
    const std::size_t m = data.size();
    const std::size_t k = columns.size();
    // Need at least one spare point beyond the coefficients to leave out.
    if (m < k + 2) return kInfinity;
    Workspace& ws = thread_workspace();

    // The full fit must be admissible (non-negative, full rank); otherwise
    // the hypothesis is rejected outright.
    if (!solve_coefficients(columns, every_row, ws.qr, ws.weighted)) {
      return kInfinity;
    }

    double total = 0.0;
    ws.fold_table.resize(k * m);
    for (std::size_t left_out = 0; left_out < m; ++left_out) {
      fold_rows(left_out, ws.subset);
      if (!solve_coefficients(columns, ws.subset, ws.qr, ws.weighted)) {
        return kInfinity;
      }
      const std::vector<double>& fit = ws.qr.solution();
      double predicted = fit[0];
      for (std::size_t c = 0; c < k; ++c) {
        predicted += fit[c + 1] * (*columns[c])[left_out];
        ws.fold_table[c * m + left_out] = fit[c + 1];
      }
      total += relative_error(predicted, data.value(left_out), obs_scale);
    }
    if (!coefficients_stable(ws.fold_table, k, m)) return kInfinity;
    return total / static_cast<double>(m);
  }

  /// CV scores this far below the convergence tolerance measure rounding
  /// noise, not model quality: their exact digits depend on the CV
  /// algorithm (per-fold refits vs rank-one downdates). Collapsing them to
  /// exactly 0 makes every numerically-exact hypothesis an exact tie, so
  /// selection among them falls to the deterministic tie-breaks
  /// (complexity, pool order) and both CV paths pick the same model.
  static constexpr double kNumericallyZero = 1e-8;

  double selection_score(double score) const {
    return score < kNumericallyZero ? 0.0 : score;
  }

  double cv_score(Columns columns) {
    hypotheses.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      if (const double* memoized = score_memo.find(columns)) {
        score_hits.fetch_add(1, std::memory_order_relaxed);
        return *memoized;
      }
    }
    const double score = selection_score(compute_cv(columns));
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      score_memo.insert(columns, score);
    }
    return score;
  }

  /// Scores the whole generation selected + extensions[j] into scores[j]:
  /// the shared prefix [w*1, w*selected...] is factored once, and each
  /// candidate extends a copy of it by a single Householder column update.
  /// Appending columns one at a time is arithmetically the same
  /// factorization cv_score would build for the full trial, so the memoized
  /// scores are bit-identical between the two entry points.
  void score_extensions_batch(Columns selected, Columns extensions,
                              std::span<double> scores) {
    std::fill(scores.begin(), scores.end(), kInfinity);
    if (extensions.empty()) return;
    if (!options.batched_cv) {
      // Scalar mode: the historical per-candidate scoring loop.
      for_each_index(extensions.size(), [&](std::size_t j) {
        std::vector<const Column*>& trial = thread_workspace().trial;
        trial.assign(selected.begin(), selected.end());
        trial.push_back(extensions[j]);
        scores[j] = cv_score(trial);
      });
      return;
    }

    hypotheses.fetch_add(extensions.size(), std::memory_order_relaxed);
    Workspace& ws = thread_workspace();
    // The memo key of candidate j: the prefix, then extensions[j] last.
    ws.key.assign(selected.begin(), selected.end());
    ws.key.push_back(nullptr);
    ws.missing.clear();
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      for (std::size_t j = 0; j < extensions.size(); ++j) {
        ws.key.back() = extensions[j];
        if (const double* memoized = score_memo.find(ws.key)) {
          score_hits.fetch_add(1, std::memory_order_relaxed);
          scores[j] = *memoized;
        } else {
          ws.missing.push_back(j);
        }
      }
    }
    if (ws.missing.empty()) return;

    const std::size_t m = data.size();
    const std::vector<std::size_t>& missing = ws.missing;
    std::vector<double>& fresh = ws.fresh;
    fresh.assign(missing.size(), kInfinity);
    // Every trial has selected.size() + 2 coefficients; with fewer points
    // than that plus a spare, or with a dependent prefix, all candidates
    // are inadmissible at once and the defaults (+inf) stand.
    if (m >= selected.size() + 3) {
      // The generation's one from-scratch factorization; every candidate
      // below extends it by a single Householder column, which costs a
      // column update, not a solve.
      solves.fetch_add(1, std::memory_order_relaxed);
      factor_basis(selected, every_row, ws.prefix, ws.weighted);
      const RetainedQr& prefix = ws.prefix;
      if (!prefix.rank_deficient()) {
        for_each_index(missing.size(), [&](std::size_t idx) {
          Workspace& local = thread_workspace();
          extension_count.fetch_add(1, std::memory_order_relaxed);
          local.qr = prefix;
          weighted_rows(*extensions[missing[idx]], every_row, local.weighted);
          local.qr.append_column(local.weighted);
          if (local.qr.rank_deficient()) return;  // fresh[idx] stays +inf
          local.qr.solve();
          fresh[idx] = selection_score(cv_from_factored(
              local.qr, local.folds, selected, extensions[missing[idx]]));
        });
      }
    }
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      for (std::size_t idx = 0; idx < missing.size(); ++idx) {
        scores[missing[idx]] = fresh[idx];
        ws.key.back() = extensions[missing[idx]];
        score_memo.insert(ws.key, fresh[idx]);
      }
    }
  }
};

FitEngine::FitEngine(const MeasurementSet& data, const FitOptions& options)
    : impl_(std::make_unique<Impl>(data, options)) {}

FitEngine::~FitEngine() = default;

const MeasurementSet& FitEngine::data() const { return impl_->data; }
const FitOptions& FitEngine::options() const { return impl_->options; }
std::size_t FitEngine::thread_count() const { return impl_->options.threads; }
exareq::ThreadPool* FitEngine::pool() const { return impl_->pool; }

double FitEngine::cv_score(const std::vector<Term>& basis) {
  return impl_->cv_score(impl_->columns_for(basis));
}

std::vector<double> FitEngine::score_extensions(
    const std::vector<Term>& selected, const std::vector<Term>& extensions) {
  std::vector<double> scores(extensions.size());
  impl_->score_extensions_batch(impl_->columns_for(selected),
                                impl_->columns_for(extensions), scores);
  return scores;
}

EngineStats FitEngine::stats() const {
  EngineStats snapshot;
  snapshot.hypotheses_scored = impl_->hypotheses.load();
  snapshot.score_cache_hits = impl_->score_hits.load();
  snapshot.cv_solves = impl_->solves.load();
  snapshot.qr_extensions = impl_->extension_count.load();
  snapshot.downdates = impl_->downdate_count.load();
  snapshot.basis_column_hits = impl_->cache.hits();
  snapshot.basis_columns_built = impl_->cache.misses();
  snapshot.threads = impl_->options.threads;
  return snapshot;
}

double cross_validation_score(const MeasurementSet& data,
                              const std::vector<Term>& basis,
                              const FitOptions& options) {
  FitEngine engine(data, options);
  return engine.cv_score(basis);
}

namespace {

struct ScoredCandidate {
  std::size_t pool_index = 0;
  double score = kInfinity;
  double complexity = 0.0;
};

/// One fit's search over a term pool. Hypotheses are lists of pool
/// indices; each pool term's cached column is resolved once, up front, and
/// the serial steps of every generation reuse the buffers below (parallel
/// refine trials build their columns in the thread workspaces instead).
struct PoolSearch {
  PoolSearch(FitEngine::Impl& engine_in, const std::vector<Term>& pool_in)
      : engine(engine_in),
        pool(pool_in),
        columns(engine_in.columns_for(pool_in)) {}

  /// The columns of the pool terms `indices` into `out`, in order.
  Columns gather(const std::vector<std::size_t>& indices,
                 std::vector<const Column*>& out) const {
    out.clear();
    for (std::size_t index : indices) out.push_back(columns[index]);
    return out;
  }

  FitEngine::Impl& engine;
  const std::vector<Term>& pool;
  std::vector<const Column*> columns;  ///< columns[i]: pool[i]'s cached column
  std::vector<const Column*> hypothesis_columns;
  std::vector<std::size_t> eligible;
  std::vector<const Column*> extensions;
  std::vector<std::size_t> trials;
  std::vector<double> scores;
  std::vector<ScoredCandidate> candidates;
};

std::vector<Term> terms_of(const std::vector<Term>& pool,
                           const std::vector<std::size_t>& indices) {
  std::vector<Term> terms;
  terms.reserve(indices.size());
  for (std::size_t index : indices) terms.push_back(pool[index]);
  return terms;
}

bool duplicates_selected(const std::vector<Term>& pool,
                         const std::vector<std::size_t>& selected,
                         const Term& term, std::size_t skip_position = SIZE_MAX) {
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i != skip_position && pool[selected[i]].same_basis(term)) return true;
  }
  return false;
}

/// Scores every pool term as an extension of `selected` (duplicates and
/// inadmissible hypotheses excluded) into `candidates`, best score first.
/// The whole generation goes through the engine's batched scorer — one
/// shared-prefix factorization, one column update per candidate — with
/// candidates running in parallel across the engine's pool; the ranking
/// itself is a serial reduction in pool order, so the result is
/// thread-count invariant.
void score_extensions(PoolSearch& search, const std::vector<std::size_t>& selected,
                      std::vector<ScoredCandidate>& candidates) {
  const std::vector<Term>& pool = search.pool;
  search.eligible.clear();
  search.extensions.clear();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (duplicates_selected(pool, selected, pool[i])) continue;
    search.eligible.push_back(i);
    search.extensions.push_back(search.columns[i]);
  }
  search.scores.resize(search.eligible.size());
  {
    obs::ScopedSpan span("score_extensions", "model");
    span.arg("candidates", static_cast<double>(search.eligible.size()));
    span.arg("selected_terms", static_cast<double>(selected.size()));
    search.engine.score_extensions_batch(
        search.gather(selected, search.hypothesis_columns), search.extensions,
        search.scores);
  }

  candidates.clear();
  for (std::size_t j = 0; j < search.eligible.size(); ++j) {
    if (!std::isfinite(search.scores[j])) continue;
    const std::size_t index = search.eligible[j];
    candidates.push_back({index, search.scores[j], pool[index].complexity()});
  }
  // Best score first, ties in pool order: the order a stable sort by score
  // gives, since candidates were gathered in pool order.
  std::sort(candidates.begin(), candidates.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.score < b.score ||
                     (a.score == b.score && a.pool_index < b.pool_index);
            });
}

/// The tie rule: among candidates within kTieTolerance of the best score,
/// prefer the structurally simplest.
const ScoredCandidate* pick_candidate(
    const std::vector<ScoredCandidate>& candidates) {
  if (candidates.empty()) return nullptr;
  const double best_score = candidates.front().score;
  const ScoredCandidate* chosen = nullptr;
  for (const ScoredCandidate& c : candidates) {
    if (c.score > best_score * (1.0 + kTieTolerance) + 1e-12) continue;
    if (chosen == nullptr || c.complexity < chosen->complexity) chosen = &c;
  }
  return chosen;
}

struct Hypothesis {
  std::vector<std::size_t> selected;  ///< pool indices
  double score = kInfinity;

  double complexity(const std::vector<Term>& pool) const {
    double total = 0.0;
    for (std::size_t index : selected) total += pool[index].complexity();
    return total;
  }
};

/// Greedy continuation: keeps adding the best significant term.
void grow_hypothesis(PoolSearch& search, Hypothesis& hypothesis) {
  const FitOptions& options = search.engine.options;
  while (hypothesis.selected.size() < options.max_terms &&
         hypothesis.score > options.score_tolerance) {
    score_extensions(search, hypothesis.selected, search.candidates);
    const ScoredCandidate* chosen = pick_candidate(search.candidates);
    if (chosen == nullptr) break;
    const bool significant =
        chosen->score < hypothesis.score * (1.0 - options.improvement_threshold);
    if (!significant) break;
    hypothesis.selected.push_back(chosen->pool_index);
    hypothesis.score = chosen->score;
  }
}

/// Local-search refinement: tries replacing every selected term with every
/// pool term (accepting clear improvements) and dropping terms that do not
/// pull their weight. Escapes local optima the greedy growth cannot leave —
/// the PMNF grid is full of near-degenerate shapes, and the exact hypothesis
/// often differs from the greedy one only in a single factor. Replacement
/// candidates are scored in parallel; the winner is chosen by a serial scan
/// in pool order, matching the sequential semantics exactly.
void refine_hypothesis(PoolSearch& search, Hypothesis& hypothesis) {
  FitEngine::Impl& engine = search.engine;
  const std::vector<Term>& pool = search.pool;
  const FitOptions& options = engine.options;
  for (int round = 0; round < 4; ++round) {
    bool improved = false;

    // Replacement moves.
    for (std::size_t position = 0; position < hypothesis.selected.size();
         ++position) {
      const std::vector<std::size_t>& selected = hypothesis.selected;
      search.trials.clear();
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (duplicates_selected(pool, selected, pool[i], position) ||
            pool[selected[position]].same_basis(pool[i])) {
          continue;
        }
        search.trials.push_back(i);
      }
      search.scores.assign(search.trials.size(), kInfinity);
      engine.for_each_index(search.trials.size(), [&](std::size_t j) {
        std::vector<const Column*>& trial = thread_workspace().trial;
        search.gather(selected, trial);
        trial[position] = search.columns[search.trials[j]];
        search.scores[j] = engine.cv_score(trial);
      });
      std::size_t best_index = SIZE_MAX;
      double best_score = hypothesis.score;
      for (std::size_t j = 0; j < search.trials.size(); ++j) {
        if (search.scores[j] < best_score * (1.0 - kTieTolerance) - 1e-15) {
          best_score = search.scores[j];
          best_index = search.trials[j];
        }
      }
      if (best_index != SIZE_MAX) {
        hypothesis.selected[position] = best_index;
        hypothesis.score = best_score;
        improved = true;
      }
    }

    // Pruning moves: drop any term whose removal does not hurt the score
    // beyond the tie tolerance (simpler models extrapolate better).
    for (std::size_t position = 0; position < hypothesis.selected.size();) {
      std::vector<const Column*>& trial = search.hypothesis_columns;
      search.gather(hypothesis.selected, trial);
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(position));
      const double score = engine.cv_score(trial);
      // A term is dropped when its removal keeps the score within the tie
      // band or below the noise floor — it was fitting sub-noise residuals.
      const double keep_bound = std::max(
          hypothesis.score * (1.0 + kTieTolerance), options.score_tolerance);
      if (std::isfinite(score) && score <= keep_bound + 1e-15) {
        hypothesis.selected.erase(hypothesis.selected.begin() +
                                  static_cast<std::ptrdiff_t>(position));
        hypothesis.score = score;
        improved = true;
      } else {
        ++position;
      }
    }

    if (!improved) break;
  }
}

}  // namespace

FitResult fit_with_pool_engine(FitEngine& engine_handle,
                               const std::vector<Term>& pool) {
  FitEngine::Impl& engine = *engine_handle.impl_;
  const MeasurementSet& data = engine.data;
  const FitOptions& options = engine.options;
  const auto started = std::chrono::steady_clock::now();
  obs::ScopedSpan span("fit_with_pool", "model");
  span.arg("pool_terms", static_cast<double>(pool.size()));
  span.arg("points", static_cast<double>(data.size()));
  const EngineStats stats_before = engine_handle.stats();
  exareq::require(!data.empty(), "fit_with_pool: empty measurement set");
  exareq::require(options.max_terms >= 1, "fit_with_pool: max_terms must be >= 1");
  exareq::require(options.beam_width >= 1, "fit_with_pool: beam_width must be >= 1");
  PoolSearch search(engine, pool);

  double constant_score = engine.cv_score(Columns{});
  // A constant hypothesis can be inadmissible only for tiny data sets; fall
  // back to scoring it as the in-sample error then.
  if (!std::isfinite(constant_score)) {
    const double scale = observation_scale(data.values());
    const double constant = exareq::mean(data.values());
    constant_score = 0.0;
    for (double v : data.values()) {
      constant_score += relative_error(constant, v, scale);
    }
    constant_score /= static_cast<double>(data.size());
  }

  // Branch on the most promising first terms (beam), continue each greedily,
  // keep the best final hypothesis. The PMNF grid contains near-degenerate
  // shapes, so the best *single* term is not always the right foundation.
  Hypothesis best;
  best.score = constant_score;
  if (constant_score > options.score_tolerance) {
    std::vector<ScoredCandidate> first_candidates;
    score_extensions(search, {}, first_candidates);
    // Branch on every candidate whose single-term score sits within a
    // factor of the best one (the PMNF grid clusters many near-degenerate
    // shapes at the top, and the right *foundation* term is frequently not
    // the single best fit), bounded by a hard cap for cost control.
    const std::size_t cap = std::max<std::size_t>(options.beam_width, 16);
    const double band =
        first_candidates.empty() ? 0.0 : first_candidates.front().score * 4.0;
    std::size_t branched = 0;
    for (const ScoredCandidate& seed : first_candidates) {
      if (branched >= options.beam_width &&
          (branched >= cap || seed.score > band)) {
        break;
      }
      const bool significant =
          seed.score < constant_score * (1.0 - options.improvement_threshold);
      if (!significant) break;  // candidates are sorted; none further qualify
      ++branched;
      Hypothesis branch;
      branch.selected = {seed.pool_index};
      branch.score = seed.score;
      grow_hypothesis(search, branch);
      refine_hypothesis(search, branch);
      const bool better =
          branch.score < best.score * (1.0 - kTieTolerance) - 1e-12;
      const bool tied_but_simpler =
          branch.score < best.score * (1.0 + kTieTolerance) + 1e-12 &&
          branch.complexity(pool) < best.complexity(pool);
      if (better || (tied_but_simpler && !best.selected.empty())) {
        best = std::move(branch);
      }
    }
  }

  std::vector<std::size_t>& selected = best.selected;
  double current_score = best.score;

  // Negligible-term pruning: refit, measure each term's largest relative
  // contribution over the data, and drop terms below the threshold.
  for (bool pruned = true; pruned && !selected.empty();) {
    pruned = false;
    const CoefficientFit trial_fit = engine.fit_coefficients(
        search.gather(selected, search.hypothesis_columns));
    if (!trial_fit.admissible) break;
    const std::vector<Term> selected_terms = terms_of(pool, selected);
    const Model trial_model = make_model(data, selected_terms, trial_fit);
    for (std::size_t t = 0; t < selected.size(); ++t) {
      Term contributing = selected_terms[t];
      contributing.coefficient = trial_fit.coefficients[t];
      double max_share = 0.0;
      for (std::size_t k = 0; k < data.size(); ++k) {
        const double total = std::fabs(trial_model.evaluate(data.coordinate(k)));
        if (total <= 0.0) continue;
        max_share = std::max(
            max_share,
            std::fabs(contributing.evaluate(data.coordinate(k))) / total);
      }
      if (max_share >= kMinTermContribution) continue;
      std::vector<const Column*>& trial = search.hypothesis_columns;
      search.gather(selected, trial);
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(t));
      const double rescored = engine.cv_score(trial);
      // The pruned basis can be CV-inadmissible even though the full
      // hypothesis was fine (the dropped term may be what keeps a fold fit
      // non-negative or stable). Pruning must never launder a finite score
      // into +inf: keep the term and the pre-prune score in that case.
      if (!std::isfinite(rescored)) continue;
      selected.erase(selected.begin() + static_cast<std::ptrdiff_t>(t));
      current_score = rescored;
      pruned = true;
      break;
    }
  }

  CoefficientFit fit = engine.fit_coefficients(
      search.gather(selected, search.hypothesis_columns));
  if (!fit.admissible) {
    // Degenerate data (fewer points than coefficients was excluded by the
    // CV admissibility test, so this only happens for the constant case on
    // a single point); fall back to the constant model.
    selected.clear();
    fit.constant = exareq::mean(data.values());
    fit.coefficients.clear();
    fit.admissible = true;
  }

  FitResult result;
  result.model = make_model(data, terms_of(pool, selected), fit);
  result.quality = evaluate_quality(data, result.model, current_score);
  result.stats = engine_handle.stats();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  // Publish this call's share of the engine counters (the engine may be
  // reused, so the registry gets the delta, not the running totals). The
  // references are resolved once: multi-parameter ranking funnels thousands
  // of small slice fits through here, so per-call registry lookups would
  // show up as measurable overhead.
  auto& metrics = obs::MetricRegistry::instance();
  static obs::Counter& fits_counter = metrics.counter("model.fits");
  static obs::Counter& hypotheses_counter =
      metrics.counter("model.hypotheses_scored");
  static obs::Counter& cache_hits_counter =
      metrics.counter("model.score_cache_hits");
  static obs::Counter& cv_solves_counter = metrics.counter("model.cv_solves");
  static obs::Counter& extensions_counter =
      metrics.counter("model.qr_extensions");
  static obs::Counter& downdates_counter = metrics.counter("model.downdates");
  static obs::Counter& columns_counter =
      metrics.counter("model.basis_columns_built");
  fits_counter.add(1);
  hypotheses_counter.add(result.stats.hypotheses_scored -
                         stats_before.hypotheses_scored);
  cache_hits_counter.add(result.stats.score_cache_hits -
                         stats_before.score_cache_hits);
  cv_solves_counter.add(result.stats.cv_solves - stats_before.cv_solves);
  extensions_counter.add(result.stats.qr_extensions -
                         stats_before.qr_extensions);
  downdates_counter.add(result.stats.downdates - stats_before.downdates);
  columns_counter.add(result.stats.basis_columns_built -
                      stats_before.basis_columns_built);
  span.arg("cv_solves", static_cast<double>(result.stats.cv_solves -
                                            stats_before.cv_solves));
  span.arg("qr_extensions", static_cast<double>(result.stats.qr_extensions -
                                                stats_before.qr_extensions));
  span.arg("downdates", static_cast<double>(result.stats.downdates -
                                            stats_before.downdates));
  span.arg("selected_terms", static_cast<double>(selected.size()));
  return result;
}

FitResult fit_with_pool(const MeasurementSet& data, const std::vector<Term>& pool,
                        const FitOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  FitEngine engine(data, options);
  FitResult result = fit_with_pool_engine(engine, pool);
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

FitResult fit_single_parameter(const MeasurementSet& data, const SearchSpace& space,
                               const FitOptions& options) {
  exareq::require(data.parameter_count() == 1,
                  "fit_single_parameter: data must have exactly one parameter");
  std::vector<Term> pool;
  for (const Factor& factor : space.factors_for(0)) {
    Term term;
    term.coefficient = 1.0;
    term.factors = {factor};
    pool.push_back(std::move(term));
  }
  return fit_with_pool(data, pool, options);
}

}  // namespace exareq::model
