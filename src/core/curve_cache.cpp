#include "core/curve_cache.hpp"

#include <algorithm>
#include <span>

#include "util/error.hpp"

namespace fgcs {

namespace {

constexpr std::size_t kS1 = index_of(State::kS1);
constexpr std::size_t kS2 = index_of(State::kS2);

/// Last lag l at which the weighted pmf q·pmf[l−1] is nonzero (0 if none).
std::size_t support_end(double q, std::span<const double> pmf) {
  if (q == 0.0) return 0;
  std::size_t l = pmf.size();
  while (l > 0 && q * pmf[l - 1] == 0.0) --l;
  return l;
}

}  // namespace

AbsorptionCurves::AbsorptionCurves(const SmpModel& model, std::size_t t_max) {
  FGCS_REQUIRE_MSG(model.n_states() == kStateCount,
                   "AbsorptionCurves requires the 5-state FGCS model");
  model.validate();
  for (const State failure : kFailureStates)
    for (std::size_t to = 0; to < kStateCount; ++to)
      FGCS_REQUIRE_MSG(model.q(index_of(failure), to) == 0.0,
                       "failure states must be absorbing");

  // Cross-transition kernels, kept only at the lags where either is
  // nonzero. Stored once: extension re-reads these, never the model.
  const std::vector<double> a12 =
      weighted_holding_pmf(model, kS1, kS2, model.h_pmf(kS1, kS2).size());
  const std::vector<double> a21 =
      weighted_holding_pmf(model, kS2, kS1, model.h_pmf(kS2, kS1).size());
  for (std::size_t l = 1; l < std::max(a12.size(), a21.size()); ++l) {
    const double k12 = l < a12.size() ? a12[l] : 0.0;
    const double k21 = l < a21.size() ? a21[l] : 0.0;
    if (k12 != 0.0 || k21 != 0.0) cross_.push_back({l, k12, k21});
  }

  // The six weighted direct-absorption pmfs, interleaved into the same
  // 8-lane layout as the curves so the cumulative update is one strided row
  // read per tick, and stored only up to the last lag any of them reaches.
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    const std::size_t j = index_of(kFailureStates[jj]);
    wd_limit_ = std::max({wd_limit_,
                          support_end(model.q(kS1, j), model.h_pmf(kS1, j)),
                          support_end(model.q(kS2, j), model.h_pmf(kS2, j))});
  }
  wd_.assign((wd_limit_ + 1) * kLanes, 0.0);
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    const std::size_t j = index_of(kFailureStates[jj]);
    for (std::size_t row = 0; row < 2; ++row) {
      const double q = model.q(row == 0 ? kS1 : kS2, j);
      if (q == 0.0) continue;
      const auto pmf = model.h_pmf(row == 0 ? kS1 : kS2, j);
      for (std::size_t l = 1; l <= std::min(pmf.size(), wd_limit_); ++l)
        wd_[l * kLanes + 4 * row + jj] = q * pmf[l - 1];
    }
  }

  p_.assign(kLanes, 0.0);  // row 0: nothing absorbed in zero ticks
  extend_to(t_max);
}

void AbsorptionCurves::compute_rows(std::size_t from_m, std::size_t to_m) {
  for (std::size_t m = from_m; m <= to_m; ++m) {
    if (m <= wd_limit_) {
      const double* wd = &wd_[m * kLanes];
      for (std::size_t lane = 0; lane < kLanes; ++lane) cum_[lane] += wd[lane];
    }
    // One accumulator per series, terms added in ascending lag order: the
    // same per-series summation order as SparseTrSolver's scalar recursion.
    // The lags skipped here would each add an exact +0.0, so every produced
    // double is bit-identical.
    double acc[kLanes] = {};
    for (const CrossLag& cross : cross_) {
      if (cross.lag >= m) break;
      const double* prev = &p_[(m - cross.lag) * kLanes];
      for (std::size_t jj = 0; jj < 3; ++jj) acc[jj] += cross.k12 * prev[4 + jj];
      for (std::size_t jj = 0; jj < 3; ++jj) acc[4 + jj] += cross.k21 * prev[jj];
    }
    double* row = &p_[m * kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane)
      row[lane] = cum_[lane] + acc[lane];
  }
  recursion_ticks_ += to_m - from_m + 1;
}

void AbsorptionCurves::extend_to(std::size_t n_steps) {
  if (n_steps <= t_max_) return;
  const std::size_t target = std::max(n_steps, t_max_ * 2);
  p_.resize((target + 1) * kLanes, 0.0);
  compute_rows(t_max_ + 1, target);
  t_max_ = target;
}

SparseTrSolver::Result AbsorptionCurves::result_at(State init,
                                                   std::size_t n_steps) const {
  FGCS_REQUIRE_MSG(is_available(init),
                   "temporal reliability is defined for available initial states");
  FGCS_REQUIRE_MSG(n_steps <= t_max_,
                   "window beyond the tabulated horizon; extend_to() first");
  const double* row = &p_[n_steps * kLanes + 4 * index_of(init)];
  SparseTrSolver::Result result;
  double absorbed = 0.0;
  for (std::size_t jj = 0; jj < kFailureStates.size(); ++jj) {
    result.p_absorb[jj] = row[jj];
    absorbed += result.p_absorb[jj];
  }
  result.temporal_reliability = std::clamp(1.0 - absorbed, 0.0, 1.0);
  return result;
}

double AbsorptionCurves::probability(State init, std::size_t failure_index,
                                     std::size_t m) const {
  FGCS_REQUIRE(is_available(init) && failure_index < 3 && m <= t_max_);
  return p_[m * kLanes + 4 * index_of(init) + failure_index];
}

}  // namespace fgcs
