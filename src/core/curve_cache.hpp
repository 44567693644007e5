// Precomputed absorption curves: the Eq. 3 solve as a data structure.
//
// For one (Q, H) model, the six cumulative absorption series
// P_{i,j}(1..T_max) (i ∈ {S1,S2}, j ∈ {S3,S4,S5}) determine EVERY temporal
// reliability the model can produce: TR(W) for a window of n ≤ T_max steps
// is a three-entry table read plus a subtraction. An AbsorptionCurves object
// runs the recursion once, then answers any (initial state, horizon) in
// O(1) — the structure the serving stack caches next to each memoized model
// so warm queries never re-enter the solver (DESIGN.md §5).
//
// Cost: O(T·k), where k is the number of lags at which either cross kernel
// a12/a21 is nonzero. An estimated model's holding-time pmfs are nonzero only
// at the holding times actually observed (tens, against a horizon of
// thousands of ticks), so the recursion visits only those lags. Skipping a
// zero lag is exact: it would add k·p = +0.0 to an accumulator that is
// already ≥ +0.0, which leaves every bit unchanged.
//
// Layout: the six series are interleaved in one flat SoA array, 8 lanes per
// tick — [P₁,₃ P₁,₄ P₁,₅ pad P₂,₃ P₂,₄ P₂,₅ pad] — so each visited lag reads
// two contiguous 32-byte groups; each series keeps its own accumulator and
// adds its terms in ascending lag order, so per-series summation order — and
// therefore every bit of the result — is identical to SparseTrSolver::solve
// on the same model and horizon.
//
// Growth: extend_to() continues the same recursion in place, growing T_max
// geometrically and leaving the existing prefix bit-for-bit untouched, so a
// table built to T and extended to T' equals a fresh build to T'.
//
// Bound on k: with laplace_alpha = 0 every nonzero lag is a hold observed at
// least once in N training days of at most T ticks each, and distinct holds
// summing to at most N·T number k ≤ √(2·N·T) — about 1 300 at a 1 s period,
// 24 h and ten days, so even the longest window a TraceStore accepts builds
// in well under a second. laplace_alpha > 0 gives a never-observed S1↔S2
// transition a uniform holding pmf, a dense kernel (k = T) and an O(T²)
// build (DESIGN.md §5.2).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/semi_markov.hpp"
#include "core/sparse_solver.hpp"
#include "core/states.hpp"

namespace fgcs {

class AbsorptionCurves {
 public:
  /// Validates the model once (5-state FGCS layout, probability axioms,
  /// absorbing failure states — the checks SparseTrSolver's constructor ran
  /// per solve) and computes the curves up to `t_max` steps. The model is
  /// only read during construction; no reference is retained.
  explicit AbsorptionCurves(const SmpModel& model, std::size_t t_max);

  /// Largest horizon currently tabulated.
  std::size_t t_max() const { return t_max_; }

  /// O(1): the SparseTrSolver::solve(init, n_steps) result, bit-identical.
  /// Requires n_steps ≤ t_max() and an available `init`.
  SparseTrSolver::Result result_at(State init, std::size_t n_steps) const;

  /// Grows the table to cover at least `n_steps` (geometric doubling, so a
  /// ramp of ever-longer windows costs amortized O(1) rebuilds) by
  /// continuing the recursion in place: entries ≤ the old t_max() are
  /// preserved bit-for-bit. No-op when already covered.
  void extend_to(std::size_t n_steps);

  /// Raw curve read P_{init,j}(m) for tests (j = failure index 0..2).
  double probability(State init, std::size_t failure_index,
                     std::size_t m) const;

  /// Ticks advanced by the direct recursion so far — the work metric tests
  /// use to pin "one build serves both initial states" (a build to T costs T
  /// ticks; the two SparseTrSolver::solve calls it replaces cost 2·T).
  std::size_t recursion_ticks() const { return recursion_ticks_; }

  /// Lags at which either cross kernel is nonzero: the k of a tick's O(k)
  /// convolution.
  std::size_t cross_lags() const { return cross_.size(); }

 private:
  static constexpr std::size_t kLanes = 8;  // [P1,3 P1,4 P1,5 _ P2,3 P2,4 P2,5 _]

  void compute_rows(std::size_t from_m, std::size_t to_m);

  std::size_t t_max_ = 0;
  std::size_t recursion_ticks_ = 0;
  /// Interleaved weighted direct-absorption pmfs, same 8-lane layout as p_,
  /// stored up to their last nonzero row (wd_limit_).
  std::vector<double> wd_;
  std::size_t wd_limit_ = 0;
  /// The cross-transition kernels a12/a21 (lag-indexed, semi_markov.hpp
  /// convention) at the lags where either is nonzero, ascending — the only
  /// lags the recursion visits. Stored once so extension never needs the
  /// model again.
  struct CrossLag {
    std::size_t lag;
    double k12;
    double k21;
  };
  std::vector<CrossLag> cross_;
  /// Running per-lane cumulative direct absorption at t_max_, carried so
  /// extend_to() resumes the recursion mid-stream.
  std::array<double, kLanes> cum_{};
  /// The curves: lane L of row m is p_[m * kLanes + L].
  std::vector<double> p_;
};

}  // namespace fgcs
