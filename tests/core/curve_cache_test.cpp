#include "core/curve_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "core/sparse_solver.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs {
namespace {

void expect_identical(const SparseTrSolver::Result& a,
                      const SparseTrSolver::Result& b) {
  EXPECT_EQ(a.temporal_reliability, b.temporal_reliability);
  EXPECT_EQ(a.p_absorb, b.p_absorb);
}

TEST(CurveCacheTest, RejectsWrongStateCount) {
  const SmpModel model(3, 4);
  EXPECT_THROW(AbsorptionCurves(model, 4), PreconditionError);
}

TEST(CurveCacheTest, RejectsNonAbsorbingFailureStates) {
  SmpModel model(kStateCount, 4);
  model.set_q(2, 0, 1.0);  // S3 → S1: failures must be absorbing
  model.set_h_pmf(2, 0, {1.0});
  EXPECT_THROW(AbsorptionCurves(model, 4), PreconditionError);
}

TEST(CurveCacheTest, ResultAtPreconditions) {
  Rng rng(11);
  const SmpModel model = test::random_fgcs_model(4, rng);
  const AbsorptionCurves curves(model, 8);
  EXPECT_THROW(curves.result_at(State::kS3, 4), PreconditionError);
  EXPECT_THROW(curves.result_at(State::kS1, 9), PreconditionError);
  EXPECT_NO_THROW(curves.result_at(State::kS1, 8));
  EXPECT_NO_THROW(curves.result_at(State::kS2, 0));
}

TEST(CurveCacheTest, ZeroStepsIsCertainSurvival) {
  Rng rng(12);
  const SmpModel model = test::random_fgcs_model(4, rng);
  const AbsorptionCurves curves(model, 0);
  const auto result = curves.result_at(State::kS1, 0);
  EXPECT_DOUBLE_EQ(result.temporal_reliability, 1.0);
  EXPECT_EQ(result.p_absorb, (std::array<double, 3>{0.0, 0.0, 0.0}));
}

// The tentpole's correctness anchor: a table read answers exactly what a
// fresh per-call recursion would, bit for bit, across randomized models
// (defective rows included), horizons, and both initial states. 150 models
// × 4 horizons × 2 inits = 1200 compared solves.
TEST(CurveCacheTest, BitIdenticalToSparseSolverFuzz) {
  std::size_t cases = 0;
  for (int trial = 0; trial < 150; ++trial) {
    Rng rng(static_cast<std::uint64_t>(7000 + trial));
    const std::size_t horizon = 2 + static_cast<std::size_t>(trial % 9);
    const SmpModel model =
        test::random_fgcs_model(horizon, rng, /*allow_defective=*/trial % 3 == 0);
    const std::size_t t_max =
        1 + static_cast<std::size_t>(rng.uniform_int(1, 40));
    const AbsorptionCurves curves(model, t_max);
    const SparseTrSolver solver(model);
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t n =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(t_max)));
      for (const State init : {State::kS1, State::kS2}) {
        const auto from_curves = curves.result_at(init, n);
        const auto fresh = solver.solve(init, n);
        EXPECT_EQ(from_curves.temporal_reliability, fresh.temporal_reliability)
            << "trial=" << trial << " n=" << n << " init=" << to_string(init);
        EXPECT_EQ(from_curves.p_absorb, fresh.p_absorb)
            << "trial=" << trial << " n=" << n << " init=" << to_string(init);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 500u);
}

/// `count` distinct random lags in [1, horizon] whose parity is `parity`
/// (0 or 1), or of any parity when `parity` is 2.
std::vector<std::size_t> random_lags(std::size_t horizon, std::size_t count,
                                     int parity, Rng& rng) {
  std::set<std::size_t> lags;
  while (lags.size() < count) {
    const auto l = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(horizon)));
    if (parity == 2 || static_cast<int>(l % 2) == parity) lags.insert(l);
  }
  return {lags.begin(), lags.end()};
}

/// A normalized pmf over `horizon` lags, nonzero exactly at `lags`.
std::vector<double> pmf_at(std::size_t horizon,
                           const std::vector<std::size_t>& lags, Rng& rng) {
  std::vector<double> pmf(horizon, 0.0);
  double mass = 0.0;
  for (const std::size_t l : lags) {
    pmf[l - 1] = rng.uniform(0.05, 1.0);
    mass += pmf[l - 1];
  }
  for (double& p : pmf) p /= mass;
  return pmf;
}

// The shape estimated models have: horizon-length pmfs that are nonzero only
// at a handful of observed holding times, so the recursion skips almost
// every lag. Each trial draws 0-40 nonzero lags per kernel and cycles
// through the edge cases: a12 all zero, a21 all zero, disjoint supports, and
// a lag at 1 plus a lag at the horizon (reached once the table passes the
// horizon) with direct absorption at tick 1. A fresh build and an extend_to() continuation must both match
// the dense SparseTrSolver bit for bit, from both initial states.
TEST(CurveCacheTest, SparseKernelsBitIdenticalToSparseSolver) {
  constexpr std::size_t kS1 = 0, kS2 = 1;
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(static_cast<std::uint64_t>(9100 + trial));
    const std::size_t horizon =
        500 + static_cast<std::size_t>(trial) * 2500 / 9;  // 500..3000
    const int kind = trial % 5;
    const auto lag_count = [&rng] {
      return static_cast<std::size_t>(rng.uniform_int(0, 40));
    };
    std::vector<std::size_t> lags12 =
        kind == 0 ? std::vector<std::size_t>{}
                  : random_lags(horizon, lag_count(), kind == 2 ? 1 : 2, rng);
    std::vector<std::size_t> lags21 =
        kind == 1 ? std::vector<std::size_t>{}
                  : random_lags(horizon, lag_count(), kind == 2 ? 0 : 2, rng);
    if (kind == 3)
      for (std::vector<std::size_t>* lags : {&lags12, &lags21}) {
        std::set<std::size_t> with_ends(lags->begin(), lags->end());
        with_ends.insert({1, horizon});
        lags->assign(with_ends.begin(), with_ends.end());
      }

    SmpModel model(kStateCount, horizon);
    for (const std::size_t from : {kS1, kS2}) {
      const std::vector<std::size_t>& cross = from == kS1 ? lags12 : lags21;
      const double keep = trial % 2 == 0 ? 1.0 : rng.uniform(0.5, 1.0);
      std::vector<std::pair<std::size_t, std::vector<std::size_t>>> exits;
      if (!cross.empty()) exits.emplace_back(from == kS1 ? kS2 : kS1, cross);
      for (const State failure : kFailureStates) {
        exits.emplace_back(index_of(failure),
                           random_lags(horizon, 1 + lag_count(), 2, rng));
        // Direct absorption at tick 1 makes P(1) nonzero, so every cross
        // lag l also meets a nonzero term at m = l + 1.
        if (kind == 3 && exits.back().second.front() != 1)
          exits.back().second.insert(exits.back().second.begin(), 1);
      }
      std::vector<double> weights(exits.size());
      double total = 0.0;
      for (double& w : weights) total += w = rng.uniform(0.05, 1.0);
      for (std::size_t e = 0; e < exits.size(); ++e) {
        model.set_q(from, exits[e].first, keep * weights[e] / total);
        model.set_h_pmf(from, exits[e].first,
                        pmf_at(horizon, exits[e].second, rng));
      }
    }

    std::set<std::size_t> cross_union(lags12.begin(), lags12.end());
    cross_union.insert(lags21.begin(), lags21.end());
    const std::size_t t_max =
        horizon - 50 + static_cast<std::size_t>(rng.uniform_int(0, 100));
    const AbsorptionCurves fresh(model, t_max);
    EXPECT_EQ(fresh.cross_lags(), cross_union.size()) << "trial=" << trial;
    const std::size_t t0 = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(t_max / 2)));
    AbsorptionCurves grown(model, t0);
    grown.extend_to(t_max);

    const SparseTrSolver solver(model);
    const std::size_t mid = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(t0) + 1, static_cast<std::int64_t>(t_max)));
    for (const std::size_t n : {t_max, mid})
      for (const State init : {State::kS1, State::kS2}) {
        SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" +
                     std::to_string(n) + " init=" + to_string(init));
        const SparseTrSolver::Result want = solver.solve(init, n);
        expect_identical(fresh.result_at(init, n), want);
        expect_identical(grown.result_at(init, n), want);
      }
  }
}

TEST(CurveCacheTest, CurvesAreMonotoneNonDecreasingInT) {
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng(static_cast<std::uint64_t>(300 + trial));
    const SmpModel model = test::random_fgcs_model(6, rng);
    const AbsorptionCurves curves(model, 40);
    for (const State init : {State::kS1, State::kS2})
      for (std::size_t jj = 0; jj < 3; ++jj)
        for (std::size_t m = 1; m <= 40; ++m)
          EXPECT_GE(curves.probability(init, jj, m) + 1e-15,
                    curves.probability(init, jj, m - 1))
              << "trial=" << trial << " m=" << m;
  }
}

TEST(CurveCacheTest, ExtensionPreservesPrefixBitForBit) {
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng(static_cast<std::uint64_t>(4200 + trial));
    const SmpModel model = test::random_fgcs_model(5, rng);
    AbsorptionCurves curves(model, 12);
    std::vector<double> before;
    for (const State init : {State::kS1, State::kS2})
      for (std::size_t jj = 0; jj < 3; ++jj)
        for (std::size_t m = 0; m <= 12; ++m)
          before.push_back(curves.probability(init, jj, m));

    curves.extend_to(60);
    ASSERT_GE(curves.t_max(), 60u);
    std::size_t i = 0;
    for (const State init : {State::kS1, State::kS2})
      for (std::size_t jj = 0; jj < 3; ++jj)
        for (std::size_t m = 0; m <= 12; ++m)
          EXPECT_EQ(curves.probability(init, jj, m), before[i++])
              << "trial=" << trial << " m=" << m;

    // And the grown table matches a table built fresh at the final horizon —
    // extension is not merely self-consistent, it is the same recursion.
    const AbsorptionCurves fresh(model, curves.t_max());
    for (const State init : {State::kS1, State::kS2})
      for (std::size_t jj = 0; jj < 3; ++jj)
        for (std::size_t m = 0; m <= curves.t_max(); ++m)
          EXPECT_EQ(curves.probability(init, jj, m),
                    fresh.probability(init, jj, m))
              << "trial=" << trial << " m=" << m;
  }
}

TEST(CurveCacheTest, ExtensionGrowsGeometrically) {
  Rng rng(9);
  const SmpModel model = test::random_fgcs_model(4, rng);
  AbsorptionCurves curves(model, 10);
  EXPECT_EQ(curves.t_max(), 10u);
  curves.extend_to(11);  // a nudge past the horizon doubles, not creeps
  EXPECT_EQ(curves.t_max(), 20u);
  curves.extend_to(20);  // covered: no-op
  EXPECT_EQ(curves.t_max(), 20u);
  curves.extend_to(100);  // beyond 2× jumps straight to the request
  EXPECT_EQ(curves.t_max(), 100u);
}

// Satellite 1's work claim, made exact: one table build costs n recursion
// ticks and serves BOTH initial states, where the per-initial-state solver
// spends n ticks per row requested — the miss path that used to pay 2n for
// a warm entry's two initial states now pays n.
TEST(CurveCacheTest, OneBuildServesBothInitialStates) {
  Rng rng(21);
  const SmpModel model = test::random_fgcs_model(6, rng);
  const std::size_t n = 64;
  AbsorptionCurves curves(model, n);
  EXPECT_EQ(curves.recursion_ticks(), n);
  const auto s1 = curves.result_at(State::kS1, n);
  const auto s2 = curves.result_at(State::kS2, n);
  EXPECT_EQ(curves.recursion_ticks(), n);  // reads cost zero ticks

  const SparseTrSolver solver(model);
  expect_identical(s1, solver.solve(State::kS1, n));
  expect_identical(s2, solver.solve(State::kS2, n));
}

TEST(CurveCacheTest, ConstructionValidatesModelExactlyOnce) {
  Rng rng(33);
  const SmpModel model = test::random_fgcs_model(5, rng);
  const std::uint64_t before = smp_validate_calls();
  AbsorptionCurves curves(model, 32);
  EXPECT_EQ(smp_validate_calls(), before + 1);
  curves.result_at(State::kS1, 32);
  curves.result_at(State::kS2, 7);
  curves.extend_to(64);
  EXPECT_EQ(smp_validate_calls(), before + 1);  // reads and growth: none
}

// The recursion is the only build path at every horizon, so a fresh build
// of a day-long 2 s window (43 200 steps) must equal, bit for bit, a short
// table grown to the same horizon by extend_to().
TEST(CurveCacheTest, LongHorizonFreshBuildEqualsExtension) {
  WorkloadParams params;
  params.sampling_period = 2;
  const MachineTrace trace = TraceGenerator(params, 5).generate("m", 8);
  const TimeWindow day{.start_of_day = 0, .length = 24 * kSecondsPerHour};
  const SmpModel model =
      SmpEstimator().estimate(trace, trace.day_count(), day);
  const std::size_t steps = day.steps(trace.sampling_period());
  ASSERT_EQ(steps, 43200u);

  const AbsorptionCurves fresh(model, steps);
  AbsorptionCurves extended(model, 1000);
  extended.extend_to(steps);
  ASSERT_EQ(extended.t_max(), steps);
  ASSERT_GT(fresh.cross_lags(), 0u);
  for (const State init : {State::kS1, State::kS2})
    for (std::size_t jj = 0; jj < 3; ++jj) {
      std::size_t mismatches = 0;
      for (std::size_t m = 0; m <= steps; ++m) {
        const double want = extended.probability(init, jj, m);
        const double got = fresh.probability(init, jj, m);
        if (got != want && mismatches++ == 0) {
          EXPECT_EQ(got, want) << "first mismatch at m=" << m;
        }
      }
      EXPECT_EQ(mismatches, 0u) << to_string(init) << " failure " << jj;
    }
  EXPECT_LT(fresh.result_at(State::kS1, steps).temporal_reliability, 1.0);
}

TEST(CurveCacheTest, SolveFromCurvesExtendsOnDemand) {
  Rng rng(55);
  const SmpModel model = test::random_fgcs_model(5, rng);
  AbsorptionCurves curves(model, 8);
  const SparseTrSolver solver(model);
  const auto grown = solve_from_curves(curves, State::kS1, 50);
  EXPECT_GE(curves.t_max(), 50u);
  expect_identical(grown, solver.solve(State::kS1, 50));
  // Within the horizon it is a pure read: t_max does not move.
  const std::size_t t_max = curves.t_max();
  expect_identical(solve_from_curves(curves, State::kS2, 17),
                   solver.solve(State::kS2, 17));
  EXPECT_EQ(curves.t_max(), t_max);
}

}  // namespace
}  // namespace fgcs
