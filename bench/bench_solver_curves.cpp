// Extension — precomputed absorption curves vs per-call Eq. 3 solves.
//
// Five tables:
//
//   cold solve   : building an AbsorptionCurves table at horizon T vs one
//                  SparseTrSolver::solve at the same T. The solver runs the
//                  dense O(T²) recursion; the table visits only the k lags
//                  where a cross kernel is nonzero (O(T·k)) and serves BOTH
//                  initial states and every horizon ≤ T afterwards.
//   cold 6 s     : the same on the paper's 6 s period, one estimated model
//                  per 1-4 h window (the serving stack's cold-miss shape),
//                  with each kernel's nonzero-lag count k.
//   cold 24 h    : day-long windows at 1 s and 2 s periods (43 200-86 400
//                  steps, the longest a TraceStore accepts), with k and a
//                  check that the fresh build equals a 1 000-step table
//                  grown by extend_to() at every step.
//   warm lookup  : answering a TR query off a built table vs the old warm
//                  path (construct SparseTrSolver — revalidating the model —
//                  and re-run the recursion). Acceptance gate: curves ≥ 4×.
//   fleet probe  : a 1000-machine scheduler placement probe through
//                  PredictionService, cold then warm, with the warm pass
//                  answered entirely from cached curves.
//
// All compared paths must produce bit-identical TR values; any divergence
// fails the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "harness.hpp"

using namespace fgcs;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  print_banner(std::cout,
               "absorption-curve cache: cold build, warm lookup, fleet probe");
  constexpr int kDays = 14;
  const EstimatorConfig estimator_config = bench::bench_estimator_config();
  bool all_identical = true;

  // One representative model: tomorrow's 8:00–11:00 window on a lab machine.
  const std::vector<MachineTrace> one = bench::lab_fleet(1, kDays);
  const TimeWindow window{.start_of_day = 8 * kSecondsPerHour,
                          .length = 3 * kSecondsPerHour};
  const SmpEstimator estimator(estimator_config);
  const SmpModel model =
      estimator.estimate(one[0], one[0].day_count(), window);

  // --- Cold solve: one table build vs one per-initial-state solve. ---------
  {
    Table table({"steps", "sparse_solve_ms", "curve_build_ms", "build_x"});
    for (const std::size_t steps : {180u, 720u, 1440u}) {
      const SparseTrSolver solver(model);
      constexpr int kReps = 20;
      const auto t0 = std::chrono::steady_clock::now();
      double sink = 0.0;
      for (int rep = 0; rep < kReps; ++rep)
        sink += solver.solve(State::kS1, steps).temporal_reliability;
      const double solve_s = seconds_since(t0) / kReps;

      const auto t1 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep) {
        const AbsorptionCurves curves(model, steps);
        sink += curves.result_at(State::kS1, steps).temporal_reliability;
      }
      const double build_s = seconds_since(t1) / kReps;
      if (!std::isfinite(sink)) return 1;
      table.add_row({std::to_string(steps), Table::num(1e3 * solve_s),
                     Table::num(1e3 * build_s),
                     Table::num(solve_s / build_s, 2)});
    }
    std::cout << "cold solve (one build tabulates BOTH initial states):\n";
    table.print(std::cout);
  }

  // --- Cold build on the 6 s period: estimated models, 1-4 h windows. -----
  {
    constexpr SimTime kSixSeconds = 6;
    const std::vector<MachineTrace> six =
        bench::lab_fleet(1, kDays, kSixSeconds);
    Table table({"hours", "steps", "cross_lags", "curve_build_ms",
                 "sparse_solve_ms", "build_x"});
    for (const SimTime hours : {1, 2, 3, 4}) {
      const TimeWindow cold_window{.start_of_day = 8 * kSecondsPerHour,
                                   .length = hours * kSecondsPerHour};
      const SmpModel cold_model =
          estimator.estimate(six[0], six[0].day_count(), cold_window);
      const std::size_t steps = cold_window.steps(kSixSeconds);
      constexpr int kReps = 20;
      std::size_t cross_lags = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep)
        cross_lags = AbsorptionCurves(cold_model, steps).cross_lags();
      const double build_s = seconds_since(t0) / kReps;

      const SparseTrSolver solver(cold_model);
      const auto t1 = std::chrono::steady_clock::now();
      const SparseTrSolver::Result s1 = solver.solve(State::kS1, steps);
      const double solve_s = seconds_since(t1);

      const AbsorptionCurves curves(cold_model, steps);
      const SparseTrSolver::Result s2 = solver.solve(State::kS2, steps);
      for (const auto& [init, want] : {std::pair{State::kS1, s1},
                                       std::pair{State::kS2, s2}}) {
        const SparseTrSolver::Result got = curves.result_at(init, steps);
        all_identical = all_identical &&
                        got.temporal_reliability == want.temporal_reliability &&
                        got.p_absorb == want.p_absorb;
      }
      table.add_row({std::to_string(hours), std::to_string(steps),
                     std::to_string(cross_lags), Table::num(1e3 * build_s),
                     Table::num(1e3 * solve_s),
                     Table::num(solve_s / build_s, 2)});
    }
    std::cout << "\ncold build, 6 s period (estimated model per window):\n";
    table.print(std::cout);
  }

  // --- Cold build of day-long windows at 1 s and 2 s periods. -------------
  {
    const TimeWindow day{.start_of_day = 0, .length = 24 * kSecondsPerHour};
    Table table({"period_s", "steps", "cross_lags", "curve_build_ms",
                 "fresh_eq_extended"});
    for (const SimTime period : {1, 2}) {
      const std::vector<MachineTrace> fine =
          bench::lab_fleet(1, kDays, period);
      const SmpModel day_model =
          estimator.estimate(fine[0], fine[0].day_count(), day);
      const std::size_t steps = day.steps(period);
      constexpr int kReps = 3;
      double build_s = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const AbsorptionCurves curves(day_model, steps);
        build_s = std::min(build_s, seconds_since(t0));
      }

      const AbsorptionCurves fresh(day_model, steps);
      AbsorptionCurves extended(day_model, 1000);
      extended.extend_to(steps);
      bool equal = extended.t_max() == steps;
      for (const State init : {State::kS1, State::kS2})
        for (std::size_t jj = 0; jj < 3; ++jj)
          for (std::size_t m = 0; equal && m <= steps; ++m)
            equal = fresh.probability(init, jj, m) ==
                    extended.probability(init, jj, m);
      all_identical = all_identical && equal;
      table.add_row({std::to_string(period), std::to_string(steps),
                     std::to_string(fresh.cross_lags()),
                     Table::num(1e3 * build_s), equal ? "yes" : "NO"});
    }
    std::cout << "\ncold build, 24 h window (estimated model, best of 3):\n";
    table.print(std::cout);
  }

  // --- Warm lookup: curve read vs construct-and-resolve. -------------------
  double lookup_speedup = 0.0;
  {
    const std::size_t steps = window.steps(one[0].sampling_period());
    const AbsorptionCurves curves(model, steps);
    constexpr int kQueries = 2000;

    // Old warm path: every query constructs a solver (re-running
    // SmpModel::validate) and pays the full recursion.
    const auto t0 = std::chrono::steady_clock::now();
    double sink_old = 0.0;
    for (int q = 0; q < kQueries; ++q) {
      const SparseTrSolver solver(model);
      sink_old += solver
                      .solve(q % 2 == 0 ? State::kS1 : State::kS2,
                             steps - static_cast<std::size_t>(q % 8))
                      .temporal_reliability;
    }
    const double old_s = seconds_since(t0) / kQueries;

    const auto t1 = std::chrono::steady_clock::now();
    double sink_new = 0.0;
    for (int q = 0; q < kQueries; ++q)
      sink_new += curves
                      .result_at(q % 2 == 0 ? State::kS1 : State::kS2,
                                 steps - static_cast<std::size_t>(q % 8))
                      .temporal_reliability;
    const double new_s = seconds_since(t1) / kQueries;

    all_identical = all_identical && sink_old == sink_new;
    lookup_speedup = old_s / new_s;
    Table table({"queries", "construct_solve_us", "curve_lookup_us", "x"});
    table.add_row({std::to_string(kQueries), Table::num(1e6 * old_s),
                   Table::num(1e6 * new_s), Table::num(lookup_speedup, 1)});
    std::cout << "\nwarm lookup (same model, varied init/horizon):\n";
    table.print(std::cout);
  }

  // --- Fleet probe: 1000 machines through the service. ---------------------
  {
    const std::vector<MachineTrace> fleet = bench::lab_fleet(1000, kDays);
    std::vector<BatchRequest> requests;
    requests.reserve(fleet.size());
    for (const MachineTrace& trace : fleet)
      requests.push_back(BatchRequest{
          .trace = &trace,
          .request = {.target_day = trace.day_count(), .window = window}});

    PredictionService service(ServiceConfig{.estimator = estimator_config});
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<Prediction> cold = service.predict_batch(requests);
    const double cold_s = seconds_since(t0);

    constexpr int kWarmReps = 5;
    std::vector<Prediction> warm;
    const auto t1 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kWarmReps; ++rep)
      warm = service.predict_batch(requests);
    const double warm_s = seconds_since(t1) / kWarmReps;

    for (std::size_t i = 0; i < cold.size(); ++i)
      all_identical = all_identical && cold[i].temporal_reliability ==
                                           warm[i].temporal_reliability;

    Table table({"machines", "cold_ms", "warm_ms", "warm_us_per_probe"});
    table.add_row({std::to_string(fleet.size()), Table::num(1e3 * cold_s),
                   Table::num(1e3 * warm_s),
                   Table::num(1e6 * warm_s /
                              static_cast<double>(fleet.size()))});
    std::cout << "\nfleet probe (one window, every machine):\n";
    table.print(std::cout);
  }

  std::cout << "\nTR values identical across compared paths: "
            << (all_identical ? "yes" : "NO") << "\n";
  std::cout << "warm lookup speedup: " << Table::num(lookup_speedup, 1)
            << "x (target >= 4x): "
            << (lookup_speedup >= 4.0 ? "PASS" : "FAIL") << "\n";
  return all_identical && lookup_speedup >= 4.0 ? 0 : 1;
}
