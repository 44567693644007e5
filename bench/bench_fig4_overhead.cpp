// Fig. 4 — computation time of resource availability prediction for time
// windows of different lengths, at the paper's native 6 s sampling period.
//
// Two series, as in the paper: the Q/H parameter computation alone, and the
// whole prediction (Q, H and TR). The paper's TR recursion is O(n²) in the
// number of discretization steps n = T/d (it measured ≈ n^1.85 on its 2005
// testbed); ours visits only the k lags where a cross kernel is nonzero, so
// it is O(n·k) (DESIGN.md §5). google-benchmark's complexity fit reports the
// best-fitting curve.
#include <benchmark/benchmark.h>

#include "harness.hpp"

namespace {

using namespace fgcs;

const MachineTrace& paper_rate_trace() {
  // 3 weeks at the paper's 6 s sampling: enough history for 10 training
  // weekdays, small enough to generate once.
  static const MachineTrace trace = [] {
    WorkloadParams params;
    params.sampling_period = 6;
    TraceGenerator generator(params, bench::kFleetSeed);
    return generator.generate("fig4", 21);
  }();
  return trace;
}

TimeWindow window_of_hours(std::int64_t hours) {
  return TimeWindow{.start_of_day = 8 * kSecondsPerHour,
                    .length = hours * kSecondsPerHour};
}

void BM_QHComputation(benchmark::State& state) {
  const MachineTrace& trace = paper_rate_trace();
  const SmpEstimator estimator(bench::bench_estimator_config());
  const TimeWindow window = window_of_hours(state.range(0));
  for (auto _ : state) {
    SmpModel model = estimator.estimate(trace, 20, window);
    benchmark::DoNotOptimize(model);
  }
  state.SetComplexityN(static_cast<std::int64_t>(window.steps(6)));
}

void BM_TotalPrediction(benchmark::State& state) {
  const MachineTrace& trace = paper_rate_trace();
  const AvailabilityPredictor predictor(bench::bench_estimator_config());
  const TimeWindow window = window_of_hours(state.range(0));
  for (auto _ : state) {
    const Prediction p =
        predictor.predict(trace, {.target_day = 20, .window = window});
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(static_cast<std::int64_t>(window.steps(6)));
}

}  // namespace

BENCHMARK(BM_QHComputation)
    ->DenseRange(1, 10, 1)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_TotalPrediction)
    ->DenseRange(1, 10, 1)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

BENCHMARK_MAIN();
