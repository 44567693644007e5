// Quickstart: predict a machine's availability for tomorrow morning.
//
//   1. Obtain a monitored history (here: 30 synthetic days of a student-lab
//      machine — in a deployment this comes from the resource monitor).
//   2. Ask the predictor for the temporal reliability of a job window.
//   3. Read the result: TR plus the per-failure-mode absorption split.
//
// Build & run:  ./quickstart
#include <chrono>
#include <cstdio>

#include "fgcs.hpp"

int main() {
  using namespace fgcs;

  // --- 1. a month of monitored history ------------------------------------
  WorkloadParams workload;
  workload.sampling_period = 60;  // one sample per minute
  TraceGenerator generator(workload, /*seed=*/7);
  const MachineTrace history = generator.generate("lab-42", /*days=*/30);

  std::printf("machine %s: %lld days of history, uptime %.2f%%, mean load %.1f%%\n",
              history.machine_id().c_str(),
              static_cast<long long>(history.day_count()),
              100.0 * history.uptime_fraction(), 100.0 * history.mean_load());

  // --- 2. predict tomorrow, 9:00-12:00 ------------------------------------
  AvailabilityPredictor predictor;  // paper defaults: Th1=20%, Th2=60%
  const PredictionRequest request{
      .target_day = history.day_count(),  // "tomorrow"
      .window = {.start_of_day = 9 * kSecondsPerHour,
                 .length = 3 * kSecondsPerHour}};
  const auto started = std::chrono::steady_clock::now();
  const Prediction p = predictor.predict(history, request);
  const double cost_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();

  // --- 3. inspect ----------------------------------------------------------
  std::printf("\nwindow 09:00 +3h (initial state %s, %zu training days):\n",
              to_string(p.initial_state), p.training_days_used);
  std::printf("  temporal reliability TR = %.4f\n", p.temporal_reliability);
  std::printf("  P(CPU contention kill, S3)   = %.4f\n", p.p_absorb[0]);
  std::printf("  P(memory thrash kill,  S4)   = %.4f\n", p.p_absorb[1]);
  std::printf("  P(machine revocation,  S5)   = %.4f\n", p.p_absorb[2]);
  std::printf("  prediction cost: %.2f ms\n", cost_ms);

  // Sweep a few window lengths to see reliability decay.
  std::printf("\nTR by window length (start 09:00):\n");
  for (SimTime hours = 1; hours <= 10; ++hours) {
    const Prediction sweep = predictor.predict(
        history, {.target_day = history.day_count(),
                  .window = {.start_of_day = 9 * kSecondsPerHour,
                             .length = hours * kSecondsPerHour}});
    std::printf("  %2lld h: TR = %.4f\n", static_cast<long long>(hours),
                sweep.temporal_reliability);
  }
  return 0;
}
