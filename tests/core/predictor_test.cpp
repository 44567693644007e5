#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include "core/prediction_service.hpp"
#include "core/sparse_solver.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

TEST(PredictorTest, AlwaysAvailableHistoryPredictsCertainSurvival) {
  const MachineTrace trace = test::constant_trace(10, 10, 60);
  const AvailabilityPredictor predictor;
  const Prediction p = predictor.predict(
      trace, {.target_day = 9,
              .window = {.start_of_day = 8 * kSecondsPerHour,
                         .length = 2 * kSecondsPerHour}});
  EXPECT_DOUBLE_EQ(p.temporal_reliability, 1.0);
  EXPECT_EQ(p.initial_state, State::kS1);
  EXPECT_EQ(p.steps, 120u);
  EXPECT_GT(p.training_days_used, 0u);
}

TEST(PredictorTest, DeterministicFailurePredictsZeroSurvival) {
  // Every weekday: steady overload from tick 30 of the window on.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 5; ++d) {
    auto day = constant_day(60, 10);
    for (std::size_t i = 30; i < 180; ++i) day[i] = sample(95);
    trace.append_day(std::move(day));
  }
  const AvailabilityPredictor predictor;
  const Prediction p = predictor.predict(
      trace,
      {.target_day = 4,
       .window = {.start_of_day = 0, .length = 2 * kSecondsPerHour}});
  EXPECT_NEAR(p.temporal_reliability, 0.0, 1e-9);
  EXPECT_NEAR(p.p_absorb[0], 1.0, 1e-9);  // S3
}

TEST(PredictorTest, MixedHistoryGivesFractionalTr) {
  // 2 of 4 weekday training days fail (steady overload), 2 stay idle:
  // TR should be ~0.5 for a window covering the overload.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 5; ++d) {
    auto day = constant_day(60, 10);
    if (d % 2 == 0) {
      for (std::size_t i = 60; i < 200; ++i) day[i] = sample(95);
    }
    trace.append_day(std::move(day));
  }
  EstimatorConfig config;
  config.training_days = 4;
  const AvailabilityPredictor predictor(config);
  const Prediction p = predictor.predict(
      trace, {.target_day = 4,
              .window = {.start_of_day = 0, .length = 3 * kSecondsPerHour}});
  EXPECT_NEAR(p.temporal_reliability, 0.5, 1e-9);
}

TEST(PredictorTest, ExplicitInitialStateIsRespected) {
  // From S2 the machine always fails; from S1 it never transitions to S2.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 4; ++d) {
    auto day = constant_day(60, 40);  // starts in S2
    for (std::size_t i = 10; i < 100; ++i) day[i] = sample(90);
    trace.append_day(std::move(day));
  }
  const AvailabilityPredictor predictor;
  // 100 ticks: the window ends while the overload is still in force, so the
  // only S2 sojourn in the data is the one that ends in S3.
  const TimeWindow w{.start_of_day = 0, .length = 100 * 60};
  const Prediction from_s2 = predictor.predict(
      trace, {.target_day = 3, .window = w, .initial_state = State::kS2});
  const Prediction from_s1 = predictor.predict(
      trace, {.target_day = 3, .window = w, .initial_state = State::kS1});
  EXPECT_LT(from_s2.temporal_reliability, 0.01);
  // No S1 data at all: defective row → predicted survival.
  EXPECT_DOUBLE_EQ(from_s1.temporal_reliability, 1.0);
}

TEST(PredictorTest, TargetDayJustPastHistoryIsAllowed) {
  const MachineTrace trace = test::constant_trace(5, 10, 60);
  const AvailabilityPredictor predictor;
  EXPECT_NO_THROW(predictor.predict(
      trace,
      {.target_day = 5, .window = {.start_of_day = 0, .length = 3600}}));
  EXPECT_THROW(
      predictor.predict(
          trace,
          {.target_day = 6, .window = {.start_of_day = 0, .length = 3600}}),
      PreconditionError);
  EXPECT_THROW(
      predictor.predict(
          trace,
          {.target_day = -1, .window = {.start_of_day = 0, .length = 3600}}),
      PreconditionError);
}

TEST(PredictorTest, MatchesSparseReferenceBitForBit) {
  // The production path reads AbsorptionCurves; SparseTrSolver on the same
  // estimated model is the Eq. 3 reference it must reproduce exactly.
  WorkloadParams params;
  params.sampling_period = 60;
  const MachineTrace trace = TraceGenerator(params, 5).generate("m", 15);
  const AvailabilityPredictor predictor;
  for (const SimTime start_hr : {2, 9, 14, 22}) {
    for (const State init : {State::kS1, State::kS2}) {
      const PredictionRequest request{
          .target_day = trace.day_count(),
          .window = {.start_of_day = start_hr * kSecondsPerHour,
                     .length = 6 * kSecondsPerHour},
          .initial_state = init};
      const SmpModel model = predictor.estimator().estimate(
          trace, request.target_day, request.window);
      const SparseTrSolver::Result want =
          SparseTrSolver(model).solve(init, 360);
      const Prediction got = predictor.predict(trace, request);
      EXPECT_EQ(got.temporal_reliability, want.temporal_reliability)
          << start_hr << "h " << to_string(init);
      EXPECT_EQ(got.p_absorb, want.p_absorb);
    }
  }
}

TEST(PredictorTest, AgreesWithServiceAtLongHorizon) {
  // 2 s samples make a 20 h window 36 000 steps. Predictor and service build
  // their curves by the same recursion at every horizon, so they agree bit
  // for bit on day-long windows too.
  WorkloadParams params;
  params.sampling_period = 2;
  const MachineTrace trace = TraceGenerator(params, 9).generate("m", 6);
  const PredictionRequest request{
      .target_day = trace.day_count(),
      .window = {.start_of_day = 2 * kSecondsPerHour,
                 .length = 20 * kSecondsPerHour}};
  const Prediction direct = AvailabilityPredictor().predict(trace, request);
  ASSERT_EQ(direct.steps, 36000u);
  PredictionService service;
  const Prediction served = service.predict(trace, request);
  EXPECT_EQ(served.temporal_reliability, direct.temporal_reliability);
  EXPECT_EQ(served.p_absorb, direct.p_absorb);
  EXPECT_GE(direct.temporal_reliability, 0.0);
  EXPECT_LE(direct.temporal_reliability, 1.0);
}

TEST(PredictorTest, RejectsFailureInitialState) {
  const MachineTrace trace = test::constant_trace(3, 10, 60);
  const AvailabilityPredictor predictor;
  EXPECT_THROW(
      predictor.predict(trace, {.target_day = 2,
                                .window = {.start_of_day = 0, .length = 3600},
                                .initial_state = State::kS5}),
      PreconditionError);
}

}  // namespace
}  // namespace fgcs
