#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_support.hpp"
#include "util/error.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::sample;

TEST(TransitionCountsTest, CountsCompletedAndCensoredSojourns) {
  TransitionCounts counts(10);
  // S1 ×3, S2 ×2, then the first failure (S3): the trailing recovery is
  // invisible to first-passage estimation (failures are absorbing).
  const std::vector<State> seq{State::kS1, State::kS1, State::kS1, State::kS2,
                               State::kS2, State::kS3, State::kS3, State::kS1,
                               State::kS1};
  counts.accumulate(seq);
  EXPECT_EQ(counts.count(State::kS1, State::kS2, 3), 1u);
  EXPECT_EQ(counts.count(State::kS2, State::kS3, 2), 1u);
  EXPECT_EQ(counts.censored(State::kS1), 0u);  // post-failure data discarded
  EXPECT_EQ(counts.censored(State::kS2), 0u);
  EXPECT_EQ(counts.entries(State::kS1), 1u);
  EXPECT_EQ(counts.entries(State::kS2), 1u);
  EXPECT_EQ(counts.exits(State::kS1, State::kS2), 1u);
  EXPECT_EQ(counts.exits(State::kS1, State::kS3), 0u);
}

TEST(TransitionCountsTest, AccumulateAcrossMultipleWindows) {
  TransitionCounts counts(5);
  const std::vector<State> a{State::kS1, State::kS2};  // S1 hold 1 → S2; S2 censored
  const std::vector<State> b{State::kS1, State::kS2};
  counts.accumulate(a);
  counts.accumulate(b);
  EXPECT_EQ(counts.count(State::kS1, State::kS2, 1), 2u);
  EXPECT_EQ(counts.censored(State::kS2), 2u);
}

TEST(TransitionCountsTest, WindowsStartingInFailureContributeNothing) {
  TransitionCounts counts(5);
  const std::vector<State> seq{State::kS5, State::kS5, State::kS1};
  counts.accumulate(seq);
  // The window is already failed at its start: no sojourn evidence at all.
  EXPECT_EQ(counts.entries(State::kS1), 0u);
  EXPECT_EQ(counts.entries(State::kS2), 0u);
}

TEST(EstimatorTest, BuildModelNormalizesQandH) {
  TransitionCounts counts(6);
  // Two S1→S2 (holds 2 and 4), one S1→S3 (hold 1), one censored S1.
  const std::vector<State> w1{State::kS1, State::kS1, State::kS2};
  const std::vector<State> w2{State::kS1, State::kS1, State::kS1, State::kS1,
                              State::kS2};
  const std::vector<State> w3{State::kS1, State::kS3};
  const std::vector<State> w4{State::kS1, State::kS1};
  counts.accumulate(w1);  // hold 2 → S2
  counts.accumulate(w2);  // hold 4 → S2
  counts.accumulate(w3);  // hold 1 → S3
  counts.accumulate(w4);  // censored

  const SmpEstimator estimator;
  const SmpModel model = estimator.build_model(counts);
  // entries = 4: Q(S1→S2) = 2/4, Q(S1→S3) = 1/4, censored ¼ missing.
  EXPECT_NEAR(model.q(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(model.q(0, 2), 0.25, 1e-12);
  EXPECT_NEAR(model.exit_mass(0), 0.75, 1e-12);
  // H(S1→S2): holds 2 and 4, each ½.
  EXPECT_NEAR(model.h(0, 1, 2), 0.5, 1e-12);
  EXPECT_NEAR(model.h(0, 1, 4), 0.5, 1e-12);
  EXPECT_NEAR(model.h(0, 1, 1), 0.0, 1e-12);
  EXPECT_NEAR(model.h(0, 2, 1), 1.0, 1e-12);
}

TEST(EstimatorTest, NoDataLeavesDefectiveRows) {
  const SmpEstimator estimator;
  const SmpModel model = estimator.build_model(TransitionCounts(4));
  EXPECT_DOUBLE_EQ(model.exit_mass(0), 0.0);
  EXPECT_DOUBLE_EQ(model.exit_mass(1), 0.0);
}

TEST(EstimatorTest, LaplaceSmoothingAddsPseudoCounts) {
  TransitionCounts counts(4);
  const std::vector<State> w{State::kS1, State::kS2};
  counts.accumulate(w);  // one S1→S2, S2 censored
  EstimatorConfig config;
  config.laplace_alpha = 1.0;
  const SmpEstimator estimator(config);
  const SmpModel model = estimator.build_model(counts);
  // S1: entries 1, denom = 1 + 4α = 5. Q(S1→S2) = (1+1)/5, others 1/5.
  EXPECT_NEAR(model.q(0, 1), 0.4, 1e-12);
  EXPECT_NEAR(model.q(0, 2), 0.2, 1e-12);
  EXPECT_NEAR(model.q(0, 4), 0.2, 1e-12);
  // Pure pseudo-count transitions get a uniform holding pmf.
  EXPECT_NEAR(model.h(0, 2, 1), 0.25, 1e-12);
  EXPECT_NEAR(model.h(0, 2, 4), 0.25, 1e-12);
}

TEST(EstimatorTest, TrainingDaySelectionFollowsPaperRule) {
  // 14 days, Monday epoch. Target day 12 (weekend? day 12 = Saturday index…
  // epoch_dow=0: weekends are 5,6,12,13).
  const MachineTrace trace = test::constant_trace(14, 10, 60);
  EstimatorConfig config;
  config.training_days = 3;
  const SmpEstimator estimator(config);
  const TimeWindow w{.start_of_day = 0, .length = kSecondsPerHour};

  // Weekday target: most recent 3 weekdays before day 11.
  EXPECT_EQ(estimator.training_days_for(trace, 11, w),
            (std::vector<std::int64_t>{8, 9, 10}));
  // Weekend target: most recent weekends before day 12 are 5, 6.
  EXPECT_EQ(estimator.training_days_for(trace, 12, w),
            (std::vector<std::int64_t>{5, 6}));
}

TEST(EstimatorTest, TrainingDaysSkipIncompleteWrappingWindows) {
  const MachineTrace trace = test::constant_trace(8, 10, 60);
  EstimatorConfig config;
  config.training_days = 10;
  const SmpEstimator estimator(config);
  const TimeWindow wrapping{.start_of_day = 23 * kSecondsPerHour,
                            .length = 4 * kSecondsPerHour};
  // Day 7 would need day 8, which does not exist.
  const auto days = estimator.training_days_for(trace, 8, wrapping);
  EXPECT_EQ(days, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));  // weekdays 0-4
}

TEST(EstimatorTest, EstimateEndToEndOnCraftedTrace) {
  // Every training day: load 10% for the first half of the window, then 90%
  // (steady) — an S1 → S3 transition at a deterministic hold.
  MachineTrace trace("m", Calendar(0), 60, 512);
  for (int d = 0; d < 5; ++d) {
    auto day = constant_day(60, 10);
    for (std::size_t i = 30; i < 120; ++i) day[i] = sample(90);
    trace.append_day(std::move(day));
  }
  EstimatorConfig config;
  config.training_days = 4;
  const SmpEstimator estimator(config);
  const TimeWindow w{.start_of_day = 0, .length = kSecondsPerHour};
  const SmpModel model = estimator.estimate(trace, 4, w);

  EXPECT_NEAR(model.q(0, 2), 1.0, 1e-12);   // S1 → S3 always
  EXPECT_NEAR(model.h(0, 2, 30), 1.0, 1e-12);  // hold exactly 30 ticks
}

TEST(EstimatorTest, MajorityInitialState) {
  MachineTrace trace("m", Calendar(0), 60, 512);
  trace.append_day(constant_day(60, 10));  // starts in S1
  trace.append_day(constant_day(60, 40));  // starts in S2
  trace.append_day(constant_day(60, 45));  // starts in S2
  trace.append_day(constant_day(60, 5));
  const SmpEstimator estimator;
  const TimeWindow w{.start_of_day = 0, .length = kSecondsPerHour};
  const std::vector<std::int64_t> s2_majority{1, 2, 3};
  EXPECT_EQ(estimator.majority_initial_state(trace, s2_majority, w), State::kS2);
  const std::vector<std::int64_t> tie{0, 1};
  EXPECT_EQ(estimator.majority_initial_state(trace, tie, w), State::kS1);
  EXPECT_EQ(estimator.majority_initial_state(trace, {}, w), State::kS1);
}

void expect_same_model(const SmpModel& got, const SmpModel& want) {
  ASSERT_EQ(got.n_states(), want.n_states());
  ASSERT_EQ(got.horizon(), want.horizon());
  for (std::size_t from = 0; from < got.n_states(); ++from)
    for (std::size_t to = 0; to < got.n_states(); ++to) {
      EXPECT_EQ(got.q(from, to), want.q(from, to)) << from << "->" << to;
      const auto g = got.h_pmf(from, to);
      const auto w = want.h_pmf(from, to);
      EXPECT_EQ(std::vector<double>(g.begin(), g.end()),
                std::vector<double>(w.begin(), w.end()))
          << from << "->" << to;
    }
}

/// fit() against the two-pass pipeline it replaces, field by field.
SmpFit expect_fit_matches_pipeline(const SmpEstimator& estimator,
                                   const MachineTrace& trace,
                                   std::int64_t target_day,
                                   const TimeWindow& window) {
  const SmpFit fit = estimator.fit(trace, target_day, window);
  const std::vector<std::int64_t> days =
      estimator.training_days_for(trace, target_day, window);
  expect_same_model(fit.model, estimator.build_model(estimator.count_transitions(
                                   trace, days, window)));
  EXPECT_EQ(fit.majority_initial,
            estimator.majority_initial_state(trace, days, window));
  EXPECT_EQ(fit.training_days, days.size());
  return fit;
}

/// A 6 s-period day at `load_pct` whose 09:00 window opens, when `spike` is
/// set, on an 18 s burst above Th2 (shorter than the 1 min transient limit),
/// and holds a steady 12 min above Th2 half an hour in.
std::vector<ResourceSample> nine_oclock_day(int load_pct, bool spike) {
  std::vector<ResourceSample> day = constant_day(6, load_pct);
  const std::size_t nine = 9 * kSecondsPerHour / 6;
  if (spike)
    for (std::size_t i = 0; i < 3; ++i) day[nine + i] = sample(95);
  for (std::size_t i = 300; i < 420; ++i) day[nine + i] = sample(95);
  return day;
}

TEST(EstimatorTest, FitMatchesTwoPassPipeline) {
  // Generated histories: mid-history and forecast targets, morning and
  // midnight-wrapping windows, default and all-history training sets.
  WorkloadParams params;
  params.sampling_period = 60;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const MachineTrace trace = TraceGenerator(params, seed).generate("m", 21);
    for (const std::size_t n : {std::size_t{10}, std::size_t{0}}) {
      EstimatorConfig config;
      config.training_days = n;
      const SmpEstimator estimator(config);
      for (const std::int64_t day : {14, 21})
        for (const SimTime start : {2, 9, 22}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " day=" +
                       std::to_string(day) + " start=" + std::to_string(start));
          expect_fit_matches_pipeline(
              estimator, trace, day,
              TimeWindow{.start_of_day = start * kSecondsPerHour,
                         .length = 4 * kSecondsPerHour});
        }
    }
  }

  // Crafted history (days 0-4 weekdays, 5-6 a weekend): three windows open
  // on a short spike the transient rule relabels from the right (into S2 on
  // days 0, 1 and 4, into S1 on day 3), and day 2 opens plainly in S1.
  MachineTrace trace("m", Calendar(0), 6, 512);
  trace.append_day(nine_oclock_day(40, true));
  trace.append_day(nine_oclock_day(40, true));
  trace.append_day(nine_oclock_day(10, false));
  trace.append_day(nine_oclock_day(10, true));
  trace.append_day(nine_oclock_day(40, true));
  trace.append_day(constant_day(6, 10));
  trace.append_day(constant_day(6, 10));
  EstimatorConfig config;
  config.training_days = 0;
  const SmpEstimator estimator(config);
  const TimeWindow window{.start_of_day = 9 * kSecondsPerHour,
                          .length = kSecondsPerHour};
  // Days 0-4: the relabelled spikes decide the majority (S2 three to two).
  const SmpFit relabelled =
      expect_fit_matches_pipeline(estimator, trace, 7, window);
  EXPECT_EQ(relabelled.majority_initial, State::kS2);
  EXPECT_EQ(relabelled.training_days, 5u);
  // Days 0-3: two S2 starts against two S1 starts, a tie that goes to S1.
  const SmpFit tie = expect_fit_matches_pipeline(estimator, trace, 4, window);
  EXPECT_EQ(tie.majority_initial, State::kS1);
  EXPECT_EQ(tie.training_days, 4u);
  // Day 5 is the first weekend day: no eligible training day at all.
  const SmpFit none = expect_fit_matches_pipeline(estimator, trace, 5, window);
  EXPECT_EQ(none.training_days, 0u);
  EXPECT_EQ(none.majority_initial, State::kS1);
  EXPECT_EQ(none.model.exit_mass(index_of(State::kS1)), 0.0);
}

// build_model does not validate its own output (the solvers do, at their
// boundary), so the estimator's invariant is pinned here: every fitted model,
// smoothed or not, passes SmpModel::validate().
TEST(EstimatorTest, FittedModelsAlwaysValidate) {
  WorkloadParams params;
  params.sampling_period = 60;
  for (const double alpha : {0.0, 0.5}) {
    EstimatorConfig config;
    config.laplace_alpha = alpha;
    const SmpEstimator estimator(config);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const MachineTrace trace = TraceGenerator(params, seed).generate("m", 14);
      for (const std::int64_t day : {3, 10, 14})
        for (const SimTime start : {0, 9, 22})
          for (const SimTime hours : {1, 4}) {
            SCOPED_TRACE("alpha=" + std::to_string(alpha) + " seed=" +
                         std::to_string(seed) + " day=" + std::to_string(day) +
                         " start=" + std::to_string(start) +
                         " hours=" + std::to_string(hours));
            const SmpFit fit = estimator.fit(
                trace, day,
                TimeWindow{.start_of_day = start * kSecondsPerHour,
                           .length = hours * kSecondsPerHour});
            EXPECT_NO_THROW(fit.model.validate());
          }
    }
  }
}

TEST(EstimatorTest, RejectsNegativeAlpha) {
  EstimatorConfig config;
  config.laplace_alpha = -0.1;
  EXPECT_THROW(SmpEstimator{config}, PreconditionError);
}

}  // namespace
}  // namespace fgcs
