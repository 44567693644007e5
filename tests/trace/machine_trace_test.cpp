#include "trace/machine_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "test_support.hpp"
#include "util/error.hpp"

namespace fgcs {
namespace {

using test::constant_day;
using test::constant_trace;
using test::sample;

TEST(MachineTraceTest, ConstructionValidatesArguments) {
  EXPECT_NO_THROW(MachineTrace("m", Calendar(0), 6, 512));
  EXPECT_THROW(MachineTrace("m", Calendar(0), 7, 512), PreconditionError);
  EXPECT_THROW(MachineTrace("m", Calendar(0), 0, 512), PreconditionError);
  EXPECT_THROW(MachineTrace("m", Calendar(0), 6, 0), PreconditionError);
}

TEST(MachineTraceTest, AppendDayEnforcesSize) {
  MachineTrace trace("m", Calendar(0), 60, 512);
  EXPECT_EQ(trace.samples_per_day(), 1440u);
  EXPECT_THROW(trace.append_day(std::vector<ResourceSample>(10)),
               PreconditionError);
  trace.append_day(constant_day(60, 5));
  EXPECT_EQ(trace.day_count(), 1);
}

TEST(MachineTraceTest, AtTimeFindsSample) {
  MachineTrace trace("m", Calendar(0), 60, 512);
  auto day0 = constant_day(60, 5);
  day0[100].host_load_pct = 77;
  trace.append_day(std::move(day0));
  trace.append_day(constant_day(60, 9));
  EXPECT_EQ(trace.at_time(100 * 60).host_load_pct, 77);
  EXPECT_EQ(trace.at_time(100 * 60 + 59).host_load_pct, 77);
  EXPECT_EQ(trace.at_time(kSecondsPerDay).host_load_pct, 9);
  EXPECT_THROW(trace.at_time(2 * kSecondsPerDay), PreconditionError);
}

TEST(MachineTraceTest, WindowSamplesWithinDay) {
  MachineTrace trace = constant_trace(2, 30, 60);
  const TimeWindow w{.start_of_day = 8 * kSecondsPerHour,
                     .length = kSecondsPerHour};
  const auto samples = trace.window_samples(0, w);
  ASSERT_EQ(samples.size(), 60u);
  for (const auto& s : samples) EXPECT_EQ(s.host_load_pct, 30);
}

TEST(MachineTraceTest, WindowSamplesWrapMidnight) {
  MachineTrace trace("m", Calendar(0), 60, 512);
  trace.append_day(constant_day(60, 10));
  trace.append_day(constant_day(60, 20));
  const TimeWindow w{.start_of_day = 23 * kSecondsPerHour,
                     .length = 2 * kSecondsPerHour};
  const auto samples = trace.window_samples(0, w);
  ASSERT_EQ(samples.size(), 120u);
  EXPECT_EQ(samples.front().host_load_pct, 10);
  EXPECT_EQ(samples[59].host_load_pct, 10);
  EXPECT_EQ(samples[60].host_load_pct, 20);  // crossed midnight
  EXPECT_EQ(samples.back().host_load_pct, 20);
}

TEST(MachineTraceTest, WindowInRangeChecksWrap) {
  MachineTrace trace = constant_trace(2, 5, 60);
  const TimeWindow wrapping{.start_of_day = 23 * kSecondsPerHour,
                            .length = 2 * kSecondsPerHour};
  EXPECT_TRUE(trace.window_in_range(0, wrapping));
  EXPECT_FALSE(trace.window_in_range(1, wrapping));  // needs day 2
  EXPECT_FALSE(trace.window_in_range(2, wrapping));
  EXPECT_FALSE(trace.window_in_range(-1, wrapping));
}

TEST(MachineTraceTest, DaysOfTypeRespectsCalendar) {
  const MachineTrace trace = constant_trace(14, 5, 60, 512, /*epoch_dow=*/0);
  const auto weekdays = trace.days_of_type(DayType::kWeekday, 0, 14);
  const auto weekends = trace.days_of_type(DayType::kWeekend, 0, 14);
  EXPECT_EQ(weekdays.size(), 10u);
  EXPECT_EQ(weekends.size(), 4u);
  EXPECT_EQ(weekends, (std::vector<std::int64_t>{5, 6, 12, 13}));
}

TEST(MachineTraceTest, RecentDaysOfTypeTakesMostRecentN) {
  const MachineTrace trace = constant_trace(14, 5, 60);
  // Weekdays before day 12 (Monday epoch): …, 8, 9, 10, 11.
  const auto days = trace.recent_days_of_type(DayType::kWeekday, 12, 3);
  EXPECT_EQ(days, (std::vector<std::int64_t>{9, 10, 11}));
  // Fewer available than requested: return what exists.
  const auto early = trace.recent_days_of_type(DayType::kWeekday, 2, 5);
  EXPECT_EQ(early, (std::vector<std::int64_t>{0, 1}));
}

TEST(MachineTraceTest, UptimeAndMeanLoad) {
  MachineTrace trace("m", Calendar(0), 60, 512);
  std::vector<ResourceSample> day = constant_day(60, 40);
  for (std::size_t i = 0; i < 144; ++i) day[i].set_up(false);  // 10% down
  trace.append_day(std::move(day));
  EXPECT_NEAR(trace.uptime_fraction(), 0.9, 1e-9);
  EXPECT_NEAR(trace.mean_load(), 0.40, 1e-9);
}

TEST(MachineTraceTest, SerializationRoundTrip) {
  MachineTrace trace("machine-x", Calendar(3), 60, 384);
  auto day = constant_day(60, 15);
  day[7] = sample(99, 50, false);
  trace.append_day(std::move(day));
  trace.append_day(constant_day(60, 25));

  std::stringstream buffer;
  trace.save(buffer);
  const MachineTrace loaded = MachineTrace::load(buffer);

  EXPECT_EQ(loaded.machine_id(), "machine-x");
  EXPECT_EQ(loaded.calendar().epoch_day_of_week(), 3);
  EXPECT_EQ(loaded.sampling_period(), 60);
  EXPECT_EQ(loaded.total_mem_mb(), 384);
  ASSERT_EQ(loaded.day_count(), 2);
  EXPECT_EQ(loaded.at(0, 7), sample(99, 50, false));
  EXPECT_EQ(loaded.at(1, 100).host_load_pct, 25);
}

TEST(MachineTraceTest, LoadRejectsGarbage) {
  std::stringstream buffer("this is not a trace");
  EXPECT_THROW(MachineTrace::load(buffer), DataError);
}

TEST(MachineTraceTest, LoadRejectsTruncatedStream) {
  MachineTrace trace = constant_trace(2, 5, 60);
  std::stringstream buffer;
  trace.save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(MachineTrace::load(truncated), DataError);
}

TEST(MachineTraceTest, HistoryIdNamesTheContent) {
  MachineTrace trace = constant_trace(3, 10);
  const MachineTrace copy = trace;  // same content, same id
  EXPECT_EQ(copy.history_id(), trace.history_id());

  const std::uint64_t before = trace.history_id();
  trace.append_day(constant_day(60, 10));
  EXPECT_NE(trace.history_id(), before);
  EXPECT_EQ(copy.history_id(), before);

  // Slices and loads are new histories even when their content equals an
  // existing one's.
  const MachineTrace whole = trace.slice(0, trace.day_count());
  EXPECT_NE(whole.history_id(), trace.history_id());
  std::stringstream buffer;
  trace.save(buffer);
  EXPECT_NE(MachineTrace::load(buffer).history_id(), trace.history_id());
  EXPECT_NE(MachineTrace("x", Calendar(0), 60, 512).history_id(),
            MachineTrace("x", Calendar(0), 60, 512).history_id());
}

TEST(MachineTraceTest, DayCsvHasHeaderAndRows) {
  const MachineTrace trace = constant_trace(1, 12, 3600);
  std::ostringstream os;
  trace.write_day_csv(os, 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("second_of_day,host_load_pct,free_mem_mb,up\n"),
            std::string::npos);
  EXPECT_NE(out.find("0,12,"), std::string::npos);
  // 24 rows + header.
  EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 25);
}

}  // namespace
}  // namespace fgcs
