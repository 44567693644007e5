// Chaos suite: the prediction service under forced cache invalidation,
// injected estimation failures, and latency injection. The load-bearing
// invariant is staleness: no matter how invalidation races with lookups, a
// served Prediction is always bit-identical to a fresh unbatched
// AvailabilityPredictor run on the same history.
#include "core/prediction_service.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "chaos_support.hpp"
#include "core/predictor.hpp"
#include "trace/trace_store.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "workload/trace_generator.hpp"

namespace fgcs {
namespace {

using test::ChaosTest;
using test::steady_trace;

class ServiceChaosTest : public ChaosTest {};

PredictionRequest request_at(SimTime start_of_day, SimTime length,
                             std::int64_t target_day = 7) {
  return PredictionRequest{
      .target_day = target_day,
      .window = {.start_of_day = start_of_day, .length = length}};
}

/// Bitwise Prediction comparison — the service's hit-path contract is
/// bit-identity with the cold path, not approximate equality. Timing fields
/// are excluded: they record wall-clock cost, not the predicted value.
void expect_same_prediction(const Prediction& got, const Prediction& want) {
  EXPECT_EQ(std::memcmp(&got.temporal_reliability, &want.temporal_reliability,
                        sizeof(double)),
            0);
  EXPECT_EQ(got.initial_state, want.initial_state);
  EXPECT_EQ(std::memcmp(got.p_absorb.data(), want.p_absorb.data(),
                        sizeof(got.p_absorb)),
            0);
  EXPECT_EQ(got.training_days_used, want.training_days_used);
  EXPECT_EQ(got.steps, want.steps);
}

TEST_F(ServiceChaosTest, ForcedInvalidationNeverServesStale) {
  // Every 3rd lookup forcibly invalidates the machine's cache generation
  // right after the lookup is counted — a worst-case churn of the staleness
  // machinery. Each result must still equal the uncached predictor's.
  Failpoints::instance().arm_from_spec("service.cache.invalidate=every:3");
  const MachineTrace trace = test::flaky_trace("m0", 8);
  PredictionService service;
  const AvailabilityPredictor reference;

  for (int round = 0; round < 20; ++round) {
    const PredictionRequest request =
        request_at((9 + round % 4) * kSecondsPerHour, 2 * kSecondsPerHour);
    const Prediction got = service.predict(trace, request);
    const Prediction want = reference.predict(trace, request);
    expect_same_prediction(got, want);
  }
  const FailpointStats stats = Failpoints::instance().stats();
  const FailpointCounters* point = stats.find("service.cache.invalidate");
  ASSERT_NE(point, nullptr);
  EXPECT_GT(point->fires, 0u);
  EXPECT_GT(service.stats().invalidations, 0u);
}

TEST_F(ServiceChaosTest, ConcurrentPredictsUnderInvalidationStayCorrect) {
  // Hammer one machine from several threads while injected invalidations
  // keep wiping its generation mid-flight. Entries may be dropped and
  // re-estimated, but a wrong (stale) answer is never acceptable.
  Failpoints::instance().arm_from_spec("service.cache.invalidate=every:5");
  const MachineTrace trace = test::flaky_trace("m0", 8);
  PredictionService service;
  const AvailabilityPredictor reference;

  constexpr int kWindows = 4;
  std::array<Prediction, kWindows> want;
  for (int w = 0; w < kWindows; ++w)
    want[static_cast<std::size_t>(w)] =
        reference.predict(trace, request_at((9 + w) * kSecondsPerHour,
                                            2 * kSecondsPerHour));

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  std::array<std::atomic<int>, kThreads> mismatches{};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int w = (t + round) % kWindows;
        const Prediction got = service.predict(
            trace, request_at((9 + w) * kSecondsPerHour, 2 * kSecondsPerHour));
        if (std::memcmp(&got.temporal_reliability,
                        &want[static_cast<std::size_t>(w)]
                             .temporal_reliability,
                        sizeof(double)) != 0)
          mismatches[static_cast<std::size_t>(t)].fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)].load(), 0) << t;
  EXPECT_GT(Failpoints::instance().stats().find("service.cache.invalidate")
                ->fires,
            0u);
}

TEST_F(ServiceChaosTest, SnapshotStormServesEachSnapshotExactly) {
  // One writer streams days into a TraceStore with a 4-day retention budget
  // (every close also retires a day, so each snapshot has the same day count
  // and the same training-day indices as the last) while readers predict
  // through pinned snapshots. Day closes race lookups and inserts; whatever
  // the interleaving, every served result must equal a fresh predictor run
  // on the very snapshot the reader holds.
  WorkloadParams params;
  params.sampling_period = 60;
  const MachineTrace source = TraceGenerator(params, 11).generate("m0", 16);
  PredictionService service;
  TraceStore store(TraceStoreConfig{.retention_days = 4},
                   [&service](const TraceStore::DayClosedEvent& event) {
                     service.invalidate(event.machine_id);
                   });
  store.adopt_trace(source.slice(0, 4));
  const MachineSpec spec{.machine_id = "m0",
                         .epoch_day_of_week = 0,
                         .sampling_period = 60,
                         .total_mem_mb = source.total_mem_mb()};

  constexpr int kReaders = 3;
  std::atomic<int> ready{0};  // readers that finished their first predict
  std::atomic<bool> writing{true};
  std::uint64_t retired = 0;
  std::thread writer([&] {
    while (ready.load() < kReaders) std::this_thread::yield();
    const std::size_t per_day = source.samples_per_day();
    std::vector<ResourceSample> chunk;
    for (std::int64_t day = 4; day < source.day_count(); ++day) {
      for (std::size_t at = 0; at < per_day; at += 90) {
        chunk.clear();
        for (std::size_t i = at; i < at + 90; ++i)
          chunk.push_back(source.at(day, i));
        retired += store
                       .append(spec,
                               static_cast<std::uint64_t>(day) * per_day + at,
                               chunk)
                       .days_retired;
        std::this_thread::yield();
      }
    }
    writing.store(false);
  });

  std::array<std::atomic<int>, kReaders> mismatches{};
  std::array<std::atomic<int>, kReaders> reads{};
  std::array<std::atomic<int>, kReaders> snapshots_seen{};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const AvailabilityPredictor reference;
      const auto slot = static_cast<std::size_t>(r);
      std::uint64_t last_id = 0;
      // `finished` is read before the snapshot, so the last round always
      // pins the writer's final snapshot.
      bool finished = false;
      for (int round = 0; !finished || round < 20; ++round) {
        finished = !writing.load();
        const std::shared_ptr<const MachineTrace> snapshot =
            store.snapshot("m0");
        if (snapshot->history_id() != last_id) snapshots_seen[slot].fetch_add(1);
        last_id = snapshot->history_id();
        const PredictionRequest request = request_at(
            (8 + (r + round) % 4) * kSecondsPerHour, 2 * kSecondsPerHour,
            snapshot->day_count());
        const Prediction got = service.predict(*snapshot, request);
        const Prediction want = reference.predict(*snapshot, request);
        if (std::memcmp(&got.temporal_reliability, &want.temporal_reliability,
                        sizeof(double)) != 0 ||
            got.training_days_used != want.training_days_used)
          mismatches[slot].fetch_add(1);
        reads[slot].fetch_add(1);
        if (round == 0) ready.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(retired, 12u);
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(mismatches[r].load(), 0) << "reader " << r;
    EXPECT_GE(reads[r].load(), 20) << "reader " << r;
    // The first read ran before the writer started, the last after it
    // finished: every reader crossed at least one day close.
    EXPECT_GE(snapshots_seen[r].load(), 2) << "reader " << r;
  }
  EXPECT_EQ(service.stats().lookups, service.stats().hits + service.stats().misses);
}

TEST_F(ServiceChaosTest, InjectedEstimationFailureThrowsThenRecovers) {
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  const MachineTrace trace = steady_trace("m0", 8);
  PredictionService service;
  const PredictionRequest request =
      request_at(9 * kSecondsPerHour, kSecondsPerHour);

  EXPECT_THROW(service.predict(trace, request), DataError);
  // The failure consumed the `once` trigger; the service is healthy again
  // and agrees with the uncached predictor.
  const Prediction got = service.predict(trace, request);
  expect_same_prediction(got,
                         AvailabilityPredictor().predict(trace, request));
}

TEST_F(ServiceChaosTest, BatchSurfacesInjectedFailureAsDataError) {
  Failpoints::instance().arm_from_spec("service.estimate.fail=once");
  const MachineTrace a = steady_trace("a", 8);
  const MachineTrace b = steady_trace("b", 8);
  PredictionService service;
  const std::vector<BatchRequest> batch{
      {.trace = &a, .request = request_at(9 * kSecondsPerHour, 600)},
      {.trace = &b, .request = request_at(9 * kSecondsPerHour, 600)}};
  EXPECT_THROW(service.predict_batch(batch), DataError);
  // A later batch succeeds once the trigger is spent.
  EXPECT_EQ(service.predict_batch(batch).size(), 2u);
}

TEST_F(ServiceChaosTest, LatencyInjectionDelaysButDoesNotCorrupt) {
  // 1 ms injected stall on every 2nd lookup: results must be unchanged.
  Failpoints::instance().arm_from_spec(
      "service.estimate.slow=every:2,latency=0.001");
  const MachineTrace trace = steady_trace("m0", 8);
  PredictionService service;
  const AvailabilityPredictor reference;
  const PredictionRequest request =
      request_at(9 * kSecondsPerHour, kSecondsPerHour);

  for (int i = 0; i < 4; ++i)
    expect_same_prediction(service.predict(trace, request),
                           reference.predict(trace, request));
  EXPECT_EQ(
      Failpoints::instance().stats().find("service.estimate.slow")->fires, 2u);
}

TEST_F(ServiceChaosTest, InvalidationStormIsDeterministic) {
  // Same spec + same single-threaded call sequence → identical stats and
  // identical service counters, run after run.
  const MachineTrace trace = test::flaky_trace("m0", 8);
  auto run = [&trace] {
    Failpoints::instance().reset();
    Failpoints::instance().arm_from_spec(
        "service.cache.invalidate=prob:0.4:2024");
    PredictionService service;
    double sum = 0.0;
    for (int round = 0; round < 30; ++round)
      sum += service
                 .predict(trace, request_at((8 + round % 6) * kSecondsPerHour,
                                            kSecondsPerHour))
                 .temporal_reliability;
    return std::make_tuple(sum, Failpoints::instance().stats(),
                           service.stats().invalidations);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));
  EXPECT_EQ(std::get<1>(first), std::get<1>(second));
  EXPECT_EQ(std::get<2>(first), std::get<2>(second));
  EXPECT_GT(std::get<2>(first), 0u);
}

}  // namespace
}  // namespace fgcs
