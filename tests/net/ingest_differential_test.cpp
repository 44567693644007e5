// End-to-end streaming differential: the golden fleet STREAMED sample by
// sample over loopback kAppendSamples frames — rather than handed to the
// server preloaded — must serve every golden-fixture row bit-identically to
// the in-process stack (and within the fixture's own 1e-12 tolerance). Along
// the way the acks must account for every sample, and the service cache
// generation must bump exactly once per closed day, no more, no less.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/error.hpp"
#include "workload/trace_generator.hpp"

#ifndef FGCS_GOLDEN_CSV
#error "build must define FGCS_GOLDEN_CSV (path to tests/golden/golden_tr.csv)"
#endif

namespace fgcs::net {
namespace {

struct GoldenRow {
  std::string machine;
  std::int64_t target_day = 0;
  SimTime window_start = 0;
  SimTime window_length = 0;
  double tr = 0.0;
};

std::vector<GoldenRow> load_fixture() {
  std::ifstream in(FGCS_GOLDEN_CSV);
  if (!in) throw DataError("cannot open fixture " FGCS_GOLDEN_CSV);
  std::vector<GoldenRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    GoldenRow row;
    std::string cell;
    std::getline(fields, row.machine, ',');
    std::getline(fields, cell, ',');
    row.target_day = std::stoll(cell);
    std::getline(fields, cell, ',');
    row.window_start = std::stoll(cell);
    std::getline(fields, cell, ',');
    row.window_length = std::stoll(cell);
    std::getline(fields, cell, ',');
    row.tr = std::strtod(cell.c_str(), nullptr);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<MachineTrace> golden_fleet() {
  WorkloadParams params;
  params.sampling_period = 60;
  return generate_fleet(params, /*seed=*/20060619, /*count=*/4, /*days=*/30,
                        "golden");
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

WireAppendRequest request_shell(const MachineTrace& trace) {
  WireAppendRequest request;
  request.machine_id = trace.machine_id();
  request.epoch_day_of_week =
      static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
  request.sampling_period = trace.sampling_period();
  request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());
  return request;
}

/// Streams the whole trace in `batch`-sample frames, asserting after every
/// ack that the acked generation and the store's closed-day count both
/// equal the number of days closed so far — one step per day boundary and
/// none for buffered samples.
void stream_and_check_generations(PredictionClient& client,
                                  const TraceStore& store,
                                  const MachineTrace& trace,
                                  std::size_t batch) {
  WireAppendRequest request = request_shell(trace);
  const std::size_t per_day = trace.samples_per_day();
  const std::uint64_t total =
      static_cast<std::uint64_t>(trace.day_count()) * per_day;
  std::uint64_t index = 0;
  std::uint64_t closed_total = 0;
  while (index < total) {
    const std::uint64_t count = std::min<std::uint64_t>(batch, total - index);
    request.first_sample_index = index;
    request.samples.clear();
    for (std::uint64_t i = index; i < index + count; ++i)
      request.samples.push_back(
          trace.at(static_cast<std::int64_t>(i / per_day), i % per_day));
    const WireAppendAck ack = client.append_samples(request);
    ASSERT_EQ(ack.accepted, count);
    ASSERT_EQ(ack.duplicates, 0u);
    ASSERT_EQ(ack.next_index, index + count);
    closed_total += ack.days_closed;
    // Generation steps exactly once per closed day.
    ASSERT_EQ(ack.generation, closed_total);
    ASSERT_EQ(static_cast<std::uint64_t>(
                  store.first_day_id(trace.machine_id()) +
                  store.snapshot(trace.machine_id())->day_count()),
              closed_total);
    ASSERT_EQ(closed_total, (index + count) / per_day);
    index += count;
  }
  ASSERT_EQ(closed_total, static_cast<std::uint64_t>(trace.day_count()));
}

TEST(IngestDifferential, StreamedGoldenRowsServeBitIdentical) {
  const std::vector<GoldenRow> rows = load_fixture();
  ASSERT_EQ(rows.size(), 128u) << "golden grid changed; update this test";
  const std::vector<MachineTrace> fleet = golden_fleet();
  std::map<std::string, const MachineTrace*> by_id;
  for (const MachineTrace& trace : fleet)
    by_id.emplace(trace.machine_id(), &trace);

  const auto service = std::make_shared<PredictionService>();
  ServerConfig server_config;
  server_config.ingest = true;  // NO preloaded traces: everything arrives live
  PredictionServer server(server_config, service);
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);

  // Deliberately awkward frame sizes: smaller than a day, exactly a day, and
  // day-straddling, varying per machine.
  const std::size_t per_day = fleet.front().samples_per_day();
  const std::size_t batches[] = {per_day / 3, per_day, per_day * 2 + 17,
                                 per_day - 1};
  for (std::size_t m = 0; m < fleet.size(); ++m) {
    SCOPED_TRACE(fleet[m].machine_id());
    stream_and_check_generations(client, *server.store(), fleet[m],
                                 batches[m % 4]);
    if (HasFatalFailure()) return;
  }

  // Every golden row served from the streamed history: bit-identical to the
  // local predictor on the source traces, 1e-12 against the fixture.
  const AvailabilityPredictor reference;
  std::vector<WireRequestItem> items;
  std::vector<Prediction> expected;
  for (const GoldenRow& row : rows) {
    items.push_back(WireRequestItem{
        .machine_key = row.machine,
        .request = {.target_day = row.target_day,
                    .window = {.start_of_day = row.window_start,
                               .length = row.window_length}}});
    expected.push_back(
        reference.predict(*by_id.at(row.machine), items.back().request));
  }
  const std::vector<Prediction> served = client.predict_batch(items);
  ASSERT_EQ(served.size(), rows.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_TRUE(same_bits(served[i].temporal_reliability,
                          expected[i].temporal_reliability))
        << rows[i].machine << " day " << rows[i].target_day << ": served "
        << served[i].temporal_reliability << " != local "
        << expected[i].temporal_reliability;
    EXPECT_LE(std::fabs(served[i].temporal_reliability - rows[i].tr), 1e-12);
    EXPECT_EQ(served[i].initial_state, expected[i].initial_state);
    EXPECT_EQ(served[i].training_days_used, expected[i].training_days_used);
  }

  server.stop();
  const ServerStats stats = server.stats();
  const std::uint64_t want_samples =
      static_cast<std::uint64_t>(fleet.size()) * 30 * per_day;
  EXPECT_EQ(stats.append_samples, want_samples);
  EXPECT_EQ(stats.append_duplicates, 0u);
  EXPECT_EQ(stats.days_closed, fleet.size() * 30);
  EXPECT_EQ(stats.days_retired, 0u);
}

TEST(IngestDifferential, RetentionWindowServesTheSlicedHistory) {
  // A 10-day retention server fed 30 days must end up holding exactly
  // trace.slice(20, 30) — calendar alignment included — and serve
  // predictions on it bit-identically to the local stack on that slice.
  const MachineTrace trace = golden_fleet().front();
  const auto service = std::make_shared<PredictionService>();
  ServerConfig server_config;
  server_config.ingest = true;
  server_config.ingest_retention_days = 10;
  PredictionServer server(server_config, service);
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);

  WireAppendRequest request = request_shell(trace);
  const std::size_t per_day = trace.samples_per_day();
  std::uint64_t retired = 0;
  for (std::int64_t d = 0; d < trace.day_count(); ++d) {
    request.first_sample_index = static_cast<std::uint64_t>(d) * per_day;
    request.samples.clear();
    for (std::size_t i = 0; i < per_day; ++i)
      request.samples.push_back(trace.at(d, i));
    retired += client.append_samples(request).days_retired;
  }
  EXPECT_EQ(retired, 20u);

  const MachineTrace sliced = trace.slice(20, 30);
  const std::shared_ptr<const MachineTrace> snap =
      server.store()->snapshot(trace.machine_id());
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->day_count(), 10);
  EXPECT_EQ(snap->calendar().epoch_day_of_week(),
            sliced.calendar().epoch_day_of_week());
  for (std::int64_t d = 0; d < 10; ++d)
    for (std::size_t i = 0; i < per_day; ++i)
      ASSERT_TRUE(snap->at(d, i) == sliced.at(d, i))
          << "day " << d << " sample " << i;

  const PredictionRequest predict{
      .target_day = 10,
      .window = {.start_of_day = 9 * kSecondsPerHour,
                 .length = 2 * kSecondsPerHour}};
  const Prediction served = client.predict(WireRequestItem{
      .machine_key = trace.machine_id(), .request = predict});
  const Prediction expected = AvailabilityPredictor().predict(sliced, predict);
  EXPECT_TRUE(same_bits(served.temporal_reliability,
                        expected.temporal_reliability));
  server.stop();
}

TEST(IngestDifferential, IngestDisabledServerRejectsAppendsFailFast) {
  PredictionServer server(ServerConfig{}, std::make_shared<PredictionService>());
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);
  WireAppendRequest request;
  request.machine_id = "m";
  request.sampling_period = 60;
  request.total_mem_mb = 512;
  request.samples.push_back(ResourceSample{});
  // Non-retryable rejection: one attempt, no retry budget burned.
  EXPECT_THROW(client.append_samples(request), RemoteError);
  EXPECT_EQ(client.stats().attempts, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
  server.stop();
}

TEST(IngestDifferential, SampleGapIsRejectedNotSilentlyAccepted) {
  const auto service = std::make_shared<PredictionService>();
  ServerConfig server_config;
  server_config.ingest = true;
  PredictionServer server(server_config, service);
  server.start();
  ClientConfig client_config;
  client_config.port = server.port();
  PredictionClient client(client_config);

  WireAppendRequest request;
  request.machine_id = "gappy";
  request.sampling_period = 60;
  request.total_mem_mb = 512;
  request.first_sample_index = 0;
  request.samples.assign(10, ResourceSample{});
  client.append_samples(request);
  request.first_sample_index = 11;  // skips index 10
  EXPECT_THROW(client.append_samples(request), RemoteError);
  // The frontier did not move.
  EXPECT_EQ(server.store()->next_index("gappy"), 10u);
  server.stop();
}

}  // namespace
}  // namespace fgcs::net
