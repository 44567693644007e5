#include "replay.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/curve_cache.hpp"
#include "net/wire.hpp"
#include "trace/trace_store.hpp"
#include "util/error.hpp"

namespace sb {

namespace fg = fgcs;
namespace fn = fgcs::net;

namespace {

/// Calls timed inside one span to resolve sub-microsecond costs.
constexpr std::uint32_t kCurveReads = 64;
constexpr std::uint32_t kWarmLookups = 16;

/// The replay order: reads then appends, or (ingest beside reads) a read
/// after every `appends_per_read` appends. Calls `read(op, index)` and
/// `append(index)` in that order.
template <typename Read, typename Append>
void for_each_step(const Plan& plan, Read&& read, Append&& append) {
  const std::size_t per_read = plan.replay_appends_per_read;
  std::size_t appends = 0;
  for (std::size_t r = 0; r < plan.replay_ops.size(); ++r) {
    for (std::size_t k = 0; k < per_read; ++k) append(appends++);
    read(plan.replay_ops[r], r);
  }
  while (appends < kReplayAppends) append(appends++);
}

/// One closed-loop append of the writer cursor, over `client`.
bool append_next(World& world, fn::PredictionClient& client,
                 ReplayResult& result, fn::WireAppendRequest& request) {
  WriterCursor& cursor = world.writer();
  const std::size_t m = cursor.machine;
  ++result.attempted;
  try {
    const fn::WireAppendAck ack = client.append_samples(request);
    cursor.next[m] += kAppendSamples;
    if (ack.accepted != kAppendSamples || ack.next_index != cursor.next[m])
      ++result.mismatches;
  } catch (const fg::DataError&) {
    ++result.failed;
    return false;
  }
  cursor.machine = (m + 1) % world.ingest().size();
  return true;
}

fn::WireAppendRequest next_request(World& world) {
  const WriterCursor& cursor = world.writer();
  return world.ingest().append(cursor.machine, cursor.next[cursor.machine],
                               kAppendSamples);
}

double ms_of(double seconds) { return seconds * 1e3; }

}  // namespace

ReplayResult replay(World& world, SpanLog& log, Metrics& metrics) {
  const Plan& plan = world.plan();
  const bool ingest_reads = plan.shape.workload == Workload::kIngestMixed;
  ReplayResult result;

  // The twin: an in-process service and store in the server's start state.
  // max_threads = 1 runs the batch inline, as the server's pool task does
  // with its single worker; the fan-out itself is part of the hop.
  fg::ServiceConfig twin_config = world.service_config();
  twin_config.max_threads = 1;
  fg::PredictionService twin(twin_config);
  fg::TraceStore store(
      fg::TraceStoreConfig{.retention_days = kIngestRetentionDays},
      [&twin](const fg::TraceStore::DayClosedEvent& event) {
        twin.invalidate(event.machine_id);
      });
  for (std::size_t m = 0; m < world.ingest().size(); ++m)
    store.adopt_trace(world.ingest().history(m));
  std::unordered_map<std::string, const fg::MachineTrace*> fleet;
  for (const fg::MachineTrace& trace : world.fleet())
    fleet.emplace(trace.machine_id(), &trace);
  std::vector<std::shared_ptr<const fg::MachineTrace>> pins;
  const auto resolve = [&](const std::string& key) -> const fg::MachineTrace* {
    if (const auto it = fleet.find(key); it != fleet.end()) return it->second;
    std::shared_ptr<const fg::MachineTrace> snapshot = store.snapshot(key);
    if (snapshot == nullptr) throw fg::DataError("replay: unknown key " + key);
    pins.push_back(std::move(snapshot));
    return pins.back().get();
  };
  const auto batch_of = [&](const std::vector<fn::WireRequestItem>& items) {
    std::vector<fg::BatchRequest> batch;
    for (const fn::WireRequestItem& item : items)
      batch.push_back({.trace = resolve(item.machine_key), .request = item.request});
    return batch;
  };
  std::vector<fn::WireRequestItem> items;
  if (plan.shape.prefill_cache) twin.predict_batch(world.prefill_requests());
  for (const ReadOp& op : plan.warm_ops) {
    world.fill_items(op, items);
    twin.predict_batch(batch_of(items));
  }
  pins.clear();

  std::unique_ptr<Reader> reader = world.make_reader();
  fn::PredictionClient writer(world.client_config(0));
  std::map<std::string, std::unique_ptr<fn::PredictionClient>> shard_clients;
  if (world.ring())
    for (const fg::RingMember& member : world.ring()->members()) {
      fn::ClientConfig config = world.client_config(0);
      config.host = member.host;
      config.port = member.port;
      shard_clients.emplace(member.node_id,
                            std::make_unique<fn::PredictionClient>(config));
    }

  // Per read: the in-process stage sum and the loopback, for the hop.
  std::vector<double> stage_sum_s, loopback_s, shard_sum_s, shard_max_s;
  std::vector<double> append_s, rollup_s;  // TraceStore::append, by outcome
  std::uint64_t response_bytes = 0;
  std::uint64_t response_predictions = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::shared_ptr<const fg::AbsorptionCurves>> modelled;
  volatile double sink = 0;
  std::uint64_t request_id = 0;
  bool writing = true;

  const auto read = [&](const ReadOp& op, std::size_t index) {
    const std::uint64_t id = request_id++;
    world.fill_items(op, items);
    ++result.attempted;
    const std::uint64_t misses_before = twin.stats().misses;
    std::vector<fg::BatchRequest> batch;
    std::vector<fg::Prediction> decoded;
    double stage_s = 0;
    const auto stages = [&] {
      const int root = log.open("request", id);
      std::vector<std::uint8_t> bytes;
      {
        ScopedSpan s(log, "encode_request", id, root);
        bytes = fn::encode_request(items);
      }
      std::vector<fn::WireRequestItem> received;
      {
        ScopedSpan s(log, "decode_request", id, root);
        received = fn::decode_request(bytes);
      }
      if (world.ring()) {
        ScopedSpan s(log, "HashRing::owner", id, root,
                     static_cast<std::uint32_t>(received.size()));
        for (const fn::WireRequestItem& item : received)
          if (world.ring()->owner(item.machine_key) == nullptr) ++result.mismatches;
      }
      {
        ScopedSpan s(log, "resolve_traces", id, root);
        batch = batch_of(received);
      }
      std::vector<fg::Prediction> results;
      {
        ScopedSpan s(log, "PredictionService::predict_batch", id, root);
        results = twin.predict_batch(batch);
      }
      std::vector<std::uint8_t> response;
      {
        ScopedSpan s(log, "encode_response", id, root);
        response = fn::encode_response(results);
      }
      {
        ScopedSpan s(log, "decode_response", id, root);
        decoded = fn::decode_response(response);
      }
      log.close(root);
      stage_s = log.duration_seconds(root);
      response_bytes += response.size();
      response_predictions += results.size();
    };
    // The same batch over loopback, to the server that saw the same
    // request sequence. Timed by its own clock reads, so a replay that
    // records no spans times it the same way.
    std::optional<std::vector<fg::Prediction>> served;
    double loop_s = 0;
    const auto loopback = [&] {
      const int span = log.open("loopback", id);
      const Clock::time_point sent = Clock::now();
      try {
        served = reader->call(items);
        loop_s = seconds_between(sent, Clock::now());
      } catch (const fg::DataError&) {
        // Left empty: counted as failed below.
      }
      log.close(span);
    };
    // The stages and the loopback read the same trace data, and whichever
    // runs second finds it in cache: the order alternates between requests.
    if (index % 2 == 0) {
      stages();
      loopback();
    } else {
      loopback();
      stages();
    }
    if (op.check) result.mismatches += world.count_mismatches(op, decoded);
    const bool missed = twin.stats().misses > misses_before;
    if (served) {
      stage_sum_s.push_back(stage_s);
      loopback_s.push_back(loop_s);
      result.loopback_ms.push_back(ms_of(loop_s));
      if (op.check) result.mismatches += world.count_mismatches(op, *served);
      for (std::size_t i = 0; i < served->size() && ingest_reads; ++i)
        if (!same_prediction((*served)[i], decoded[i])) ++result.mismatches;
    } else {
      ++result.failed;
    }

    // Ring workloads: each shard's sub-batch on its own, one after another
    // as the sharded client sends them.
    if (world.ring()) {
      std::map<std::string, std::vector<fn::WireRequestItem>> by_shard;
      for (const fn::WireRequestItem& item : items)
        by_shard[world.ring()->owner(item.machine_key)->node_id].push_back(item);
      const int rtt = log.open("shard_round_trips", id);
      double longest = 0;
      for (const auto& [node, sub] : by_shard) {
        const int call = log.open("shard_call", id, rtt);
        shard_clients.at(node)->predict_batch(sub);
        log.close(call);
        longest = std::max(longest, log.duration_seconds(call));
      }
      log.close(rtt);
      shard_sum_s.push_back(log.duration_seconds(rtt));
      shard_max_s.push_back(longest);
    }

    // What a miss costs on these inputs, a curve read, and a warm lookup.
    // Outside the stage sum: none of this is part of serving the request.
    const int inside = log.open("internals", id);
    const fg::MachineTrace& first = *batch.front().trace;
    const fg::PredictionRequest& request = batch.front().request;
    const std::size_t steps = request.window.steps(first.sampling_period());
    std::shared_ptr<const fg::AbsorptionCurves> curves;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto key = std::make_pair(op.machines[i], op.window);
      const auto it = modelled.find(key);
      const bool fresh = ingest_reads ? (missed && i == 0) : it == modelled.end();
      if (!fresh) {
        if (i == 0 && it != modelled.end()) curves = it->second;
        continue;
      }
      const fg::MachineTrace& trace = *batch[i].trace;
      const fg::TimeWindow& window = batch[i].request.window;
      std::optional<fg::SmpModel> model;
      {
        ScopedSpan s(log, "SmpEstimator::estimate", id, inside);
        model.emplace(twin.estimator().estimate(trace, world.target_day(), window));
      }
      std::shared_ptr<const fg::AbsorptionCurves> built;
      {
        ScopedSpan s(log, "AbsorptionCurves::build", id, inside);
        built = std::make_shared<const fg::AbsorptionCurves>(
            *model, window.steps(trace.sampling_period()));
      }
      if (!ingest_reads) modelled.emplace(key, built);
      if (i == 0) curves = built;
    }
    if (curves != nullptr) {
      ScopedSpan s(log, "AbsorptionCurves::result_at", id, inside, kCurveReads);
      double acc = 0;
      for (std::uint32_t k = 0; k < kCurveReads; ++k)
        acc += curves->result_at(k % 2 ? fg::State::kS2 : fg::State::kS1,
                                 steps - k % steps)
                   .temporal_reliability;
      sink = sink + acc;
    }
    {
      ScopedSpan s(log, "PredictionService::predict", id, inside, kWarmLookups);
      double acc = 0;
      for (std::uint32_t k = 0; k < kWarmLookups; ++k)
        acc += twin.predict(first, request).temporal_reliability;
      sink = sink + acc;
    }
    log.close(inside);
    pins.clear();
  };

  const auto append = [&](std::size_t) {
    if (!writing) return;
    const std::uint64_t id = request_id++;
    fn::WireAppendRequest request = next_request(world);
    const int root = log.open("append", id);
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan s(log, "encode_append", id, root);
      bytes = fn::encode_append(request);
    }
    fn::WireAppendRequest received;
    {
      ScopedSpan s(log, "decode_append", id, root);
      received = fn::decode_append(bytes);
    }
    const int stored = log.open("TraceStore::append", id, root);
    const fg::AppendResult appended = store.append(
        fg::MachineSpec{.machine_id = received.machine_id,
                        .epoch_day_of_week = received.epoch_day_of_week,
                        .sampling_period = received.sampling_period,
                        .total_mem_mb = static_cast<int>(received.total_mem_mb)},
        received.first_sample_index, received.samples);
    log.close(stored);
    (appended.days_closed > 0 ? rollup_s : append_s)
        .push_back(log.duration_seconds(stored));
    log.close(root);
    const int loopback = log.open("append_loopback", id);
    writing = append_next(world, writer, result, request);
    log.close(loopback);
  };

  for_each_step(plan, read, append);
  (void)sink;

  std::vector<double> hop_us;
  for (std::size_t i = 0; i < std::min(stage_sum_s.size(), loopback_s.size()); ++i)
    hop_us.push_back((loopback_s[i] - stage_sum_s[i]) * 1e6);

  const auto us = [&](const char* name) { return log.median_self(name) * 1e6; };
  metrics.add("wire.req_encode_us", us("encode_request"), "us");
  metrics.add("wire.req_decode_us", us("decode_request"), "us");
  metrics.add("wire.resp_encode_us", us("encode_response"), "us");
  metrics.add("wire.resp_decode_us", us("decode_response"), "us");
  metrics.add("wire.append_encode_us", us("encode_append"), "us");
  metrics.add("wire.resp_bytes_per_pred",
              response_predictions == 0
                  ? 0.0
                  : static_cast<double>(response_bytes) /
                        static_cast<double>(response_predictions),
              "B");
  metrics.add("server.hop_us", median(hop_us), "us");
  metrics.add("ring.owner_ns", log.median_self("HashRing::owner") * 1e9, "ns");
  metrics.add("ring.shard_rtt_sum_us", median(shard_sum_s) * 1e6, "us");
  metrics.add("ring.shard_rtt_max_us", median(shard_max_s) * 1e6, "us");
  metrics.add("service.trace_resolve_us", us("resolve_traces"), "us");
  metrics.add("service.lookup_ns",
              log.median_self("PredictionService::predict") * 1e9, "ns");
  metrics.add("service.batch_us", us("PredictionService::predict_batch"), "us");
  metrics.add("estimator.estimate_ms",
              log.median_self("SmpEstimator::estimate") * 1e3, "ms");
  metrics.add("curves.build_ms", log.median_self("AbsorptionCurves::build") * 1e3,
              "ms");
  metrics.add("curves.read_ns",
              log.median_self("AbsorptionCurves::result_at") * 1e9, "ns");
  metrics.add("store.append_us", median(append_s) * 1e6, "us");
  metrics.add("store.rollup_ms", median(rollup_s) * 1e3, "ms");
  metrics.add("trace.stage_sum_us", median(stage_sum_s) * 1e6, "us");
  metrics.add("trace.spans", static_cast<double>(log.size()), "count");
  return result;
}

}  // namespace sb
