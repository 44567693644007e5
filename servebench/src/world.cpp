#include "world.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/prediction_service.hpp"
#include "harness.hpp"
#include "util/error.hpp"
#include "workload/trace_generator.hpp"

namespace sb {

namespace fg = fgcs;
namespace fn = fgcs::net;

namespace {

const char* const kNodeIds[] = {"node-a", "node-b"};

fg::WorkloadParams params_for(fg::SimTime period) {
  fg::WorkloadParams params;
  params.sampling_period = period;
  return params;
}

/// Same trace under another id (the store keys machines by trace id).
fg::MachineTrace renamed(const fg::MachineTrace& source, const std::string& id,
                         std::int64_t first_day, std::int64_t last_day) {
  fg::MachineTrace out(id,
                       fg::Calendar(static_cast<int>(
                           (source.calendar().epoch_day_of_week() + first_day) % 7)),
                       source.sampling_period(), source.total_mem_mb());
  const std::size_t per_day = source.samples_per_day();
  for (std::int64_t d = first_day; d < last_day; ++d) {
    const fg::ResourceSample* begin = &source.at(d, 0);
    out.append_day(std::vector<fg::ResourceSample>(begin, begin + per_day));
  }
  return out;
}

class PlainReader final : public Reader {
 public:
  explicit PlainReader(fn::ClientConfig config) : client_(std::move(config)) {}
  std::vector<fg::Prediction> call(
      std::span<const fn::WireRequestItem> items) override {
    return client_.predict_batch(items);
  }
  ClientTally tally() override {
    const fn::ClientStats& s = client_.stats();
    return {.attempts = s.attempts, .retries = s.retries,
            .reconnects = s.reconnects};
  }

 private:
  fn::PredictionClient client_;
};

class ShardedReader final : public Reader {
 public:
  ShardedReader(fg::HashRing ring, fn::ClientConfig base)
      : client_(std::move(ring), fn::ShardedClientConfig{.base = std::move(base)}) {}
  std::vector<fg::Prediction> call(
      std::span<const fn::WireRequestItem> items) override {
    return client_.predict_batch(items);
  }
  ClientTally tally() override {
    ClientTally out;
    const fn::ShardedClientStats& s = client_.stats();
    out.probes = s.batches;
    out.sub_batches = s.sub_batches;
    out.wrong_shard_hops = s.wrong_shard_hops;
    for (const fg::RingMember& member : client_.ring().members()) {
      const fn::ClientStats& c = client_.client_for(member).stats();
      out.attempts += c.attempts;
      out.retries += c.retries;
      out.reconnects += c.reconnects;
    }
    return out;
  }

 private:
  fn::ShardedPredictionClient client_;
};

}  // namespace

ClientTally& ClientTally::operator+=(const ClientTally& other) {
  attempts += other.attempts;
  retries += other.retries;
  reconnects += other.reconnects;
  probes += other.probes;
  sub_batches += other.sub_batches;
  wrong_shard_hops += other.wrong_shard_hops;
  return *this;
}

// ---------------------------------------------------------------------------

IngestSource::IngestSource(std::uint64_t seed,
                           const std::vector<std::string>& ids) {
  const std::vector<fg::MachineTrace> generated = fg::generate_fleet(
      params_for(kIngestPeriod), seed, static_cast<int>(ids.size()),
      kIngestHistoryDays + kIngestPoolDays, "src");
  for (std::size_t m = 0; m < ids.size(); ++m) {
    history_.push_back(renamed(generated[m], ids[m], 0, kIngestHistoryDays));
    std::vector<std::vector<fg::ResourceSample>> pool;
    const std::size_t per_day = generated[m].samples_per_day();
    for (int d = 0; d < kIngestPoolDays; ++d) {
      const fg::ResourceSample* begin = &generated[m].at(kIngestHistoryDays + d, 0);
      pool.emplace_back(begin, begin + per_day);
    }
    pool_.push_back(std::move(pool));
  }
}

std::span<const fg::ResourceSample> IngestSource::day(std::size_t m,
                                                      std::int64_t day) const {
  const fg::MachineTrace& trace = history_[m];
  if (day < trace.day_count())
    return {&trace.at(day, 0), trace.samples_per_day()};
  return pool_[m][static_cast<std::size_t>((day - trace.day_count()) %
                                           kIngestPoolDays)];
}

fn::WireAppendRequest IngestSource::append(std::size_t m, std::uint64_t index,
                                           std::size_t count) const {
  const fg::MachineTrace& trace = history_[m];
  const std::size_t per_day = trace.samples_per_day();
  const std::span<const fg::ResourceSample> samples =
      day(m, static_cast<std::int64_t>(index / per_day));
  const std::size_t offset = index % per_day;
  fn::WireAppendRequest request;
  request.machine_id = trace.machine_id();
  request.epoch_day_of_week =
      static_cast<std::uint8_t>(trace.calendar().epoch_day_of_week());
  request.sampling_period = trace.sampling_period();
  request.total_mem_mb = static_cast<std::uint32_t>(trace.total_mem_mb());
  request.first_sample_index = index;
  request.samples.assign(samples.begin() + static_cast<std::ptrdiff_t>(offset),
                         samples.begin() + static_cast<std::ptrdiff_t>(offset + count));
  return request;
}

fg::MachineTrace IngestSource::expected(std::size_t m, std::int64_t first_day,
                                        std::int64_t day_count) const {
  const fg::MachineTrace& trace = history_[m];
  fg::MachineTrace out(
      trace.machine_id(),
      fg::Calendar(static_cast<int>(
          (trace.calendar().epoch_day_of_week() + first_day) % 7)),
      trace.sampling_period(), trace.total_mem_mb());
  for (std::int64_t d = first_day; d < first_day + day_count; ++d) {
    const std::span<const fg::ResourceSample> samples = day(m, d);
    out.append_day(std::vector<fg::ResourceSample>(samples.begin(), samples.end()));
  }
  return out;
}

std::vector<std::string> ingest_ids(const std::optional<fg::HashRing>& ring) {
  std::vector<std::string> ids;
  for (int k = 0; static_cast<int>(ids.size()) < kIngestMachines; ++k) {
    std::string id = "monitor-" + std::to_string(k);
    if (ring && ring->owner(id)->node_id != kNodeIds[0]) continue;
    ids.push_back(std::move(id));
  }
  return ids;
}

// ---------------------------------------------------------------------------

World::World(const Plan& plan, bool replay) : plan_(plan) {
  const Shape& shape = plan.shape;
  const Clock::time_point t0 = Clock::now();

  if (shape.servers > 1) {
    // Vnode placement hashes node ids only, so ownership is known before
    // the servers have ports.
    std::vector<fg::RingMember> members;
    for (int i = 0; i < shape.servers; ++i) members.push_back({.node_id = kNodeIds[i]});
    ring_.emplace(std::move(members));
  }
  if (shape.workload != Workload::kIngestMixed)
    fleet_ = fg::generate_fleet(params_for(shape.period), plan.fleet_seed,
                                shape.fleet_machines, shape.fleet_days, "host");
  ingest_ = IngestSource(plan.ingest_seed, ingest_ids(ring_));
  const Clock::time_point t1 = Clock::now();

  // Server start (counted only in the total).
  for (int i = 0; i < shape.servers; ++i) {
    fn::ServerConfig config;
    config.reactors = 1;
    config.ingest = true;
    config.ingest_retention_days = kIngestRetentionDays;
    if (ring_) config.node_id = kNodeIds[i];
    auto server = std::make_unique<fn::PredictionServer>(
        config, std::make_shared<fg::PredictionService>(service_config()));
    for (const fg::MachineTrace& trace : fleet_) server->add_trace(trace);
    if (i == 0)
      for (std::size_t m = 0; m < ingest_.size(); ++m)
        server->store()->adopt_trace(ingest_.history(m));
    server->start();
    servers_.push_back(std::move(server));
  }
  if (ring_) {
    std::vector<fg::RingMember> members;
    for (int i = 0; i < shape.servers; ++i)
      members.push_back({.node_id = kNodeIds[i],
                         .host = servers_[i]->host(),
                         .port = servers_[i]->port()});
    ring_.emplace(std::move(members));
    for (auto& server : servers_) server->set_ring(*ring_);
  }
  closed_cursors_.assign(plan.closed_ops.size(), 0);
  writer_.next.assign(
      ingest_.size(),
      static_cast<std::uint64_t>(kIngestHistoryDays) *
          ingest_.history(0).samples_per_day());
  if (shape.workload == Workload::kIngestMixed) {
    target_day_ = kIngestHistoryDays;
    for (std::size_t m = 0; m < ingest_.size(); ++m) keys_.push_back(ingest_.id(m));
  } else {
    target_day_ = shape.fleet_days;
    for (const fg::MachineTrace& trace : fleet_) keys_.push_back(trace.machine_id());
  }
  const Clock::time_point t2 = Clock::now();

  std::vector<const ReadOp*> checked;
  for (const auto* ops : {&plan.open_ops, &plan.closed_ops})
    for (const auto& sequence : *ops)
      for (const ReadOp& op : sequence)
        if (op.check) checked.push_back(&op);
  for (const ReadOp& op : plan.warm_ops)
    if (op.check) checked.push_back(&op);
  if (replay)
    for (const ReadOp& op : plan.replay_ops)
      if (op.check) checked.push_back(&op);
  compute_references(checked);
  const Clock::time_point t3 = Clock::now();

  if (shape.prefill_cache) servers_[0]->service()->predict_batch(prefill_requests());
  std::unique_ptr<Reader> reader = make_reader();
  std::vector<fn::WireRequestItem> items;
  for (const ReadOp& op : plan.warm_ops) {
    fill_items(op, items);
    const std::vector<fg::Prediction> results = reader->call(items);
    if (op.check) warm_mismatches_ += count_mismatches(op, results);
  }
  const Clock::time_point t4 = Clock::now();

  times_.fleet_gen_s = seconds_between(t0, t1);
  times_.reference_s = seconds_between(t2, t3);
  times_.warmup_s = seconds_between(t3, t4);
  times_.total_s = seconds_between(t0, t4);
}

fg::ServiceConfig World::service_config() const {
  fg::ServiceConfig config;
  if (plan_.shape.cache_capacity_per_shard > 0)
    config.capacity_per_shard = plan_.shape.cache_capacity_per_shard;
  return config;
}

std::vector<fg::BatchRequest> World::prefill_requests() const {
  // Cheap one-minute windows the plan never asks for, 1.5x the service's
  // LRU capacity, so the cache starts full and every miss of the run evicts.
  std::vector<fg::BatchRequest> batch;
  if (!plan_.shape.prefill_cache) return batch;
  const fg::ServiceConfig config = service_config();
  const std::size_t slots = config.shards * config.capacity_per_shard;
  const std::size_t per_machine = slots * 3 / 2 / fleet_.size() + 1;
  for (std::size_t s = 0; s < per_machine; ++s)
    for (const fg::MachineTrace& trace : fleet_)
      batch.push_back(
          {.trace = &trace,
           .request = {.target_day = target_day_,
                       .window = {.start_of_day = static_cast<fg::SimTime>(s) * 60,
                                  .length = 60}}});
  return batch;
}

void World::compute_references(const std::vector<const ReadOp*>& ops) {
  const std::size_t machines = keys_.size();
  references_.assign(machines * plan_.windows.size(), std::nullopt);
  const fg::AvailabilityPredictor predictor;
  for (const ReadOp* op : ops)
    for (const std::uint32_t m : op->machines) {
      std::optional<fg::Prediction>& slot = references_[op->window * machines + m];
      if (slot) continue;
      const Window& w = plan_.windows[op->window];
      slot = predictor.predict(
          fleet_[m], {.target_day = target_day_,
                      .window = {.start_of_day = w.start, .length = w.length}});
    }
}

void World::fill_items(const ReadOp& op,
                       std::vector<fn::WireRequestItem>& items) const {
  const Window& w = plan_.windows[op.window];
  items.resize(op.machines.size());
  for (std::size_t i = 0; i < op.machines.size(); ++i) {
    items[i].machine_key = keys_[op.machines[i]];
    items[i].request = {.target_day = target_day_,
                        .window = {.start_of_day = w.start, .length = w.length}};
  }
}

const fg::Prediction* World::reference(std::size_t m, std::size_t w) const {
  const std::size_t index = w * keys_.size() + m;
  if (index >= references_.size() || !references_[index]) return nullptr;
  return &*references_[index];
}

void World::perturb_reference(std::size_t m, std::size_t w) {
  std::optional<fg::Prediction>& slot = references_.at(w * keys_.size() + m);
  if (!slot) throw std::logic_error("no reference to perturb");
  slot->temporal_reliability = std::nextafter(slot->temporal_reliability, 0.0);
}

std::uint64_t World::count_mismatches(
    const ReadOp& op, std::span<const fg::Prediction> results) const {
  if (results.size() != op.machines.size()) return op.machines.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const fg::Prediction* ref = reference(op.machines[i], op.window);
    if (ref == nullptr || !same_prediction(results[i], *ref)) ++bad;
  }
  return bad;
}

fn::ClientConfig World::client_config(std::size_t server) const {
  fn::ClientConfig config;
  config.host = servers_[server]->host();
  config.port = servers_[server]->port();
  // The harness measures, it does not heal: one attempt per call, and a
  // failed call is counted, never retried at a later time.
  config.max_attempts = 1;
  return config;
}

std::unique_ptr<Reader> World::make_reader() const {
  if (ring_) return std::make_unique<ShardedReader>(*ring_, client_config(0));
  return std::make_unique<PlainReader>(client_config(0));
}

fn::ServerStats World::server_stats() const {
  fn::ServerStats total;
  for (const auto& server : servers_) total += server->stats();
  return total;
}

std::uint64_t World::verify_ingest(std::uint64_t& attempted,
                                   std::uint64_t& failed) {
  fg::TraceStore& store = *servers_[0]->store();
  const std::size_t per_day = ingest_.history(0).samples_per_day();
  std::uint64_t bad = 0;
  std::vector<fg::MachineTrace> expected;
  for (std::size_t m = 0; m < ingest_.size(); ++m) {
    const std::string& id = ingest_.id(m);
    const std::shared_ptr<const fg::MachineTrace> snapshot = store.snapshot(id);
    const std::int64_t first = store.first_day_id(id);
    const std::uint64_t closed_days = writer_.next[m] / per_day;
    if (snapshot == nullptr || store.next_index(id) != writer_.next[m] ||
        first + snapshot->day_count() != static_cast<std::int64_t>(closed_days)) {
      ++bad;
      expected.push_back(ingest_.history(m));
      continue;
    }
    expected.push_back(ingest_.expected(m, first, snapshot->day_count()));
    const fg::MachineTrace& want = expected.back();
    if (snapshot->calendar().epoch_day_of_week() !=
        want.calendar().epoch_day_of_week())
      ++bad;
    for (std::int64_t d = 0; d < want.day_count(); ++d)
      for (std::size_t i = 0; i < per_day; ++i)
        if (!(snapshot->at(d, i) == want.at(d, i))) {
          ++bad;
          d = want.day_count();
          break;
        }
  }

  // Fixed probe grid: every monitor, four windows, both initial states,
  // served over the wire from the store's snapshots.
  const fg::AvailabilityPredictor predictor;
  std::vector<fn::WireRequestItem> items;
  std::vector<fg::Prediction> references;
  for (std::size_t m = 0; m < ingest_.size(); ++m)
    for (const fg::SimTime start : {2, 8, 13, 19})
      for (const fg::State init : {fg::State::kS1, fg::State::kS2}) {
        const fg::PredictionRequest request{
            .target_day = expected[m].day_count(),
            .window = {.start_of_day = start * fg::kSecondsPerHour,
                       .length = fg::kSecondsPerHour},
            .initial_state = init};
        items.push_back({.machine_key = ingest_.id(m), .request = request});
        references.push_back(predictor.predict(expected[m], request));
      }
  fn::PredictionClient client(client_config(0));
  ++attempted;
  try {
    const std::vector<fg::Prediction> served = client.predict_batch(items);
    for (std::size_t i = 0; i < served.size(); ++i)
      if (!same_prediction(served[i], references[i])) ++bad;
  } catch (const fg::DataError&) {
    ++failed;
    ++bad;
  }
  return bad;
}

}  // namespace sb
