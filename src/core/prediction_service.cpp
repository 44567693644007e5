#include "core/prediction_service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

#include "core/sparse_solver.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"
#include "util/trace_span.hpp"

namespace fgcs {

namespace {

/// The Prediction an entry answers: one O(1) curve read.
Prediction read_curves(const AbsorptionCurves& curves, State majority,
                       std::size_t training_days,
                       const PredictionRequest& request, std::size_t steps) {
  Prediction prediction;
  prediction.steps = steps;
  prediction.training_days_used = training_days;
  prediction.initial_state = request.initial_state.value_or(majority);
  const SparseTrSolver::Result result =
      curves.result_at(prediction.initial_state, steps);
  prediction.temporal_reliability = result.temporal_reliability;
  prediction.p_absorb = result.p_absorb;
  return prediction;
}

}  // namespace

std::size_t PredictionService::KeyHash::operator()(const Key& key) const {
  std::size_t h = static_cast<std::size_t>(key.history_id);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(key.target_day));
  mix(static_cast<std::size_t>(key.window_start));
  mix(static_cast<std::size_t>(key.window_length));
  return h;
}

PredictionService::PredictionService(ServiceConfig config)
    : config_(config),
      estimator_(config.estimator),
      shard_count_(std::max<std::size_t>(1, config.shards)),
      shards_(std::make_unique<Shard[]>(shard_count_)) {
  FGCS_REQUIRE_MSG(config.capacity_per_shard >= 1,
                   "cache capacity must be at least one entry per shard");
  MetricsRegistry& registry = MetricsRegistry::global();
  metrics_attachments_.push_back(
      registry.attach("service.lookups.total", lookups_));
  metrics_attachments_.push_back(registry.attach("service.hits.total", hits_));
  metrics_attachments_.push_back(
      registry.attach("service.misses.total", misses_));
  metrics_attachments_.push_back(
      registry.attach("service.evictions.total", evictions_));
  metrics_attachments_.push_back(
      registry.attach("service.invalidations.total", invalidations_));
  metrics_attachments_.push_back(
      registry.attach("service.stale_drops.total", stale_drops_));
  metrics_attachments_.push_back(
      registry.attach("service.batches.total", batches_));
  metrics_attachments_.push_back(
      registry.attach("service.batch_requests.total", batch_requests_));
  metrics_attachments_.push_back(
      registry.attach("service.max_batch", max_batch_));
  metrics_attachments_.push_back(
      registry.attach("service.estimate.seconds", estimate_hist_));
  metrics_attachments_.push_back(
      registry.attach("service.solve.seconds", solve_hist_));
  metrics_attachments_.push_back(
      registry.attach("service.batch.seconds", batch_hist_));
}

PredictionService::Shard& PredictionService::shard_for(const Key& key) const {
  return shards_[KeyHash{}(key) % shard_count_];
}

Prediction PredictionService::predict(const MachineTrace& trace,
                                      const PredictionRequest& request) {
  validate(request.window);
  FGCS_REQUIRE_MSG(request.target_day >= 0 &&
                       request.target_day <= trace.day_count(),
                   "target day beyond recorded history + 1");
  FGCS_REQUIRE_MSG(!request.initial_state || is_available(*request.initial_state),
                   "initial state must be S1 or S2");
  lookups_.add();

  if (Failpoints::enabled()) {
    // Chaos hooks, evaluated only while something is armed: hard estimation
    // failure, injected estimation latency, and a forced invalidation racing
    // the lookup (it may evict what this call is about to read; it can never
    // change what the key answers).
    if (FGCS_FAILPOINT("service.estimate.fail"))
      throw DataError("injected: prediction service estimation failure");
    const double delay = FGCS_FAILPOINT_LATENCY("service.estimate.slow");
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    if (FGCS_FAILPOINT("service.cache.invalidate"))
      invalidate(trace.machine_id());
  }

  const Key key{trace.history_id(), request.target_day,
                request.window.start_of_day, request.window.length};
  const std::size_t steps = request.window.steps(trace.sampling_period());
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      const Entry& entry = it->second->second;
      hits_.add();
      return read_curves(entry.curves, entry.majority_initial,
                         entry.training_days, request, steps);
    }
  }

  // Miss: estimate the model and tabulate both initial states up to the
  // window horizon (the curves constructor runs the entry's only
  // validate()). Both run outside the shard lock.
  TraceSpan estimate_span("service.estimate", &estimate_hist_);
  const SmpFit fit =
      estimator_.fit(trace, request.target_day, request.window);
  estimate_span.finish();
  TraceSpan solve_span("service.solve", &solve_hist_);
  Entry entry{.curves = AbsorptionCurves(fit.model, steps),
              .majority_initial = fit.majority_initial,
              .training_days = fit.training_days,
              .machine_id = trace.machine_id()};
  solve_span.finish();
  misses_.add();
  const Prediction prediction = read_curves(
      entry.curves, entry.majority_initial, entry.training_days, request, steps);

  const std::lock_guard<std::mutex> lock(shard.mutex);
  // A concurrent miss on the same key may have inserted first; its entry
  // answers identically, so keep it.
  if (shard.index.find(key) != shard.index.end()) return prediction;
  shard.lru.emplace_front(key, std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  while (shard.index.size() > config_.capacity_per_shard) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.add();
  }
  return prediction;
}

template <typename Result>
std::vector<Result> PredictionService::run_batch(
    std::span<const BatchRequest> requests) {
  TraceSpan span("service.batch", &batch_hist_);
  batches_.add();
  batch_requests_.add(requests.size());
  max_batch_.update_max(static_cast<double>(requests.size()));
  for (const BatchRequest& request : requests)
    FGCS_REQUIRE_MSG(request.trace != nullptr,
                     "batch request carries a null trace");

  std::vector<Result> predictions(requests.size());
  parallel_for(
      requests.size(),
      [&](std::size_t i) {
        if constexpr (std::is_same_v<Result, Prediction>) {
          predictions[i] = predict(*requests[i].trace, requests[i].request);
        } else {
          try {
            predictions[i] = predict(*requests[i].trace, requests[i].request);
          } catch (const DataError&) {
            // This machine stays nullopt; the rest of the batch proceeds.
          }
        }
      },
      config_.max_threads);
  return predictions;
}

std::vector<Prediction> PredictionService::predict_batch(
    std::span<const BatchRequest> requests) {
  return run_batch<Prediction>(requests);
}

std::vector<std::optional<Prediction>> PredictionService::try_predict_batch(
    std::span<const BatchRequest> requests) {
  return run_batch<std::optional<Prediction>>(requests);
}

void PredictionService::invalidate(const std::string& machine_id) {
  invalidations_.add();
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->second.machine_id == machine_id) {
        shard.index.erase(it->first);
        it = shard.lru.erase(it);
        stale_drops_.add();
      } else {
        ++it;
      }
    }
  }
}

std::size_t PredictionService::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].index.size();
  }
  return total;
}

void PredictionService::clear() {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].lru.clear();
    shards_[s].index.clear();
  }
}

ServiceStats PredictionService::stats() const {
  ServiceStats stats;
  stats.lookups = lookups_.value();
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.evictions = evictions_.value();
  stats.invalidations = invalidations_.value();
  stats.stale_drops = stale_drops_.value();
  stats.batches = batches_.value();
  stats.batch_requests = batch_requests_.value();
  stats.max_batch = static_cast<std::uint64_t>(max_batch_.value());
  stats.estimate_seconds = estimate_hist_.sum();
  stats.solve_seconds = solve_hist_.sum();
  stats.pool = ThreadPool::default_pool().stats();
  return stats;
}

}  // namespace fgcs
