// Fleet-scale prediction front-end: request batching plus memoized Q/H
// estimation (the "serve many clients" layer above AvailabilityPredictor).
//
// A scheduler placing one job probes every machine in the fleet with the
// same time window, and probes again minutes later with the same one; the
// TR is a pure function of the machine's history, the target day, the
// window and the initial state. PredictionService exploits that:
// predictions fan out over the parallel_for thread pool, and each estimated
// model's AbsorptionCurves table lives in a sharded LRU cache. A warm query
// never re-enters the Eq. 3 recursion: both initial states' TR are an O(1)
// read off the curves (curve_cache.hpp), so the only per-solve work the
// service ever does is the one table build on a cache miss.
//
// Cache key: (history_id, target_day, window_start, window_length). The
// history id names the trace's exact content (machine_trace.hpp: every
// append_day, slice or load draws a fresh one), so the training days — and
// with them the model — are a pure function of the key. Nothing is
// re-checked on a hit, and two different histories can never share an
// entry, whatever machine id they carry (DESIGN.md §6).
//
// Thread-safety contract: all public methods may be called concurrently.
// Traces passed in must outlive the call and must not be mutated during it.
// A hit is bit-identical to the cold call that populated the entry, and to
// AvailabilityPredictor::predict on the same trace and request.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/curve_cache.hpp"
#include "core/estimator.hpp"
#include "core/predictor.hpp"
#include "core/semi_markov.hpp"
#include "core/states.hpp"
#include "trace/machine_trace.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fgcs {

struct ServiceConfig {
  EstimatorConfig estimator{};
  /// Cache shards; more shards = less lock contention under large batches.
  std::size_t shards = 16;
  /// LRU capacity per shard, in memoized (machine, window) models.
  std::size_t capacity_per_shard = 512;
  /// Concurrency cap for predict_batch on the persistent thread pool
  /// (0 = the pool's full worker count; 1 = serial). No threads are spawned
  /// per batch either way — the cap bounds how many pool workers join in.
  unsigned max_threads = 0;
};

/// One element of a predict_batch call. The trace must outlive the call.
struct BatchRequest {
  const MachineTrace* trace = nullptr;
  PredictionRequest request{};
};

/// Monotonic observability counters; snapshot via PredictionService::stats().
/// Invariant: lookups == hits + misses.
///
/// This is a thin view over the service's metrics instruments — the same
/// values every instance also reports into MetricsRegistry::global() under
/// the `service.*` names (DESIGN.md §8), where multiple instances sum.
struct ServiceStats {
  std::uint64_t lookups = 0;        ///< predict() calls (incl. batched ones)
  std::uint64_t hits = 0;           ///< answered by a curve read
  /// Retired: the cache no longer splits hits by initial state. Always 0;
  /// kept so readers of the old field still compile.
  std::uint64_t partial_hits = 0;
  std::uint64_t misses = 0;         ///< estimated and tabulated from scratch
  std::uint64_t evictions = 0;      ///< LRU capacity evictions
  std::uint64_t invalidations = 0;  ///< invalidate() calls
  std::uint64_t stale_drops = 0;    ///< entries dropped by invalidate()
  std::uint64_t batches = 0;        ///< predict_batch() calls
  std::uint64_t batch_requests = 0; ///< requests across all batches
  std::uint64_t max_batch = 0;      ///< largest batch seen
  double estimate_seconds = 0.0;    ///< total wall time in Q/H estimation
  double solve_seconds = 0.0;       ///< total wall time in curve builds
  /// Snapshot of the process-wide thread pool batch fan-out runs on (shared
  /// with every other parallel_for user in the process, e.g. fleet
  /// generation — it observes the substrate, not this service alone).
  PoolStats pool{};
};

class PredictionService {
 public:
  explicit PredictionService(ServiceConfig config = {});

  const SmpEstimator& estimator() const { return estimator_; }
  const ServiceConfig& config() const { return config_; }

  /// Single prediction through the cache. Bit-identical to
  /// AvailabilityPredictor::predict with the same EstimatorConfig.
  Prediction predict(const MachineTrace& trace,
                     const PredictionRequest& request);

  /// Batch fan-out over the thread pool; results align with `requests`.
  /// Every request must carry a non-null trace.
  std::vector<Prediction> predict_batch(std::span<const BatchRequest> requests);

  /// Per-request-fallible batch: same fan-out, but a request whose
  /// estimation fails (DataError — thin history, failpoint outage) yields
  /// nullopt instead of aborting the whole batch. The fleet-probe primitive
  /// for schedulers that skip unpredictable machines rather than re-probing
  /// serially.
  std::vector<std::optional<Prediction>> try_predict_batch(
      std::span<const BatchRequest> requests);

  /// Eviction hint: drops every entry cached for `machine_id` (counted in
  /// stale_drops). Never needed for correctness — a grown or replaced trace
  /// has a new history_id() and misses on its own — it only frees the dead
  /// entries before LRU pressure would.
  void invalidate(const std::string& machine_id);

  /// Entries currently cached, across all shards.
  std::size_t size() const;

  /// Drops every cache entry.
  void clear();

  ServiceStats stats() const;

 private:
  struct Key {
    std::uint64_t history_id = 0;
    std::int64_t target_day = 0;
    SimTime window_start = 0;
    SimTime window_length = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  /// One tabulated model: its absorption curves (validated and built ONCE,
  /// when the entry was inserted) plus what a Prediction needs beside them.
  /// `machine_id` serves invalidate() only.
  struct Entry {
    AbsorptionCurves curves;
    State majority_initial = State::kS1;
    std::size_t training_days = 0;
    std::string machine_id;
  };

  struct Shard {
    std::mutex mutex;
    /// Front = most recently used; index points into the list.
    std::list<std::pair<Key, Entry>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, Entry>>::iterator,
                       KeyHash> index;
  };

  Shard& shard_for(const Key& key) const;

  /// The one batch body behind predict_batch (Result = Prediction: a
  /// DataError aborts the batch) and try_predict_batch (Result =
  /// std::optional<Prediction>: a DataError leaves that slot nullopt).
  template <typename Result>
  std::vector<Result> run_batch(std::span<const BatchRequest> requests);

  ServiceConfig config_;
  SmpEstimator estimator_;
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;

  // Per-instance instruments: the single storage behind both ServiceStats
  // (exact per-service snapshots, unpolluted by other instances) and the
  // global `service.*` exposition (attachments below fold them in by name).
  // The hot hit path therefore still costs exactly two relaxed atomic adds.
  Counter lookups_;
  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter invalidations_;
  Counter stale_drops_;
  Counter batches_;
  Counter batch_requests_;
  Gauge max_batch_;
  Histogram estimate_hist_{Histogram::default_latency_bounds()};
  Histogram solve_hist_{Histogram::default_latency_bounds()};
  Histogram batch_hist_{Histogram::default_latency_bounds()};
  // Declared last: detaches from the global registry before the instruments
  // above are destroyed.
  std::vector<MetricsAttachment> metrics_attachments_;
};

}  // namespace fgcs
