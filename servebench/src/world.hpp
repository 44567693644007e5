// One set-up of a workload — synthetic fleet, live servers on loopback,
// warm cache and reference predictions — and the load phases run on it.
//
// Everything here goes through the library's public API: servers are
// net::PredictionServer on 127.0.0.1 ephemeral ports, reads go through
// net::PredictionClient (or ShardedPredictionClient over a HashRing),
// writes through PredictionClient::append_samples, and references come from
// an in-process AvailabilityPredictor computed before any timed phase.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/prediction_service.hpp"
#include "core/predictor.hpp"
#include "ishare/hash_ring.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "plan.hpp"
#include "trace/machine_trace.hpp"

namespace sb {

struct SetupTimes {
  double fleet_gen_s = 0;
  double warmup_s = 0;
  double reference_s = 0;
  double total_s = 0;
};

/// Client-side counters summed over a phase's connections.
struct ClientTally {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t probes = 0;         ///< sharded predict_batch calls
  std::uint64_t sub_batches = 0;    ///< per-shard wire batches
  std::uint64_t wrong_shard_hops = 0;

  ClientTally& operator+=(const ClientTally& other);
};

/// One connection's read calls: a PredictionClient, or a sharded client
/// over the world's ring.
class Reader {
 public:
  virtual ~Reader() = default;
  virtual std::vector<fgcs::Prediction> call(
      std::span<const fgcs::net::WireRequestItem> items) = 0;
  virtual ClientTally tally() = 0;
};

/// The monitors every server ingests: 14 days of adopted history, then
/// days streamed from a seven-day pool in one-hour appends.
class IngestSource {
 public:
  IngestSource() = default;
  IngestSource(std::uint64_t seed, const std::vector<std::string>& ids);

  std::size_t size() const { return history_.size(); }
  const std::string& id(std::size_t m) const { return history_[m].machine_id(); }
  const fgcs::MachineTrace& history(std::size_t m) const { return history_[m]; }
  /// The samples of absolute day `day` of machine `m` as streamed.
  std::span<const fgcs::ResourceSample> day(std::size_t m,
                                            std::int64_t day) const;
  /// The append request covering `count` samples from absolute `index`.
  fgcs::net::WireAppendRequest append(std::size_t m, std::uint64_t index,
                                      std::size_t count) const;
  /// The trace the store must hold after retiring `first_day` days with
  /// `day_count` days retained.
  fgcs::MachineTrace expected(std::size_t m, std::int64_t first_day,
                              std::int64_t day_count) const;

 private:
  std::vector<fgcs::MachineTrace> history_;
  std::vector<std::vector<std::vector<fgcs::ResourceSample>>> pool_;
};

/// Closed-loop append cursor: round-robin over the monitors, one hour per
/// append, contiguous per machine.
struct WriterCursor {
  std::vector<std::uint64_t> next;
  std::size_t machine = 0;
};

class World {
 public:
  /// Builds and times one set-up; `replay` adds the references of the
  /// traced replay requests. Throws on any set-up failure.
  World(const Plan& plan, bool replay);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const Plan& plan() const { return plan_; }
  const SetupTimes& times() const { return times_; }
  std::int64_t target_day() const { return target_day_; }
  const std::vector<fgcs::MachineTrace>& fleet() const { return fleet_; }
  const IngestSource& ingest() const { return ingest_; }
  const std::optional<fgcs::HashRing>& ring() const { return ring_; }
  fgcs::net::PredictionServer& server(std::size_t i) { return *servers_[i]; }
  std::size_t server_count() const { return servers_.size(); }
  /// Mismatches found while warming up (every warm result is checked).
  std::uint64_t warm_mismatches() const { return warm_mismatches_; }

  void fill_items(const ReadOp& op,
                  std::vector<fgcs::net::WireRequestItem>& items) const;
  /// The reference for (read machine, window), or nullptr when none was
  /// computed (unchecked cold-sweep keys, ingest reads).
  const fgcs::Prediction* reference(std::size_t m, std::size_t w) const;
  /// Moves the reference for (read machine, window) one ulp: an error
  /// planted for the self-test, which the correctness gate must catch.
  void perturb_reference(std::size_t m, std::size_t w);
  /// Number of `results` that differ from their references (op must be a
  /// checked op).
  std::uint64_t count_mismatches(const ReadOp& op,
                                 std::span<const fgcs::Prediction> results) const;

  /// The servers' service configuration (the library default, but for the
  /// workload's cache size).
  fgcs::ServiceConfig service_config() const;
  /// The in-process cache prefill a cold sweep starts from (empty for
  /// other workloads).
  std::vector<fgcs::BatchRequest> prefill_requests() const;

  std::unique_ptr<Reader> make_reader() const;
  fgcs::net::ClientConfig client_config(std::size_t server) const;
  fgcs::net::ServerStats server_stats() const;

  WriterCursor& writer() { return writer_; }
  /// Position of closed-loop connection `c` in its request sequence.
  std::size_t& closed_cursor(std::size_t c) { return closed_cursors_[c]; }
  /// Checks the ingest store against the source (snapshot days, calendar
  /// alignment, next index) and a probe grid served over the wire against
  /// references built from the source. Returns the mismatch count; call
  /// only with no writer running.
  std::uint64_t verify_ingest(std::uint64_t& attempted, std::uint64_t& failed);

 private:
  void compute_references(const std::vector<const ReadOp*>& ops);

  const Plan& plan_;
  std::int64_t target_day_ = 0;
  std::vector<fgcs::MachineTrace> fleet_;
  std::vector<std::string> keys_;
  IngestSource ingest_;
  std::optional<fgcs::HashRing> ring_;
  std::vector<std::unique_ptr<fgcs::net::PredictionServer>> servers_;
  std::vector<std::optional<fgcs::Prediction>> references_;  // [w * M + m]
  WriterCursor writer_;
  std::vector<std::size_t> closed_cursors_;
  std::uint64_t warm_mismatches_ = 0;
  SetupTimes times_;
};

/// Ids for the streamed monitors. With a ring they are chosen among ids
/// node 0 owns, so server 0 (which holds the store) answers their reads.
std::vector<std::string> ingest_ids(const std::optional<fgcs::HashRing>& ring);

}  // namespace sb
