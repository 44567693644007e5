// Workload shapes and their seeded request plans.
//
// A plan is a pure function of (workload, seed, seconds): the windows, the
// open-loop schedule, the closed-loop request sequences, warm-up and
// traced-replay requests, and the seeds of the synthetic fleets. Its digest
// (an FNV-1a fold over every field) is printed with each run, so two runs
// can be shown to have replayed the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace sb {

enum class Workload { kWarmPoint, kColdSweep, kIngestMixed, kFleetProbe };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload workload);

/// Fixed parameters of one workload. Shares are fractions of --seconds.
struct Shape {
  Workload workload = Workload::kWarmPoint;
  // Read fleet (ingest_mixed reads the streamed machines instead).
  int fleet_machines = 0;
  int fleet_days = 0;
  fgcs::SimTime period = 60;
  int servers = 1;  ///< 2 = two ring shards (fleet_probe)
  // Read traffic.
  unsigned open_connections = 0;  ///< 0 = no open-loop phase
  double open_rate = 0;           ///< ops/s across the open connections
  bool open_poisson = true;       ///< false: sends evenly spaced at the rate
  unsigned closed_connections = 1;
  double open_share = 0;
  double closed_share = 0;
  double ingest_share = 0;        ///< writer-only phase (closed loop)
  double writer_rate = 0;         ///< appends/s paced beside the reads
  std::size_t batch_min = 1;
  std::size_t batch_max = 1;      ///< batch_max == 0: every machine per op
  double zipf_theta = 0;          ///< 0 = uniform keys
  std::size_t windows = 4;
  fgcs::SimTime window_min = fgcs::kSecondsPerHour;
  fgcs::SimTime window_max = 4 * fgcs::kSecondsPerHour;
  std::size_t checked_ops = 0;    ///< 0 = check every op against a reference
  bool ingest_beside_reads = false;  ///< writer runs during the read phases
  bool prefill_cache = false;     ///< fill the service LRU before the run
  std::size_t cache_capacity_per_shard = 0;  ///< 0 = the service default
  std::size_t closed_sequence = 4096;  ///< closed-loop ops, cycled
  std::size_t replay_reads = 0;
};

Shape shape_of(Workload workload);

/// The streamed monitors every workload's server ingests: their count,
/// history, retention and append size.
inline constexpr int kIngestMachines = 8;
inline constexpr int kIngestHistoryDays = 14;
inline constexpr int kIngestPoolDays = 7;  ///< streamed days cycle through these
inline constexpr std::int64_t kIngestRetentionDays = 14;
inline constexpr fgcs::SimTime kIngestPeriod = 6;
inline constexpr std::size_t kAppendSamples = 600;  ///< one hour at 6 s
inline constexpr std::size_t kReplayAppends = 2400;

struct Window {
  fgcs::SimTime start = 0;
  fgcs::SimTime length = 0;
};

struct ReadOp {
  double at = 0;  ///< open loop: seconds after the phase starts
  std::uint32_t window = 0;
  std::vector<std::uint32_t> machines;
  bool check = false;  ///< compare every result with its reference
};

struct Plan {
  Shape shape;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::uint64_t fleet_seed = 0;
  std::uint64_t ingest_seed = 0;
  std::uint64_t writer_seed = 0;  ///< paced-writer schedules, per block
  std::vector<Window> windows;
  std::vector<std::vector<ReadOp>> open_ops;    ///< per connection
  std::vector<std::vector<ReadOp>> closed_ops;  ///< per connection, cycled
  std::vector<ReadOp> warm_ops;
  std::vector<ReadOp> replay_ops;
  /// Ingest replay: one read is interleaved after every this many appends
  /// (0 = reads first, then the appends).
  std::size_t replay_appends_per_read = 0;
  std::uint64_t digest = 0;
};

Plan make_plan(Workload workload, std::uint64_t seed, double seconds);

}  // namespace sb
