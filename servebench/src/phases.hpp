// Timed load phases over a World.
//
// Open loop: each connection sends its slice of the seeded schedule
// (Poisson, or evenly spaced where the workload says so), and a call's latency counts from its *scheduled* send, so a
// stall is charged to every request it delays; how late each send left is
// recorded too. Closed loop: each connection sends its next request as soon
// as the previous one returns, latency counts from the actual send, and the
// block runs for a fixed time. The writer (monitor ingest) streams one-hour
// appends round-robin over the monitors, either closed loop or paced by a
// seeded Poisson schedule (then timed from the scheduled send, like reads).
//
// A run interleaves its phases in short blocks (open, closed, writer, open,
// ...), so every metric samples the whole run rather than one stretch of it.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "world.hpp"

namespace sb {

enum class ReadMode { kNone, kOpen, kClosed };
enum class WriteMode { kNone, kPaced, kClosed };

/// One block's calls of one kind, completion-ordered.
struct Calls {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t units = 0;  ///< predictions served, or samples accepted
  ClientTally tally;
};

struct Block {
  Calls reads;
  Calls writes;
  std::vector<double> late_ms;  ///< open loop: actual minus scheduled send
  std::uint64_t offered = 0;    ///< open loop: scheduled reads
  double horizon_s = 0;         ///< open loop: schedule length
  double wall_s = 0;
  double cpu_s = 0;  ///< process user + system CPU over the block
};

struct BlockSpec {
  ReadMode reads = ReadMode::kNone;
  WriteMode writes = WriteMode::kNone;
  double seconds = 0;         ///< closed-loop reads and the writer
  double open_from = 0;       ///< open loop: schedule window [from, to)
  double open_to = 0;
  std::uint64_t write_seed = 0;  ///< paced writer schedule
};

/// Runs one block. An open-loop block ends when its schedule window is
/// done (a writer running beside it stops then); otherwise it runs for
/// `seconds`.
Block run_block(World& world, const BlockSpec& spec);

/// Quantile `q` of all calls' latencies, lowered to the highest quantile
/// that leaves ten calls beyond it when there are too few calls for `q`.
double latency_quantile(const std::vector<double>& latency_ms, double q);
/// The quantile latency_quantile reports for `n` calls.
double effective_quantile(std::size_t n, double q);

/// Keeps the pinned CPU from going idle. On a virtual machine a halted vCPU
/// waits for the hypervisor to schedule it again on every wake-up, which
/// put milliseconds of host noise into open-loop tails. This SCHED_IDLE
/// thread spins whenever nothing else is runnable (the in-process
/// equivalent of booting with idle=poll); any other thread preempts it at
/// once. Its CPU time is left out of process_cpu_seconds().
class IdleSpinner {
 public:
  IdleSpinner();
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Process user + system CPU seconds so far, without the idle spinner's.
double process_cpu_seconds();
/// Peak resident set of the process, MiB.
double peak_rss_mib();

}  // namespace sb
