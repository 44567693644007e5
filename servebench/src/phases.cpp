#include "phases.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "harness.hpp"
#include "util/error.hpp"

namespace sb {

namespace fg = fgcs;
namespace fn = fgcs::net;

namespace {

/// CPU clock of the running idle spinner, if any.
std::atomic<bool> spinner_running{false};
clockid_t spinner_clock{};

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point at_offset(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// One thread's calls: (completion offset, latency) pairs plus counters.
struct Thread {
  std::vector<std::pair<double, double>> done;
  Calls calls;
  std::vector<double> late_ms;
  std::uint64_t offered = 0;
};

/// Merges threads' calls into completion order.
Calls merge(std::vector<Thread>& threads) {
  std::vector<std::pair<double, double>> all;
  Calls out;
  for (Thread& t : threads) {
    all.insert(all.end(), t.done.begin(), t.done.end());
    out.attempted += t.calls.attempted;
    out.failed += t.calls.failed;
    out.mismatches += t.calls.mismatches;
    out.units += t.calls.units;
    out.tally += t.calls.tally;
  }
  std::sort(all.begin(), all.end());
  out.latency_ms.reserve(all.size());
  for (const auto& [t, latency] : all) out.latency_ms.push_back(latency);
  return out;
}

void read_loop(World& world, const BlockSpec& spec, unsigned connection,
               Clock::time_point start, Clock::time_point deadline,
               Thread& out) {
  const Plan& plan = world.plan();
  std::unique_ptr<Reader> reader = world.make_reader();
  std::vector<fn::WireRequestItem> items;
  const auto serve = [&](const ReadOp& op, Clock::time_point from) {
    ++out.calls.attempted;
    try {
      const std::vector<fg::Prediction> results = reader->call(items);
      const Clock::time_point done = Clock::now();
      out.done.emplace_back(seconds_between(start, done), ms_between(from, done));
      out.calls.units += results.size();
      if (op.check) out.calls.mismatches += world.count_mismatches(op, results);
    } catch (const fg::DataError&) {
      ++out.calls.failed;
    }
  };
  if (spec.reads == ReadMode::kOpen) {
    for (const ReadOp& op : plan.open_ops[connection]) {
      if (op.at < spec.open_from || op.at >= spec.open_to) continue;
      ++out.offered;
      world.fill_items(op, items);
      const Clock::time_point scheduled = at_offset(start, op.at - spec.open_from);
      std::this_thread::sleep_until(scheduled);
      out.late_ms.push_back(ms_between(scheduled, Clock::now()));
      serve(op, scheduled);
    }
  } else {
    // Each block resumes the connection's sequence where the last stopped.
    std::size_t& cursor = world.closed_cursor(connection);
    const std::vector<ReadOp>& ops = plan.closed_ops[connection];
    while (Clock::now() < deadline) {
      const ReadOp& op = ops[cursor++ % ops.size()];
      world.fill_items(op, items);
      serve(op, Clock::now());
    }
  }
  out.calls.tally = reader->tally();
}

void write_loop(World& world, const BlockSpec& spec, Clock::time_point start,
                Clock::time_point deadline, const std::atomic<bool>& stop,
                Thread& out) {
  const IngestSource& source = world.ingest();
  WriterCursor& cursor = world.writer();
  fn::PredictionClient client(world.client_config(0));
  const bool paced = spec.writes == WriteMode::kPaced;
  Rng schedule(spec.write_seed);
  const double mean_gap = paced ? 1.0 / world.plan().shape.writer_rate : 0;
  double next_at = paced ? schedule.exponential(mean_gap) : 0;
  while (!stop.load(std::memory_order_acquire)) {
    Clock::time_point from = Clock::now();
    if (paced) {
      from = at_offset(start, next_at);
      next_at += schedule.exponential(mean_gap);
      if (from >= deadline) break;
      std::this_thread::sleep_until(from);
    } else if (from >= deadline) {
      break;
    }
    const std::size_t m = cursor.machine;
    const fn::WireAppendRequest request =
        source.append(m, cursor.next[m], kAppendSamples);
    ++out.calls.attempted;
    try {
      const fn::WireAppendAck ack = client.append_samples(request);
      const Clock::time_point done = Clock::now();
      out.done.emplace_back(seconds_between(start, done), ms_between(from, done));
      out.calls.units += ack.accepted;
      cursor.next[m] += kAppendSamples;
      if (ack.accepted != kAppendSamples || ack.next_index != cursor.next[m])
        ++out.calls.mismatches;
    } catch (const fg::DataError&) {
      // The store may or may not hold the batch now; the cursor can no
      // longer be trusted, so the writer stops (verify_ingest will flag it).
      ++out.calls.failed;
      break;
    }
    cursor.machine = (m + 1) % source.size();
  }
  const fn::ClientStats& s = client.stats();
  out.calls.tally = {.attempts = s.attempts, .retries = s.retries,
                     .reconnects = s.reconnects};
}

}  // namespace

Block run_block(World& world, const BlockSpec& spec) {
  const Shape& shape = world.plan().shape;
  const unsigned connections = spec.reads == ReadMode::kOpen ? shape.open_connections
                               : spec.reads == ReadMode::kClosed
                                   ? shape.closed_connections
                                   : 0;
  std::vector<Thread> reads(connections);
  std::vector<Thread> writes(1);
  std::atomic<bool> stop{false};
  const double cpu0 = process_cpu_seconds();
  // A short lead so every thread is parked before the first send is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const double length =
      spec.reads == ReadMode::kOpen ? spec.open_to - spec.open_from : spec.seconds;
  const Clock::time_point deadline = at_offset(start, length);

  std::thread write_thread;
  if (spec.writes != WriteMode::kNone)
    write_thread = std::thread([&] {
      std::this_thread::sleep_until(start);
      write_loop(world, spec, start, deadline, stop, writes[0]);
    });
  std::vector<std::thread> read_threads;
  for (unsigned c = 0; c < connections; ++c)
    read_threads.emplace_back([&, c] {
      std::this_thread::sleep_until(start);
      read_loop(world, spec, c, start, deadline, reads[c]);
    });
  for (std::thread& thread : read_threads) thread.join();
  if (spec.reads == ReadMode::kOpen) stop.store(true, std::memory_order_release);
  if (write_thread.joinable()) write_thread.join();

  Block block;
  block.wall_s = seconds_between(start, Clock::now());
  block.cpu_s = process_cpu_seconds() - cpu0;
  block.horizon_s = spec.reads == ReadMode::kOpen ? length : 0;
  for (const Thread& t : reads) {
    block.late_ms.insert(block.late_ms.end(), t.late_ms.begin(), t.late_ms.end());
    block.offered += t.offered;
  }
  block.reads = merge(reads);
  block.writes = merge(writes);
  return block;
}

double effective_quantile(std::size_t n, double q) {
  return std::min(q, tail_quantile(n));
}

double latency_quantile(const std::vector<double>& latency_ms, double q) {
  return quantile(latency_ms, effective_quantile(latency_ms.size(), q));
}

IdleSpinner::IdleSpinner()
    : thread_([this] {
        const sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      }) {
  if (pthread_getcpuclockid(thread_.native_handle(), &spinner_clock) == 0)
    spinner_running.store(true);
}

IdleSpinner::~IdleSpinner() {
  spinner_running.store(false);
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  double spun = 0;
  timespec ts{};
  if (spinner_running.load() && clock_gettime(spinner_clock, &ts) == 0)
    spun = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  return seconds(usage.ru_utime) + seconds(usage.ru_stime) - spun;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace sb
