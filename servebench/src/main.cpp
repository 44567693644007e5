// servebench — the serving benchmark harness.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--span-dir DIR] [--git-sha SHA] [--perturb-reference]
//   servebench --plan-only --workload NAME --seed N --seconds S
//
// --trace 0 is the timed run: five set-ups (setup_s is their median), then
// the workload's phases on the last one, printing every end-to-end metric.
// --trace 1 is the traced run: the same phases for the per-layer counters,
// then the replay requests without and with span recording, alternately,
// each on a fresh set-up, printing every per-layer metric. Both end with one JSON
// result line; any correctness mismatch makes it "correct": false and the
// exit code 1. --perturb-reference moves one reference the timed run checks
// by one ulp, so that run must fail: the gate's self-test.
//
// The process pins itself to one CPU and sets FGCS_THREADS=1 before the
// library's thread pool starts; an idle-priority spinner keeps that CPU from
// halting between requests. The run context line records all of it.
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "phases.hpp"
#include "plan.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"
#include "world.hpp"

namespace {

using namespace sb;
namespace fg = fgcs;

constexpr int kSetups = 5;
constexpr int kRounds = 10;
/// Length of each unmeasured warm-up block, as a share of --seconds.
constexpr double kWarmupShare = 0.05;
constexpr int kReplayPairs = 5;
constexpr unsigned kPinnedCpus = 1;
constexpr const char* kPoolThreads = "1";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string span_dir;
  std::string git_sha = "unknown";
  bool plan_only = false;
  bool perturb = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = std::stoi(value());
    else if (flag == "--span-dir") args.span_dir = value();
    else if (flag == "--git-sha") args.git_sha = value();
    else if (flag == "--plan-only") args.plan_only = true;
    else if (flag == "--perturb-reference") args.perturb = true;
    else return false;
  }
  return args.seconds > 0 && (args.trace == 0 || args.trace == 1);
}

/// Pins the process to the last `kPinnedCpus` CPUs it may run on and
/// returns the set as text. Threads created later inherit the mask.
std::string pin_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "unpinned";
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() > kPinnedCpus)
    cpus.erase(cpus.begin(), cpus.end() - kPinnedCpus);
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string text;
  for (const int c : cpus) {
    CPU_SET(c, &pinned);
    if (!text.empty()) text += ',';
    text += std::to_string(c);
  }
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) return "unpinned";
  return text;
}

void print_context(const Args& args, const Plan& plan, const std::string& cpus) {
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %.17g, \"trace\": %d, \"plan_digest\": \"%016" PRIx64
      "\", \"cpus\": \"%s\", \"pool_threads\": %u, \"nproc\": %ld, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\"}}\n",
      workload_name(plan.shape.workload), plan.seed, plan.seconds, args.trace,
      plan.digest, cpus.c_str(), fg::ThreadPool::default_pool().worker_count(),
      sysconf(_SC_NPROCESSORS_ONLN), SERVEBENCH_COMPILER, SERVEBENCH_BUILD_TYPE,
      json_escape(args.git_sha).c_str());
}

/// The blocks of one run, by kind, in run order.
struct Run {
  std::vector<Block> open;    ///< open-loop reads (paced writer beside them
                              ///< on ingest_mixed)
  std::vector<Block> closed;  ///< closed-loop reads
  std::vector<Block> writer;  ///< closed-loop writer alone
  std::vector<Block> warmup;  ///< checked and counted, but not measured
  std::uint64_t verify_mismatches = 0;
  std::uint64_t verify_attempted = 0;
  std::uint64_t verify_failed = 0;

  template <typename F>
  void for_each(F&& f) const {
    for (const auto* kind : {&warmup, &open, &closed, &writer})
      for (const Block& b : *kind) f(b);
  }
  std::uint64_t attempted() const {
    std::uint64_t n = verify_attempted;
    for_each([&](const Block& b) { n += b.reads.attempted + b.writes.attempted; });
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = verify_failed;
    for_each([&](const Block& b) { n += b.reads.failed + b.writes.failed; });
    return n;
  }
  std::uint64_t mismatches() const {
    std::uint64_t n = verify_mismatches;
    for_each([&](const Block& b) { n += b.reads.mismatches + b.writes.mismatches; });
    return n;
  }
  /// Latencies of the reads probe latency comes from: open loop where
  /// there is one.
  std::vector<double> probe_ms() const {
    std::vector<double> all;
    for (const Block& b : open.empty() ? closed : open)
      all.insert(all.end(), b.reads.latency_ms.begin(), b.reads.latency_ms.end());
    return all;
  }
  /// Latencies of the appends append latency comes from: beside the reads
  /// where the workload writes beside its reads, else the writer alone.
  std::vector<double> append_ms(bool beside_reads) const {
    std::vector<double> all;
    for (const Block& b : beside_reads ? open : writer)
      all.insert(all.end(), b.writes.latency_ms.begin(), b.writes.latency_ms.end());
    return all;
  }
};

/// Runs a warm-up (a closed-loop read block, then a writer block), then
/// kRounds rounds of (open block, closed block, writer block): each kind
/// gets its share of --seconds, spread over the whole run.
Run run_phases(World& world) {
  const Plan& plan = world.plan();
  const Shape& shape = plan.shape;
  const double s = plan.seconds;
  const WriteMode beside =
      shape.ingest_beside_reads ? WriteMode::kPaced : WriteMode::kNone;
  const double horizon = shape.open_share * s;
  Run run;
  // The first misses and day closes of a run allocate memory that later
  // ones reuse. A long-running server pays that once, so a short warm-up
  // goes first.
  run.warmup.push_back(run_block(
      world, {.reads = ReadMode::kClosed, .writes = beside,
              .seconds = kWarmupShare * s,
              .write_seed = plan.writer_seed + 2 * kRounds}));
  run.warmup.push_back(run_block(
      world, {.writes = WriteMode::kClosed, .seconds = kWarmupShare * s}));
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t seed = plan.writer_seed + 2 * static_cast<std::uint64_t>(r);
    if (shape.open_connections > 0)
      run.open.push_back(run_block(
          world, {.reads = ReadMode::kOpen, .writes = beside,
                  .open_from = horizon * r / kRounds,
                  .open_to = horizon * (r + 1) / kRounds, .write_seed = seed}));
    run.closed.push_back(run_block(
        world, {.reads = ReadMode::kClosed, .writes = beside,
                .seconds = shape.closed_share * s / kRounds,
                .write_seed = seed + 1}));
    run.writer.push_back(run_block(
        world, {.writes = WriteMode::kClosed,
                .seconds = shape.ingest_share * s / kRounds}));
  }
  run.verify_mismatches =
      world.verify_ingest(run.verify_attempted, run.verify_failed);
  return run;
}

/// Median over blocks of reads (predictions/s) or writes (samples/s) per
/// second.
double block_rate(const std::vector<Block>& blocks, bool writes) {
  std::vector<double> rates;
  for (const Block& b : blocks)
    if (b.wall_s > 0)
      rates.push_back(static_cast<double>(writes ? b.writes.units : b.reads.units) /
                      b.wall_s);
  return median(std::move(rates));
}

/// The end-to-end metrics, in BENCHMARK.json order.
void end_to_end(const Run& run, const Shape& shape, double setup_s, Metrics& out) {
  const std::vector<double> probes = run.probe_ms();
  const std::vector<double> appends = run.append_ms(shape.ingest_beside_reads);
  out.add("probe_p50_ms", latency_quantile(probes, 0.5), "ms");
  out.add("probe_p99_ms", latency_quantile(probes, 0.99), "ms");
  out.add("capacity_preds_s", block_rate(run.closed, false), "1/s");
  out.add("ingest_samples_s", block_rate(run.writer, true), "1/s");
  out.add("append_p50_ms", latency_quantile(appends, 0.5), "ms");
  out.add("append_p99_ms", latency_quantile(appends, 0.99), "ms");
  const double attempted = static_cast<double>(run.attempted());
  out.add("served_frac",
          attempted == 0
              ? 0.0
              : (attempted - static_cast<double>(run.failed())) / attempted,
          "frac");
  out.add("rss_peak_mib", peak_rss_mib(), "MiB");
  double read_cpu = 0;
  double predictions = 0;
  for (const auto* kind : {&run.open, &run.closed})
    for (const Block& b : *kind) {
      read_cpu += b.cpu_s;
      predictions += static_cast<double>(b.reads.units);
    }
  out.add("cpu_ms_per_kpred",
          predictions == 0 ? 0.0 : read_cpu * 1e6 / predictions, "ms");
  out.add("setup_s", setup_s, "s");
}

struct Counters {
  fg::net::ServerStats server;
  fg::ServiceStats service;
  fg::PoolStats pool;
};

Counters snapshot(World& world) {
  Counters c;
  c.server = world.server_stats();
  for (std::size_t i = 0; i < world.server_count(); ++i) {
    const fg::ServiceStats s = world.server(i).service()->stats();
    c.service.lookups += s.lookups;
    c.service.hits += s.hits;
    c.service.partial_hits += s.partial_hits;
    c.service.misses += s.misses;
    c.service.evictions += s.evictions;
    c.service.invalidations += s.invalidations;
    c.service.stale_drops += s.stale_drops;
    c.service.batches += s.batches;
  }
  c.pool = fg::ThreadPool::default_pool().stats();
  return c;
}

/// Counters, generator and client figures from the untraced phases.
void phase_layers(const Run& run, const Counters& before, const Counters& after,
                  Metrics& out) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const std::size_t probes = run.probe_ms().size();
  ClientTally tally;
  run.for_each([&](const Block& b) {
    tally += b.reads.tally;
    tally += b.writes.tally;
  });
  // Generator: how late open-loop sends left, and achieved over offered
  // rate (completions per second of the blocks against scheduled sends per
  // second of the schedule).
  std::vector<double> late;
  double offered = 0, horizon = 0, completed = 0, wall = 0;
  for (const Block& b : run.open) {
    late.insert(late.end(), b.late_ms.begin(), b.late_ms.end());
    offered += static_cast<double>(b.offered);
    horizon += b.horizon_s;
    completed += static_cast<double>(b.reads.attempted - b.reads.failed);
    wall += b.wall_s;
  }
  const double offered_rate = horizon > 0 ? offered / horizon : 0;

  out.add("server.frames", delta(before.server.frames, after.server.frames), "count");
  out.add("server.errors", delta(before.server.errors, after.server.errors), "count");
  out.add("client.attempts", static_cast<double>(tally.attempts), "count");
  out.add("client.retries", static_cast<double>(tally.retries), "count");
  out.add("client.reconnects", static_cast<double>(tally.reconnects), "count");
  out.add("gen.late_p99_ms", latency_quantile(late, 0.99), "ms");
  out.add("gen.achieved_frac",
          offered_rate == 0 || wall == 0 ? 0.0 : completed / wall / offered_rate,
          "frac");
  out.add("gen.offered_ops", offered, "count");
  out.add("probe.samples", static_cast<double>(probes), "count");
  out.add("probe.tail_q", effective_quantile(probes, 0.99), "frac");
  out.add("ring.probes", static_cast<double>(tally.probes), "count");
  out.add("ring.sub_batches_per_probe",
          tally.probes == 0 ? 0.0
                            : static_cast<double>(tally.sub_batches) /
                                  static_cast<double>(tally.probes),
          "count");
  out.add("ring.wrong_shard_hops", static_cast<double>(tally.wrong_shard_hops),
          "count");
  const double lookups = delta(before.service.lookups, after.service.lookups);
  out.add("service.lookups", lookups, "count");
  out.add("service.hit_ratio",
          lookups == 0 ? 0.0 : delta(before.service.hits, after.service.hits) / lookups,
          "frac");
  out.add("service.partial_hits",
          delta(before.service.partial_hits, after.service.partial_hits), "count");
  out.add("service.misses", delta(before.service.misses, after.service.misses),
          "count");
  out.add("service.evictions",
          delta(before.service.evictions, after.service.evictions), "count");
  out.add("service.invalidations",
          delta(before.service.invalidations, after.service.invalidations), "count");
  out.add("service.stale_drops",
          delta(before.service.stale_drops, after.service.stale_drops), "count");
  const double batches = delta(before.service.batches, after.service.batches);
  out.add("service.batches", batches, "count");
  out.add("store.days_closed",
          delta(before.server.days_closed, after.server.days_closed), "count");
  out.add("store.days_retired",
          delta(before.server.days_retired, after.server.days_retired), "count");
  const double tasks =
      delta(before.pool.tasks_submitted, after.pool.tasks_submitted);
  out.add("pool.tasks_per_batch", batches == 0 ? 0.0 : tasks / batches, "count");
  out.add("pool.steals", delta(before.pool.steals, after.pool.steals), "count");
  out.add("pool.queue_hwm", static_cast<double>(after.pool.queue_depth_high_water),
          "count");
  const double pool_wall = after.pool.wall_seconds - before.pool.wall_seconds;
  out.add("pool.utilization",
          pool_wall <= 0 || after.pool.workers == 0
              ? 0.0
              : (after.pool.busy_seconds - before.pool.busy_seconds) /
                    (pool_wall * after.pool.workers),
          "frac");
  out.add("pool.workers", static_cast<double>(after.pool.workers), "count");
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

Outcome timed_run(const Plan& plan, bool perturb) {
  Outcome outcome;
  std::vector<double> setups;
  std::uint64_t warm_mismatches = 0;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = std::make_unique<World>(plan, false);
    setups.push_back(world->times().total_s);
    warm_mismatches += world->warm_mismatches();
  }
  if (perturb) {
    const ReadOp& op = plan.closed_ops.front().front();
    world->perturb_reference(op.machines.front(), op.window);
  }
  const Run run = run_phases(*world);
  outcome.correct = warm_mismatches == 0 && run.mismatches() == 0;
  outcome.attempted = run.attempted();
  outcome.failed = run.failed();
  end_to_end(run, plan.shape, median(setups), outcome.metrics);
  return outcome;
}

Outcome traced_run(const Plan& plan, const std::string& span_path) {
  Outcome outcome;
  std::vector<double> fleet_gen, warmup, reference;
  const auto record = [&](const World& w) {
    fleet_gen.push_back(w.times().fleet_gen_s);
    warmup.push_back(w.times().warmup_s);
    reference.push_back(w.times().reference_s);
    outcome.correct = outcome.correct && w.warm_mismatches() == 0;
  };

  Metrics phase_metrics;
  {
    World world(plan, false);
    record(world);
    const Counters before = snapshot(world);
    const Run run = run_phases(world);
    const Counters after = snapshot(world);
    phase_layers(run, before, after, phase_metrics);
    outcome.correct = outcome.correct && run.mismatches() == 0;
    outcome.attempted += run.attempted();
    outcome.failed += run.failed();
  }
  // The same replay without spans, then with them, each on a fresh
  // set-up: both make the same calls, so their loopback p50s differ by the
  // cost of recording spans. One replay lasts under a second and the
  // host's speed drifts over seconds, so the pair runs kReplayPairs times
  // and each side reports the median of its p50s. The first traced
  // replay's spans and figures are the ones kept.
  Metrics replay_metrics;
  SpanLog log(Clock::now());
  std::vector<double> untraced_p50, traced_p50;
  for (int pair = 0; pair < kReplayPairs; ++pair)
    for (const bool recording : {false, true}) {
      World world(plan, true);
      record(world);
      const bool kept = recording && pair == 0;
      SpanLog other(Clock::now(), recording);
      Metrics unused;
      const ReplayResult r =
          replay(world, kept ? log : other, kept ? replay_metrics : unused);
      outcome.attempted += r.attempted;
      outcome.failed += r.failed;
      outcome.correct = outcome.correct && r.mismatches == 0;
      (recording ? traced_p50 : untraced_p50).push_back(median(r.loopback_ms));
    }
  if (!span_path.empty() && !log.dump(span_path))
    std::fprintf(stderr, "servebench: cannot write spans to %s\n", span_path.c_str());

  for (const Metric& m : replay_metrics.items())
    outcome.metrics.add(m.name, m.value, m.unit);
  for (const Metric& m : phase_metrics.items())
    outcome.metrics.add(m.name, m.value, m.unit);
  outcome.metrics.add("setup.fleet_gen_s", median(fleet_gen), "s");
  outcome.metrics.add("setup.warmup_s", median(warmup), "s");
  outcome.metrics.add("setup.reference_s", median(reference), "s");
  const double traced = median(traced_p50);
  const double untraced = median(untraced_p50);
  outcome.metrics.add("trace.probe_p50_ms", traced, "ms");
  outcome.metrics.add("trace.untraced_p50_ms", untraced, "ms");
  outcome.metrics.add("trace.overhead_ms", traced - untraced, "ms");
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: servebench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--span-dir DIR] [--git-sha SHA] "
                   "[--perturb-reference]\n"
                   "       servebench --plan-only --workload NAME --seed N "
                   "--seconds S\n");
      return 2;
    }
    // Fixed run context: before anything starts the library's pool.
    const std::string cpus = pin_cpus();
    setenv("FGCS_THREADS", kPoolThreads, 1);
    // Open-loop sends wake from sleep_until; a 1 ns timer slack keeps the
    // wake-up close to the schedule instead of the default 50 us late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const IdleSpinner spinner;
    Workload workload;
    if (!parse_workload(args.workload, workload)) {
      std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    const Plan plan = make_plan(workload, args.seed, args.seconds);
    if (args.plan_only) {
      std::printf("%016" PRIx64 "\n", plan.digest);
      return 0;
    }
    print_context(args, plan, cpus);
    const std::string span_path =
        args.span_dir.empty()
            ? std::string()
            : args.span_dir + "/" + args.workload + "-seed" +
                  std::to_string(args.seed) + ".jsonl";
    const Outcome outcome =
        args.trace == 1 ? traced_run(plan, span_path) : timed_run(plan, args.perturb);
    if (!outcome.correct)
      std::fprintf(stderr, "servebench: served predictions differ from the "
                           "reference\n");
    print_result(outcome.correct, outcome.attempted, outcome.failed,
                 outcome.metrics);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "servebench: %s\n", error.what());
    return 1;
  }
}
