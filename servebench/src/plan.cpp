#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "harness.hpp"

namespace sb {

namespace {

constexpr fgcs::SimTime kMinute = 60;

/// Zipf(θ) CDF over ranks 1..n.
std::vector<double> zipf_cdf(std::size_t n, double theta) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf[k] = total;
  }
  for (double& value : cdf) value /= total;
  cdf.back() = 1.0;
  return cdf;
}

/// Distinct windows whose lengths are stratified over [min, max] (so every
/// seed draws the same spread of solve sizes) at seeded start times; all on
/// a one-minute grid and inside one day.
std::vector<Window> make_windows(const Shape& shape, Rng& rng) {
  std::vector<Window> windows;
  std::set<std::pair<fgcs::SimTime, fgcs::SimTime>> seen;
  const auto span = static_cast<double>(shape.window_max - shape.window_min);
  while (windows.size() < shape.windows) {
    const double stratum =
        (static_cast<double>(windows.size()) + rng.uniform()) /
        static_cast<double>(shape.windows);
    const fgcs::SimTime length =
        shape.window_min +
        static_cast<fgcs::SimTime>(stratum * span / kMinute) * kMinute;
    const fgcs::SimTime latest = (fgcs::kSecondsPerDay - length) / kMinute;
    const fgcs::SimTime start = rng.range(0, latest) * kMinute;
    if (!seen.insert({start, length}).second) continue;
    windows.push_back({start, length});
  }
  // Shuffle so window index carries no length order.
  for (std::size_t i = windows.size(); i > 1; --i)
    std::swap(windows[i - 1], windows[rng.next() % i]);
  return windows;
}

/// Draws the ops of one request stream. Windows are dealt from a reshuffled
/// deck of all windows, so every run of `windows` consecutive ops asks for
/// each window once: the mix of solve sizes, which sets the cost of a cold
/// request, is the same in every stretch of the stream and for every seed.
class OpDrawer {
 public:
  OpDrawer(const Shape& shape, std::size_t machines, std::size_t windows)
      : shape_(shape), machines_(machines), windows_(windows) {
    if (shape.zipf_theta > 0) cdf_ = zipf_cdf(machines, shape.zipf_theta);
  }

  ReadOp draw(Rng& rng) {
    ReadOp op;
    if (deck_.empty()) {
      for (std::size_t w = 0; w < windows_; ++w)
        deck_.push_back(static_cast<std::uint32_t>(w));
      for (std::size_t i = deck_.size(); i > 1; --i)
        std::swap(deck_[i - 1], deck_[rng.next() % i]);
    }
    op.window = deck_.back();
    deck_.pop_back();
    if (shape_.batch_max == 0) {
      // Whole-fleet probe in a seeded order.
      op.machines.resize(machines_);
      for (std::size_t i = 0; i < machines_; ++i)
        op.machines[i] = static_cast<std::uint32_t>(i);
      for (std::size_t i = machines_; i > 1; --i)
        std::swap(op.machines[i - 1], op.machines[rng.next() % i]);
      return op;
    }
    const auto batch = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(shape_.batch_min),
                  static_cast<std::int64_t>(shape_.batch_max)));
    for (std::size_t b = 0; b < batch; ++b) op.machines.push_back(machine(rng));
    return op;
  }

 private:
  std::uint32_t machine(Rng& rng) const {
    if (cdf_.empty())
      return static_cast<std::uint32_t>(rng.next() % machines_);
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(machines_) - 1));
  }

  const Shape& shape_;
  std::size_t machines_;
  std::size_t windows_;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> deck_;
};

void fold(Digest& digest, const ReadOp& op) {
  digest.add_double(op.at);
  digest.add(op.window);
  digest.add(op.check ? 1 : 0);
  digest.add(op.machines.size());
  for (const std::uint32_t m : op.machines) digest.add(m);
}

/// Marks `count` seeded-random ops of `ops` (among the first `prefix`) as
/// checked.
void mark_checked(std::vector<ReadOp>& ops, std::size_t count,
                  std::size_t prefix, Rng& rng) {
  const std::size_t pool = std::min(prefix, ops.size());
  for (std::size_t k = 0; k < count && pool > 0; ++k)
    ops[rng.next() % pool].check = true;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kWarmPoint, Workload::kColdSweep,
                           Workload::kIngestMixed, Workload::kFleetProbe}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kWarmPoint: return "warm_point";
    case Workload::kColdSweep: return "cold_sweep";
    case Workload::kIngestMixed: return "ingest_mixed";
    case Workload::kFleetProbe: return "fleet_probe";
  }
  return "?";
}

Shape shape_of(Workload workload) {
  Shape s;
  s.workload = workload;
  switch (workload) {
    case Workload::kWarmPoint:
      // Lab fleet at a 60 s period, Zipf-hot keys, four hot windows: after
      // warm-up every lookup hits, so the cost is framing, reactor, pool
      // hop and cache lookup.
      s.fleet_machines = 32;
      s.fleet_days = 15;
      s.period = 60;
      s.open_connections = 2;
      s.open_rate = 1000;
      s.closed_connections = 2;
      s.open_share = 0.45;
      s.closed_share = 0.40;
      s.ingest_share = 0.15;
      s.batch_min = 1;
      s.batch_max = 4;
      s.zipf_theta = 0.99;
      s.windows = 4;
      s.replay_reads = 2000;
      break;
    case Workload::kColdSweep:
      // The paper's native 6 s period, uniform keys over hundreds of
      // distinct 1-4 h windows, and a full LRU: almost every request is an
      // estimate plus a curve build, and every insert evicts.
      s.fleet_machines = 16;
      s.fleet_days = 15;
      s.period = 6;
      // Sends are evenly spaced: at 60/s the gap (16.7 ms) exceeds the
      // costliest miss, so open-loop latency is the cost of a miss plus
      // whatever stall delays it, not the luck of Poisson collisions.
      s.open_connections = 2;
      s.open_rate = 60;
      s.open_poisson = false;
      s.closed_connections = 1;
      s.open_share = 0.60;
      s.closed_share = 0.30;
      s.ingest_share = 0.10;
      s.batch_min = 1;
      s.batch_max = 1;
      s.windows = 400;
      s.checked_ops = 16;
      s.prefill_cache = true;
      // A 512-model LRU: far below the key space, and small enough that the
      // cached curves of 1-4 h windows stay within ~100 MiB.
      s.cache_capacity_per_shard = 32;
      s.replay_reads = 150;
      break;
    case Workload::kIngestMixed:
      // A writer streams the monitors while a reader asks for "tomorrow" on
      // the same machines: every day close invalidates. Beside the reads the
      // writer is paced (on one CPU a closed-loop writer would leave the
      // reads timing the kernel scheduler); alone it runs closed loop.
      s.open_connections = 1;
      s.open_rate = 1000;
      s.closed_connections = 1;
      s.open_share = 0.45;
      s.closed_share = 0.35;
      s.ingest_share = 0.20;
      s.writer_rate = 500;
      s.batch_min = 1;
      s.batch_max = 4;
      s.windows = 4;
      s.window_min = 30 * kMinute;
      s.window_max = fgcs::kSecondsPerHour;
      s.ingest_beside_reads = true;
      s.replay_reads = 300;
      break;
    case Workload::kFleetProbe:
      // The placement probe: every machine of a 256-machine fleet per call,
      // routed over a two-node ring.
      s.fleet_machines = 256;
      s.fleet_days = 15;
      s.period = 60;
      s.servers = 2;
      s.closed_connections = 1;
      s.closed_share = 0.85;
      s.ingest_share = 0.15;
      s.batch_max = 0;
      s.windows = 4;
      s.closed_sequence = 64;
      s.replay_reads = 300;
      break;
  }
  return s;
}

Plan make_plan(Workload workload, std::uint64_t seed, double seconds) {
  Plan plan;
  plan.shape = shape_of(workload);
  plan.seed = seed;
  plan.seconds = seconds;
  const Shape& shape = plan.shape;

  // Independent streams per purpose, so resizing one phase never shifts
  // the inputs of another.
  Rng root(seed ^ (static_cast<std::uint64_t>(workload) << 56));
  plan.fleet_seed = root.next();
  plan.ingest_seed = root.next();
  plan.writer_seed = root.next();
  Rng window_rng(root.next());
  Rng open_rng(root.next());
  Rng closed_rng(root.next());
  Rng replay_rng(root.next());
  Rng check_rng(root.next());

  plan.windows = make_windows(shape, window_rng);
  // ingest_mixed reads the streamed monitors; the others their fleet.
  const auto machines = static_cast<std::size_t>(
      workload == Workload::kIngestMixed ? kIngestMachines : shape.fleet_machines);
  const auto drawer = [&] { return OpDrawer(shape, machines, plan.windows.size()); };
  const bool reads_checkable = workload != Workload::kIngestMixed;
  const bool check_all = reads_checkable && shape.checked_ops == 0;

  if (shape.open_connections > 0) {
    plan.open_ops.resize(shape.open_connections);
    OpDrawer open = drawer();
    const double horizon = shape.open_share * seconds;
    const double gap = 1.0 / shape.open_rate;
    const auto next_gap = [&] {
      return shape.open_poisson ? open_rng.exponential(gap) : gap;
    };
    double clock = next_gap();
    for (std::size_t i = 0; clock < horizon || i == 0; ++i) {
      ReadOp op = open.draw(open_rng);
      op.at = clock;
      op.check = check_all;
      plan.open_ops[i % shape.open_connections].push_back(std::move(op));
      clock += next_gap();
    }
  }
  plan.closed_ops.resize(shape.closed_connections);
  for (auto& sequence : plan.closed_ops) {
    OpDrawer closed = drawer();
    for (std::size_t i = 0; i < shape.closed_sequence; ++i) {
      ReadOp op = closed.draw(closed_rng);
      op.check = check_all;
      sequence.push_back(std::move(op));
    }
  }
  if (reads_checkable && !check_all) {
    // A seeded sample, among ops every run reaches.
    for (auto& ops : plan.open_ops)
      mark_checked(ops, shape.checked_ops / 2, ops.size(), check_rng);
    for (auto& ops : plan.closed_ops)
      mark_checked(ops, shape.checked_ops / 2, 32, check_rng);
  }

  // Warm-up: every (machine, window) once, one op per window. A cold
  // sweep is warmed by the cache prefill instead.
  if (!shape.prefill_cache)
    for (std::uint32_t w = 0; w < plan.windows.size(); ++w) {
      ReadOp op;
      op.window = w;
      op.check = reads_checkable;
      for (std::uint32_t m = 0; m < machines; ++m) op.machines.push_back(m);
      plan.warm_ops.push_back(std::move(op));
    }

  OpDrawer replay = drawer();
  for (std::size_t i = 0; i < shape.replay_reads; ++i) {
    ReadOp op = replay.draw(replay_rng);
    op.check = reads_checkable;
    plan.replay_ops.push_back(std::move(op));
  }
  plan.replay_appends_per_read =
      shape.ingest_beside_reads ? kReplayAppends / shape.replay_reads : 0;

  Digest digest;
  digest.add(static_cast<std::uint64_t>(workload));
  digest.add(seed);
  digest.add_double(seconds);
  digest.add(plan.fleet_seed);
  digest.add(plan.ingest_seed);
  digest.add(plan.writer_seed);
  for (const Window& w : plan.windows) {
    digest.add(static_cast<std::uint64_t>(w.start));
    digest.add(static_cast<std::uint64_t>(w.length));
  }
  for (const auto& ops : {std::cref(plan.open_ops), std::cref(plan.closed_ops)})
    for (const auto& sequence : ops.get()) {
      digest.add(sequence.size());
      for (const ReadOp& op : sequence) fold(digest, op);
    }
  for (const ReadOp& op : plan.warm_ops) fold(digest, op);
  for (const ReadOp& op : plan.replay_ops) fold(digest, op);
  digest.add(plan.replay_appends_per_read);
  plan.digest = digest.value();
  return plan;
}

}  // namespace sb
