#include "trace/trace_store.hpp"

#include <utility>

#include "util/failpoint.hpp"

namespace fgcs {

namespace {

void validate(const MachineSpec& spec) {
  if (spec.machine_id.empty())
    throw DataError("ingest: machine id must be non-empty");
  if (spec.epoch_day_of_week < 0 || spec.epoch_day_of_week > 6)
    throw DataError("ingest: epoch day of week out of range");
  if (spec.sampling_period < 1 || kSecondsPerDay % spec.sampling_period != 0)
    throw DataError("ingest: sampling period must divide 86400");
  if (spec.total_mem_mb < 1)
    throw DataError("ingest: total memory must be positive");
}

void require_same_spec(const MachineSpec& have, const MachineSpec& got) {
  if (have.epoch_day_of_week != got.epoch_day_of_week ||
      have.sampling_period != got.sampling_period ||
      have.total_mem_mb != got.total_mem_mb)
    throw DataError("ingest: machine spec for '" + got.machine_id +
                    "' contradicts its registration");
}

}  // namespace

TraceStore::TraceStore(TraceStoreConfig config, DayClosedCallback on_day_closed)
    : config_(config), on_day_closed_(std::move(on_day_closed)) {
  FGCS_REQUIRE(config_.retention_days >= 0);
}

TraceStore::Machine& TraceStore::resolve(const MachineSpec& spec) {
  validate(spec);
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = machines_.find(spec.machine_id);
  if (it != machines_.end()) {
    require_same_spec(it->second->spec, spec);
    return *it->second;
  }
  auto machine = std::make_unique<Machine>();
  machine->spec = spec;
  machine->trace = std::make_shared<const MachineTrace>(
      spec.machine_id, Calendar(spec.epoch_day_of_week), spec.sampling_period,
      spec.total_mem_mb);
  machine->buffer.reserve(machine->trace->samples_per_day());
  return *machines_.emplace(spec.machine_id, std::move(machine)).first->second;
}

const TraceStore::Machine* TraceStore::find(
    const std::string& machine_id) const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = machines_.find(machine_id);
  return it == machines_.end() ? nullptr : it->second.get();
}

void TraceStore::register_machine(const MachineSpec& spec) { resolve(spec); }

void TraceStore::adopt_trace(MachineTrace trace) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  if (machines_.find(trace.machine_id()) != machines_.end())
    throw DataError("ingest: machine '" + trace.machine_id() +
                    "' already exists");
  auto machine = std::make_unique<Machine>();
  machine->spec = MachineSpec{
      .machine_id = trace.machine_id(),
      .epoch_day_of_week = trace.calendar().epoch_day_of_week(),
      .sampling_period = trace.sampling_period(),
      .total_mem_mb = trace.total_mem_mb()};
  machine->closed_days = trace.day_count();
  machine->buffer.reserve(trace.samples_per_day());
  machine->trace = std::make_shared<const MachineTrace>(std::move(trace));
  const std::string id = machine->spec.machine_id;
  machines_.emplace(id, std::move(machine));
}

void TraceStore::close_day(Machine& machine, AppendResult& result) {
  if (FGCS_FAILPOINT("ingest.rollup.fail"))
    throw RollupError("injected rollup failure (ingest.rollup.fail)");
  const MachineTrace& current = *machine.trace;
  const bool retire = config_.retention_days > 0 &&
                      current.day_count() >= config_.retention_days;
  MachineTrace next =
      retire ? current.slice(1, current.day_count()) : current;
  next.append_day(std::move(machine.buffer));
  machine.buffer = {};
  machine.buffer.reserve(next.samples_per_day());
  machine.trace = std::make_shared<const MachineTrace>(std::move(next));
  const std::int64_t closed = machine.closed_days++;
  std::int64_t retired = -1;
  if (retire) retired = machine.first_day_id++;
  ++result.days_closed;
  if (retire) ++result.days_retired;
  if (on_day_closed_)
    on_day_closed_(DayClosedEvent{.machine_id = machine.spec.machine_id,
                                  .trace = machine.trace,
                                  .first_day_id = machine.first_day_id,
                                  .closed_day = closed,
                                  .retired_day = retired});
}

AppendResult TraceStore::append(const MachineSpec& spec,
                                std::uint64_t first_sample_index,
                                std::span<const ResourceSample> samples) {
  FGCS_REQUIRE(!samples.empty());
  Machine& machine = resolve(spec);
  const std::lock_guard<std::mutex> lock(machine.mutex);
  const std::size_t per_day = machine.trace->samples_per_day();
  AppendResult result;
  std::uint64_t next =
      static_cast<std::uint64_t>(machine.closed_days) * per_day +
      machine.buffer.size();
  if (first_sample_index > next)
    throw DataError("ingest: append starts at index " +
                    std::to_string(first_sample_index) + " but machine '" +
                    spec.machine_id + "' expects " + std::to_string(next) +
                    " — sample gaps cannot be represented");
  // A previous close may have thrown (e.g. an injected rollup failure)
  // after a full day was buffered; its samples dedup as duplicates on the
  // retry, so the `== per_day` trigger below can never fire for them again.
  // Retry the close up front — `next` is invariant under it.
  if (machine.buffer.size() == per_day) close_day(machine, result);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t index = first_sample_index + i;
    if (index < next) {
      ++result.duplicates;
      continue;
    }
    machine.buffer.push_back(samples[i]);
    ++result.accepted;
    ++next;
    if (machine.buffer.size() == per_day) close_day(machine, result);
  }
  result.next_index = next;
  result.total_days_closed = static_cast<std::uint64_t>(machine.closed_days);
  return result;
}

std::shared_ptr<const MachineTrace> TraceStore::snapshot(
    const std::string& machine_id) const {
  const Machine* machine = find(machine_id);
  if (machine == nullptr) return nullptr;
  const std::lock_guard<std::mutex> lock(machine->mutex);
  return machine->trace;
}

std::int64_t TraceStore::first_day_id(const std::string& machine_id) const {
  const Machine* machine = find(machine_id);
  if (machine == nullptr)
    throw DataError("ingest: unknown machine '" + machine_id + "'");
  const std::lock_guard<std::mutex> lock(machine->mutex);
  return machine->first_day_id;
}

std::uint64_t TraceStore::next_index(const std::string& machine_id) const {
  const Machine* machine = find(machine_id);
  if (machine == nullptr)
    throw DataError("ingest: unknown machine '" + machine_id + "'");
  const std::lock_guard<std::mutex> lock(machine->mutex);
  return static_cast<std::uint64_t>(machine->closed_days) *
             machine->trace->samples_per_day() +
         machine->buffer.size();
}

std::size_t TraceStore::buffered_samples(const std::string& machine_id) const {
  const Machine* machine = find(machine_id);
  if (machine == nullptr)
    throw DataError("ingest: unknown machine '" + machine_id + "'");
  const std::lock_guard<std::mutex> lock(machine->mutex);
  return machine->buffer.size();
}

std::size_t TraceStore::machine_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return machines_.size();
}

std::vector<std::string> TraceStore::machine_ids() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<std::string> ids;
  ids.reserve(machines_.size());
  for (const auto& [id, machine] : machines_) ids.push_back(id);
  return ids;
}

}  // namespace fgcs
