#include "trace/machine_trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <ostream>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fgcs {

namespace {
constexpr std::uint32_t kMagic = 0x46474353;  // "FGCS"
constexpr std::uint32_t kVersion = 1;

std::uint64_t next_history_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!is) throw DataError("trace stream truncated");
  return value;
}
}  // namespace

MachineTrace::MachineTrace(std::string machine_id, Calendar calendar,
                           SimTime sampling_period, int total_mem_mb)
    : machine_id_(std::move(machine_id)),
      calendar_(calendar),
      sampling_period_(sampling_period),
      total_mem_mb_(total_mem_mb),
      history_id_(next_history_id()) {
  FGCS_REQUIRE_MSG(sampling_period > 0 && kSecondsPerDay % sampling_period == 0,
                   "sampling period must divide 86400");
  FGCS_REQUIRE(total_mem_mb > 0);
}

void MachineTrace::append_day(std::vector<ResourceSample> samples) {
  FGCS_REQUIRE_MSG(samples.size() == samples_per_day(),
                   "day must contain exactly samples_per_day() samples");
  days_.push_back(std::move(samples));
  history_id_ = next_history_id();
}

const ResourceSample& MachineTrace::at(std::int64_t day, std::size_t index) const {
  FGCS_REQUIRE(day >= 0 && day < day_count());
  FGCS_REQUIRE(index < samples_per_day());
  return days_[static_cast<std::size_t>(day)][index];
}

const ResourceSample& MachineTrace::at_time(SimTime t) const {
  const std::int64_t day = Calendar::day_index(t);
  const std::size_t index =
      static_cast<std::size_t>(Calendar::second_of_day(t) / sampling_period_);
  return at(day, index);
}

bool MachineTrace::window_in_range(std::int64_t day, const TimeWindow& window) const {
  if (day < 0 || day >= day_count()) return false;
  return !window.wraps_midnight() || day + 1 < day_count();
}

std::vector<ResourceSample> MachineTrace::window_samples(
    std::int64_t day, const TimeWindow& window) const {
  validate(window);
  FGCS_REQUIRE_MSG(window_in_range(day, window),
                   "window extends past the recorded trace");
  const std::size_t n = window.steps(sampling_period_);
  const std::size_t per_day = samples_per_day();
  std::vector<ResourceSample> out;
  out.reserve(n);
  std::size_t index = static_cast<std::size_t>(window.start_of_day / sampling_period_);
  std::int64_t d = day;
  for (std::size_t i = 0; i < n; ++i) {
    if (index == per_day) {
      index = 0;
      ++d;
    }
    out.push_back(days_[static_cast<std::size_t>(d)][index]);
    ++index;
  }
  return out;
}

MachineTrace MachineTrace::slice(std::int64_t first_day,
                                 std::int64_t last_day) const {
  FGCS_REQUIRE(first_day >= 0 && first_day < last_day);
  FGCS_REQUIRE(last_day <= day_count());
  const int epoch = calendar_.day_of_week(first_day);
  MachineTrace out(machine_id_, Calendar(epoch), sampling_period_,
                   total_mem_mb_);
  for (std::int64_t d = first_day; d < last_day; ++d)
    out.append_day(days_[static_cast<std::size_t>(d)]);
  return out;
}

std::vector<std::int64_t> MachineTrace::days_of_type(DayType type,
                                                     std::int64_t first_day,
                                                     std::int64_t last_day) const {
  std::vector<std::int64_t> out;
  const std::int64_t lo = std::max<std::int64_t>(first_day, 0);
  const std::int64_t hi = std::min(last_day, day_count());
  for (std::int64_t d = lo; d < hi; ++d)
    if (day_type(d) == type) out.push_back(d);
  return out;
}

std::vector<std::int64_t> MachineTrace::recent_days_of_type(
    DayType type, std::int64_t before_day, std::size_t n) const {
  std::vector<std::int64_t> all = days_of_type(type, 0, before_day);
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

double MachineTrace::uptime_fraction() const {
  std::size_t up = 0, total = 0;
  for (const auto& day : days_) {
    total += day.size();
    up += static_cast<std::size_t>(
        std::count_if(day.begin(), day.end(),
                      [](const ResourceSample& s) { return s.up(); }));
  }
  return total == 0 ? 0.0 : static_cast<double>(up) / static_cast<double>(total);
}

double MachineTrace::mean_load() const {
  double acc = 0.0;
  std::size_t count = 0;
  for (const auto& day : days_)
    for (const ResourceSample& s : day)
      if (s.up()) {
        acc += s.load();
        ++count;
      }
  return count == 0 ? 0.0 : acc / static_cast<double>(count);
}

void MachineTrace::save(std::ostream& os) const {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  const std::uint32_t id_len = static_cast<std::uint32_t>(machine_id_.size());
  write_pod(os, id_len);
  os.write(machine_id_.data(), id_len);
  write_pod(os, static_cast<std::int32_t>(calendar_.epoch_day_of_week()));
  write_pod(os, static_cast<std::int64_t>(sampling_period_));
  write_pod(os, static_cast<std::int32_t>(total_mem_mb_));
  write_pod(os, static_cast<std::int64_t>(day_count()));
  for (const auto& day : days_)
    os.write(reinterpret_cast<const char*>(day.data()),
             static_cast<std::streamsize>(day.size() * sizeof(ResourceSample)));
  if (!os) throw DataError("trace write failed");
}

MachineTrace MachineTrace::load(std::istream& is) {
  // Chaos hook: the stream is declared corrupt regardless of content —
  // loaders and their callers must see the typed error, never a crash.
  if (FGCS_FAILPOINT("trace.load.corrupt"))
    throw DataError("injected: corrupt trace stream");
  if (read_pod<std::uint32_t>(is) != kMagic)
    throw DataError("not a fgcs trace stream (bad magic)");
  if (read_pod<std::uint32_t>(is) != kVersion)
    throw DataError("unsupported trace version");
  const std::uint32_t id_len = read_pod<std::uint32_t>(is);
  if (id_len > 4096) throw DataError("implausible machine id length");
  std::string id(id_len, '\0');
  is.read(id.data(), id_len);
  const int dow = read_pod<std::int32_t>(is);
  const SimTime period = read_pod<std::int64_t>(is);
  const int mem = read_pod<std::int32_t>(is);
  const std::int64_t n_days = read_pod<std::int64_t>(is);
  if (!is) throw DataError("trace stream truncated");
  if (period <= 0 || kSecondsPerDay % period != 0)
    throw DataError("corrupt trace: bad sampling period");
  if (mem <= 0) throw DataError("corrupt trace: bad memory size");
  if (n_days < 0 || n_days > 100000) throw DataError("corrupt trace: bad day count");

  MachineTrace trace(std::move(id), Calendar(dow), period, mem);
  const std::size_t per_day = trace.samples_per_day();
  for (std::int64_t d = 0; d < n_days; ++d) {
    std::vector<ResourceSample> day(per_day);
    is.read(reinterpret_cast<char*>(day.data()),
            static_cast<std::streamsize>(per_day * sizeof(ResourceSample)));
    if (!is) throw DataError("trace stream truncated mid-day");
    trace.append_day(std::move(day));
  }
  return trace;
}

void MachineTrace::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw DataError("cannot open trace file for writing: " + path);
  save(out);
}

MachineTrace MachineTrace::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open trace file: " + path);
  return load(in);
}

void MachineTrace::write_day_csv(std::ostream& os, std::int64_t day) const {
  FGCS_REQUIRE(day >= 0 && day < day_count());
  os << "second_of_day,host_load_pct,free_mem_mb,up\n";
  const auto& samples = days_[static_cast<std::size_t>(day)];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    os << i * static_cast<std::size_t>(sampling_period_) << ','
       << static_cast<int>(samples[i].host_load_pct) << ','
       << samples[i].free_mem_mb << ',' << (samples[i].up() ? 1 : 0) << '\n';
  }
}

}  // namespace fgcs
