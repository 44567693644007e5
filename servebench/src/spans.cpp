#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace sb {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanLog::open(const char* name, std::uint64_t request, int parent,
                  std::uint32_t ops) {
  if (!record_) return kRoot;
  children_.clear();
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.ops = ops == 0 ? 1 : ops;
  span.start_ns = now_ns();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id) {
  if (id != kRoot) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void SpanLog::index_children() const {
  if (children_.size() == spans_.size()) return;
  children_.assign(spans_.size(), {});
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != kRoot)
      children_[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
}

double SpanLog::duration_seconds(int id) const {
  if (id == kRoot) return 0;
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

double SpanLog::self_seconds(int id) const {
  index_children();
  const Span& span = spans_[static_cast<std::size_t>(id)];
  // Union of the children's intervals, clipped to this span.
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const int child : children_[static_cast<std::size_t>(id)]) {
    const Span& c = spans_[static_cast<std::size_t>(child)];
    const std::int64_t from = std::max(c.start_ns, span.start_ns);
    const std::int64_t to = std::min(c.end_ns, span.end_ns);
    if (to > from) covered.emplace_back(from, to);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t covered_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [from, to] : covered) {
    const std::int64_t start = std::max(from, reach);
    if (to > start) covered_ns += to - start;
    reach = std::max(reach, to);
  }
  return static_cast<double>(span.end_ns - span.start_ns - covered_ns) * 1e-9;
}

double SpanLog::median_self(const std::string& name) const {
  std::vector<double> values;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name)
      values.push_back(self_seconds(static_cast<int>(i)) / spans_[i].ops);
  return median(std::move(values));
}

bool SpanLog::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto self_ns = static_cast<std::int64_t>(
        self_seconds(static_cast<int>(i)) * 1e9 + 0.5);
    out << "{\"name\": \"" << span.name << "\", \"request\": " << span.request
        << ", \"id\": " << i << ", \"parent\": " << span.parent
        << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"self_ns\": " << self_ns
        << ", \"ops\": " << span.ops << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace sb
