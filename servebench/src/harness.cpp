#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sb {

double Rng::exponential(double mean) {
  // 1 - u is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double tail_quantile(std::size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

bool same_prediction(const fgcs::Prediction& served,
                     const fgcs::Prediction& reference) {
  const auto bits = [](double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
  };
  if (bits(served.temporal_reliability) != bits(reference.temporal_reliability))
    return false;
  for (std::size_t j = 0; j < served.p_absorb.size(); ++j)
    if (bits(served.p_absorb[j]) != bits(reference.p_absorb[j])) return false;
  return served.initial_state == reference.initial_state &&
         served.steps == reference.steps &&
         served.training_days_used == reference.training_days_used;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics.items()) {
    char value[64];
    // %.17g keeps every digit; non-finite values cannot occur in JSON.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace sb
