// servebench — shared harness pieces: the benchmark's own seeded RNG and
// digest, order statistics, prediction bit-comparison, and the metric list
// a run prints.
//
// The benchmark owns its randomness (SplitMix64 here, not fgcs::Rng) so
// that a change to the library's RNG cannot silently change the request
// schedules a run replays; only the synthetic traces come from the library's
// workload generator.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/predictor.hpp"

namespace sb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// SplitMix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 fold over 64-bit words (doubles go in as their bit patterns).
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The highest quantile, capped at 0.99, that leaves at least ten samples
/// beyond it in a sample of `n` (0.5 when n is too small for even that).
double tail_quantile(std::size_t n);

/// True when every served field is bit-identical: TR, the three absorption
/// probabilities (IEEE bits), initial state, steps and training days. The
/// estimate/solve timings a Prediction also carries are wall-clock
/// measurements, not results, and are excluded.
bool same_prediction(const fgcs::Prediction& served,
                     const fgcs::Prediction& reference);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list, printed as the `metrics` object of the result line.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The result line: one JSON object on the last line of stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

/// JSON string escaping for the handful of free-text fields we print.
std::string json_escape(const std::string& text);

}  // namespace sb
