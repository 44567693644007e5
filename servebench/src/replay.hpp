// The traced run: the workload's seeded replay requests, served one at a
// time, each stage a separate public call with a span around it.
//
// Per read request: encode_request, decode_request, HashRing::owner (ring
// workloads), trace resolution, PredictionService::predict_batch on an
// in-process twin service warmed exactly like the server, encode_response
// and decode_response — and the loopback round trip of the same batch to
// the live server, whose cache saw the same request sequence (after the
// stages on even requests, before them on odd ones). The loopback
// time minus the in-process stage sum is the server hop (framing, syscalls,
// reactor, pool hand-off). Outside the stage sum it also times what a miss
// costs on the same inputs (SmpEstimator::estimate, the AbsorptionCurves
// build), a curve read, and a warm single PredictionService::predict.
// Per append: encode_append, decode_append and TraceStore::append on a twin
// store wired to the twin service like the server's, then the loopback.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"
#include "world.hpp"

namespace sb {

struct ReplayResult {
  std::vector<double> loopback_ms;  ///< per read request
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

/// Replays the workload's seeded replay requests. Through a recording
/// `log` this is the traced replay: spans go to `log` and per-layer figures
/// to `metrics`. Through a log that records nothing it makes the same calls
/// without spans, the baseline the tracing overhead is measured against.
ReplayResult replay(World& world, SpanLog& log, Metrics& metrics);

}  // namespace sb
