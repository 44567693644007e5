// Length-prefixed binary wire protocol for networked prediction serving and
// streaming sample ingestion (DESIGN.md §9).
//
// A frame is a fixed 16-byte little-endian header followed by a payload:
//
//   offset  size  field
//        0     4  magic     0x46474353 ("FGCS")
//        4     2  version   kWireVersion (4)
//        6     2  type      1 request | 2 response | 3 error
//                           | 4 append-samples | 5 append-ack
//                           | 6 gossip-sync | 7 gossip-ack | 8 wrong-shard
//        8     4  payload length in bytes (≤ kMaxPayloadBytes)
//       12     4  FNV-1a 32-bit checksum of the payload bytes
//
// Payloads encode BatchRequest spans and Prediction results losslessly:
// every double travels as its IEEE-754 bit pattern (std::bit_cast to
// uint64), so a served Prediction is bit-identical to the in-process one —
// stronger than %.17g text round-tripping, with no parsing ambiguity.
// Integers are fixed-width little-endian; strings are u16-length-prefixed.
//
// Decoding is defensive by contract: every length is validated against both
// the hard limits below and the actual bytes available before any
// allocation or read, trailing bytes are rejected, and malformed input of
// any kind throws DataError — never UB, a crash, or an over-read
// (tests/net/wire_fuzz_test.cpp holds the decoder to this under ASan/UBSan
// with a seeded mutation corpus). FrameDecoder reassembles frames from an
// arbitrarily-chunked byte stream (short reads are the epoll server's
// normal diet), throwing DataError on the first sign of desync (bad magic,
// version, oversized length, checksum mismatch) — framing cannot be
// trusted after that, so the connection must be closed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.hpp"
#include "ishare/gossip.hpp"
#include "ishare/hash_ring.hpp"
#include "trace/sample.hpp"

namespace fgcs::net {

inline constexpr std::uint32_t kWireMagic = 0x46474353u;  // "FGCS"
/// Version 2 added the append-samples / append-ack frame pair (streaming
/// ingestion); version 3 added the decentralized-registry frames
/// (gossip-sync / gossip-ack / wrong-shard); version 4 dropped the two
/// server-side timing doubles from each prediction record. Any layout
/// change bumps this (docs/WIRE.md §5).
inline constexpr std::uint16_t kWireVersion = 4;
inline constexpr std::size_t kHeaderBytes = 16;
/// Hard cap on a frame payload; a length field above this is a protocol
/// error, not an allocation request (fuzz case: length overflow).
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;  // 16 MiB
/// Hard cap on requests/predictions per frame.
inline constexpr std::uint32_t kMaxBatchItems = 1u << 16;
/// Hard cap on a machine-key string.
inline constexpr std::uint32_t kMaxKeyBytes = 4096;
/// Hard cap on packed samples per append frame (4 MiB of sample payload —
/// about three days of 6-second samples; monitors batch far below this).
inline constexpr std::uint32_t kMaxAppendSamples = 1u << 20;
/// Hard cap on gossip member-table rows and ring members per frame; a
/// registry fleet is a handful of nodes, so this is generous.
inline constexpr std::uint32_t kMaxGossipMembers = 1u << 12;

enum class FrameType : std::uint16_t {
  kRequest = 1,
  kResponse = 2,
  kError = 3,
  kAppendSamples = 4,
  kAppendAck = 5,
  kGossipSync = 6,  ///< full member-table push (anti-entropy)
  kGossipAck = 7,   ///< receiver's table, answered to a sync
  kWrongShard = 8,  ///< "not my keys" — carries the server's current ring
};

/// One request item as it travels on the wire: the machine is named by a
/// key (a machine id registered on the server, or — when the server allows
/// it — a trace file path the server can load) instead of a local pointer.
struct WireRequestItem {
  std::string machine_key;
  PredictionRequest request{};
};

/// A reassembled frame: validated header + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kRequest;
  std::vector<std::uint8_t> payload;
};

/// FNV-1a 32-bit over the payload (the header checksum field).
std::uint32_t wire_checksum(std::span<const std::uint8_t> payload);

/// Wraps a payload in a framed header (magic, version, type, length,
/// checksum). Throws PreconditionError when the payload exceeds
/// kMaxPayloadBytes.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload);

/// Request payload: u32 count, then per item a u16-length machine key,
/// i64 target_day, i64 window start-of-day, i64 window length, and one
/// initial-state byte (0 = none, 1 + index_of(state) otherwise).
std::vector<std::uint8_t> encode_request(
    std::span<const WireRequestItem> items);
std::vector<WireRequestItem> decode_request(
    std::span<const std::uint8_t> payload);

/// Response payload: u32 count, then per Prediction the TR bits, initial
/// state byte, three absorption-probability bit patterns, u64 training days
/// used, u64 steps, and the estimate/solve second bit patterns.
std::vector<std::uint8_t> encode_response(std::span<const Prediction> results);
std::vector<Prediction> decode_response(std::span<const std::uint8_t> payload);

/// A decoded error frame. `retryable` separates transport-level trouble the
/// sender may outlive (corrupt frame, desynced stream) from semantic
/// rejections that will fail identically on every retry (unknown machine
/// key, undecodable request) — the client fails fast on the latter.
struct WireError {
  std::string message;
  bool retryable = true;
};

/// Error payload: one retryable byte (0 or 1), then a u16-length UTF-8
/// message.
std::vector<std::uint8_t> encode_error(std::string_view message,
                                       bool retryable);
WireError decode_error(std::span<const std::uint8_t> payload);

/// One append-samples frame: a monitor ships a contiguous batch of packed
/// samples starting at an *absolute* sample index (day·samples_per_day +
/// offset since the machine's epoch). Appends are idempotent by
/// construction: indices the server already covers are acknowledged as
/// duplicates, so a client may blindly retry a whole batch. The machine
/// spec fields (epoch day-of-week, sampling period, total memory) make the
/// monitor self-describing — the first append registers the machine, later
/// appends must carry the same spec.
struct WireAppendRequest {
  std::string machine_id;
  std::uint8_t epoch_day_of_week = 0;  ///< 0 = Monday … 6 = Sunday
  std::int64_t sampling_period = 6;    ///< seconds; must divide 86 400
  std::uint32_t total_mem_mb = 1024;
  std::uint64_t first_sample_index = 0;
  std::vector<ResourceSample> samples;
};

/// The server's answer to one append frame: exact bookkeeping for the batch
/// plus the machine's post-append ingest state, so a monitor can resume
/// after reconnecting by asking where next_index stands.
struct WireAppendAck {
  std::uint64_t accepted = 0;      ///< samples newly buffered or rolled up
  std::uint64_t duplicates = 0;    ///< samples already covered (retries)
  std::uint64_t next_index = 0;    ///< first absolute index not yet covered
  std::uint64_t days_closed = 0;   ///< days rolled into the trace by this batch
  std::uint64_t days_retired = 0;  ///< days retired from the sliding window
  std::uint64_t generation = 0;    ///< machine's closed-day count after the append
};

/// Append payload: u16-length machine id, u8 epoch day-of-week, i64
/// sampling period, u32 total memory, u64 first absolute sample index, u32
/// count (1..kMaxAppendSamples), then count packed 4-byte samples
/// (u8 load pct ≤ 100, u8 flags, u16 free MiB).
std::vector<std::uint8_t> encode_append(const WireAppendRequest& request);
WireAppendRequest decode_append(std::span<const std::uint8_t> payload);

/// Append-ack payload: six u64 fields, fixed 48 bytes.
std::vector<std::uint8_t> encode_append_ack(const WireAppendAck& ack);
WireAppendAck decode_append_ack(std::span<const std::uint8_t> payload);

/// Gossip payload (kGossipSync and kGossipAck share one layout): u16-length
/// sender id, u32 member count, then per member a u16-length node id, a
/// u16-length host, u16 port, u64 incarnation, u64 heartbeat, one health
/// byte (0 alive | 1 suspect | 2 dead | 3 left), and u64 generation.
std::vector<std::uint8_t> encode_gossip(const GossipMessage& message);
GossipMessage decode_gossip(std::span<const std::uint8_t> payload);

/// Wrong-shard payload: the answering server's whole current ring, so the
/// refetch is implicit in the refusal — u64 ring version, u32 vnodes, u32
/// member count, then per member a u16-length node id, a u16-length host,
/// and u16 port.
std::vector<std::uint8_t> encode_wrong_shard(const HashRing& ring);
HashRing decode_wrong_shard(std::span<const std::uint8_t> payload);

/// Incremental frame reassembly over a byte stream. feed() appends whatever
/// the socket produced; next() returns one complete frame at a time (nullopt
/// when more bytes are needed) and throws DataError when the stream cannot
/// be a valid frame sequence. After a throw the decoder is poisoned — every
/// further call throws, mirroring "close the connection".
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace fgcs::net
