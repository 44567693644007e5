#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "core/states.hpp"
#include "util/error.hpp"

namespace fgcs::net {

namespace {

/// One prediction record: TR, state byte, three absorptions, training days,
/// steps (docs/WIRE.md §3).
constexpr std::size_t kPredictionRecordBytes = 8 + 1 + 3 * 8 + 8 + 8;

// All multi-byte fields are explicit little-endian so traces served across
// heterogeneous fleets stay bit-identical regardless of host endianness.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader. Every read validates the remaining
/// byte count *before* touching memory, so a lying length field can only
/// ever produce a DataError, never an over-read.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() {
    need(1, "u8");
    return bytes_[pos_++];
  }

  std::uint16_t u16() {
    need(2, "u16");
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str(std::size_t length) {
    need(length, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), length);
    pos_ += length;
    return s;
  }

  void expect_done(const char* what) const {
    if (pos_ != bytes_.size())
      throw DataError(std::string("wire: ") + what + ": " +
                      std::to_string(bytes_.size() - pos_) +
                      " trailing payload byte(s)");
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (remaining() < n)
      throw DataError(std::string("wire: truncated payload reading ") + what);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

std::uint32_t read_u32_at(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint16_t read_u16_at(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

}  // namespace

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload) {
  // FNV-1a 32-bit: cheap, stateless, and plenty to catch the torn/corrupt
  // frames the chaos failpoints inject (integrity, not authentication).
  std::uint32_t hash = 0x811c9dc5u;
  for (const std::uint8_t byte : payload) {
    hash ^= byte;
    hash *= 0x01000193u;
  }
  return hash;
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  FGCS_REQUIRE_MSG(payload.size() <= kMaxPayloadBytes,
                   "frame payload exceeds kMaxPayloadBytes");
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  put_u32(frame, kWireMagic);
  put_u16(frame, kWireVersion);
  put_u16(frame, static_cast<std::uint16_t>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, wire_checksum(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::vector<std::uint8_t> encode_request(
    std::span<const WireRequestItem> items) {
  FGCS_REQUIRE_MSG(items.size() <= kMaxBatchItems,
                   "request batch exceeds kMaxBatchItems");
  std::vector<std::uint8_t> payload;
  payload.reserve(16 + items.size() * 48);
  put_u32(payload, static_cast<std::uint32_t>(items.size()));
  for (const WireRequestItem& item : items) {
    FGCS_REQUIRE_MSG(item.machine_key.size() <= kMaxKeyBytes,
                     "machine key exceeds kMaxKeyBytes");
    put_u16(payload, static_cast<std::uint16_t>(item.machine_key.size()));
    payload.insert(payload.end(), item.machine_key.begin(),
                   item.machine_key.end());
    put_i64(payload, item.request.target_day);
    put_i64(payload, item.request.window.start_of_day);
    put_i64(payload, item.request.window.length);
    payload.push_back(
        item.request.initial_state
            ? static_cast<std::uint8_t>(
                  1 + index_of(*item.request.initial_state))
            : std::uint8_t{0});
  }
  return payload;
}

std::vector<WireRequestItem> decode_request(
    std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  const std::uint32_t count = reader.u32();
  if (count > kMaxBatchItems)
    throw DataError("wire: request batch count " + std::to_string(count) +
                    " exceeds limit " + std::to_string(kMaxBatchItems));
  // Even an empty item costs 27 bytes; reject absurd counts before reserving.
  if (static_cast<std::size_t>(count) * 27 > reader.remaining())
    throw DataError("wire: request batch count " + std::to_string(count) +
                    " does not fit the payload");
  std::vector<WireRequestItem> items;
  items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireRequestItem item;
    const std::uint16_t key_length = reader.u16();
    if (key_length > kMaxKeyBytes)
      throw DataError("wire: machine key length " +
                      std::to_string(key_length) + " exceeds limit");
    item.machine_key = reader.str(key_length);
    item.request.target_day = reader.i64();
    item.request.window.start_of_day = reader.i64();
    item.request.window.length = reader.i64();
    const std::uint8_t init = reader.u8();
    if (init > kStateCount)
      throw DataError("wire: invalid initial-state byte " +
                      std::to_string(init));
    if (init != 0) item.request.initial_state = state_from_index(init - 1);
    items.push_back(std::move(item));
  }
  reader.expect_done("request");
  return items;
}

std::vector<std::uint8_t> encode_response(std::span<const Prediction> results) {
  FGCS_REQUIRE_MSG(results.size() <= kMaxBatchItems,
                   "response batch exceeds kMaxBatchItems");
  std::vector<std::uint8_t> payload;
  payload.reserve(4 + results.size() * kPredictionRecordBytes);
  put_u32(payload, static_cast<std::uint32_t>(results.size()));
  for (const Prediction& p : results) {
    put_f64(payload, p.temporal_reliability);
    payload.push_back(static_cast<std::uint8_t>(index_of(p.initial_state)));
    for (const double absorb : p.p_absorb) put_f64(payload, absorb);
    put_u64(payload, p.training_days_used);
    put_u64(payload, p.steps);
  }
  return payload;
}

std::vector<Prediction> decode_response(std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  const std::uint32_t count = reader.u32();
  if (count > kMaxBatchItems)
    throw DataError("wire: response batch count " + std::to_string(count) +
                    " exceeds limit " + std::to_string(kMaxBatchItems));
  if (static_cast<std::size_t>(count) * kPredictionRecordBytes !=
      reader.remaining())
    throw DataError("wire: response batch count " + std::to_string(count) +
                    " does not match the payload size");
  std::vector<Prediction> results;
  results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Prediction p;
    p.temporal_reliability = reader.f64();
    const std::uint8_t state = reader.u8();
    if (state >= kStateCount)
      throw DataError("wire: invalid prediction state byte " +
                      std::to_string(state));
    p.initial_state = state_from_index(state);
    for (double& absorb : p.p_absorb) absorb = reader.f64();
    p.training_days_used = static_cast<std::size_t>(reader.u64());
    p.steps = static_cast<std::size_t>(reader.u64());
    results.push_back(p);
  }
  reader.expect_done("response");
  return results;
}

std::vector<std::uint8_t> encode_error(std::string_view message,
                                       bool retryable) {
  // Truncate rather than reject: error frames are a best-effort diagnostic.
  const std::size_t length = std::min<std::size_t>(message.size(), 0xffff);
  std::vector<std::uint8_t> payload;
  payload.reserve(3 + length);
  payload.push_back(retryable ? std::uint8_t{1} : std::uint8_t{0});
  put_u16(payload, static_cast<std::uint16_t>(length));
  payload.insert(payload.end(), message.begin(), message.begin() + length);
  return payload;
}

WireError decode_error(std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  const std::uint8_t retryable = reader.u8();
  if (retryable > 1)
    throw DataError("wire: invalid error retryable byte " +
                    std::to_string(retryable));
  const std::uint16_t length = reader.u16();
  WireError error;
  error.message = reader.str(length);
  error.retryable = retryable == 1;
  reader.expect_done("error");
  return error;
}

std::vector<std::uint8_t> encode_append(const WireAppendRequest& request) {
  FGCS_REQUIRE_MSG(request.machine_id.size() <= kMaxKeyBytes,
                   "machine id exceeds kMaxKeyBytes");
  FGCS_REQUIRE_MSG(!request.samples.empty(), "append batch must not be empty");
  FGCS_REQUIRE_MSG(request.samples.size() <= kMaxAppendSamples,
                   "append batch exceeds kMaxAppendSamples");
  FGCS_REQUIRE_MSG(request.epoch_day_of_week <= 6,
                   "epoch day-of-week out of range");
  FGCS_REQUIRE_MSG(request.sampling_period >= 1 &&
                       86'400 % request.sampling_period == 0,
                   "sampling period must divide one day");
  std::vector<std::uint8_t> payload;
  payload.reserve(32 + request.machine_id.size() + request.samples.size() * 4);
  put_u16(payload, static_cast<std::uint16_t>(request.machine_id.size()));
  payload.insert(payload.end(), request.machine_id.begin(),
                 request.machine_id.end());
  payload.push_back(request.epoch_day_of_week);
  put_i64(payload, request.sampling_period);
  put_u32(payload, request.total_mem_mb);
  put_u64(payload, request.first_sample_index);
  put_u32(payload, static_cast<std::uint32_t>(request.samples.size()));
  for (const ResourceSample& sample : request.samples) {
    FGCS_REQUIRE_MSG(sample.host_load_pct <= 100,
                     "sample load percent out of range");
    payload.push_back(sample.host_load_pct);
    payload.push_back(sample.flags);
    put_u16(payload, sample.free_mem_mb);
  }
  return payload;
}

WireAppendRequest decode_append(std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  WireAppendRequest request;
  const std::uint16_t key_length = reader.u16();
  if (key_length > kMaxKeyBytes)
    throw DataError("wire: machine id length " + std::to_string(key_length) +
                    " exceeds limit");
  request.machine_id = reader.str(key_length);
  request.epoch_day_of_week = reader.u8();
  if (request.epoch_day_of_week > 6)
    throw DataError("wire: epoch day-of-week " +
                    std::to_string(request.epoch_day_of_week) +
                    " out of range");
  request.sampling_period = reader.i64();
  if (request.sampling_period < 1 ||
      86'400 % request.sampling_period != 0)
    throw DataError("wire: sampling period " +
                    std::to_string(request.sampling_period) +
                    " does not divide one day");
  request.total_mem_mb = reader.u32();
  request.first_sample_index = reader.u64();
  const std::uint32_t count = reader.u32();
  if (count == 0)
    throw DataError("wire: empty append batch");
  if (count > kMaxAppendSamples)
    throw DataError("wire: append batch count " + std::to_string(count) +
                    " exceeds limit " + std::to_string(kMaxAppendSamples));
  // Samples are fixed 4 bytes each and must exactly fill the remainder —
  // rejected before any reserve when the count lies about the byte budget.
  if (static_cast<std::size_t>(count) * 4 != reader.remaining())
    throw DataError("wire: append batch count " + std::to_string(count) +
                    " does not match the payload size");
  request.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ResourceSample sample;
    sample.host_load_pct = reader.u8();
    if (sample.host_load_pct > 100)
      throw DataError("wire: sample load percent " +
                      std::to_string(sample.host_load_pct) +
                      " out of range");
    sample.flags = reader.u8();
    sample.free_mem_mb = reader.u16();
    request.samples.push_back(sample);
  }
  reader.expect_done("append");
  return request;
}

std::vector<std::uint8_t> encode_append_ack(const WireAppendAck& ack) {
  std::vector<std::uint8_t> payload;
  payload.reserve(48);
  put_u64(payload, ack.accepted);
  put_u64(payload, ack.duplicates);
  put_u64(payload, ack.next_index);
  put_u64(payload, ack.days_closed);
  put_u64(payload, ack.days_retired);
  put_u64(payload, ack.generation);
  return payload;
}

WireAppendAck decode_append_ack(std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  WireAppendAck ack;
  ack.accepted = reader.u64();
  ack.duplicates = reader.u64();
  ack.next_index = reader.u64();
  ack.days_closed = reader.u64();
  ack.days_retired = reader.u64();
  ack.generation = reader.u64();
  reader.expect_done("append ack");
  return ack;
}

namespace {

/// Shared by the gossip and wrong-shard codecs: a (node id, host) pair with
/// both lengths validated against kMaxKeyBytes before the strings are read.
void put_id_host(std::vector<std::uint8_t>& payload, const std::string& id,
                 const std::string& host) {
  FGCS_REQUIRE_MSG(id.size() <= kMaxKeyBytes, "node id exceeds kMaxKeyBytes");
  FGCS_REQUIRE_MSG(host.size() <= kMaxKeyBytes, "host exceeds kMaxKeyBytes");
  put_u16(payload, static_cast<std::uint16_t>(id.size()));
  payload.insert(payload.end(), id.begin(), id.end());
  put_u16(payload, static_cast<std::uint16_t>(host.size()));
  payload.insert(payload.end(), host.begin(), host.end());
}

std::string read_bounded_str(Reader& reader, const char* what) {
  const std::uint16_t length = reader.u16();
  if (length > kMaxKeyBytes)
    throw DataError(std::string("wire: ") + what + " length " +
                    std::to_string(length) + " exceeds limit");
  return reader.str(length);
}

}  // namespace

std::vector<std::uint8_t> encode_gossip(const GossipMessage& message) {
  FGCS_REQUIRE_MSG(message.members.size() <= kMaxGossipMembers,
                   "gossip member table exceeds kMaxGossipMembers");
  FGCS_REQUIRE_MSG(message.sender.size() <= kMaxKeyBytes,
                   "gossip sender exceeds kMaxKeyBytes");
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + message.sender.size() + message.members.size() * 48);
  put_u16(payload, static_cast<std::uint16_t>(message.sender.size()));
  payload.insert(payload.end(), message.sender.begin(), message.sender.end());
  put_u32(payload, static_cast<std::uint32_t>(message.members.size()));
  for (const MemberState& member : message.members) {
    put_id_host(payload, member.node_id, member.host);
    put_u16(payload, member.port);
    put_u64(payload, member.incarnation);
    put_u64(payload, member.heartbeat);
    payload.push_back(static_cast<std::uint8_t>(member.health));
    put_u64(payload, member.generation);
  }
  return payload;
}

GossipMessage decode_gossip(std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  GossipMessage message;
  message.sender = read_bounded_str(reader, "gossip sender");
  const std::uint32_t count = reader.u32();
  if (count > kMaxGossipMembers)
    throw DataError("wire: gossip member count " + std::to_string(count) +
                    " exceeds limit " + std::to_string(kMaxGossipMembers));
  // Even an empty member row costs 31 bytes; reject absurd counts before
  // reserving.
  if (static_cast<std::size_t>(count) * 31 > reader.remaining())
    throw DataError("wire: gossip member count " + std::to_string(count) +
                    " does not fit the payload");
  message.members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MemberState member;
    member.node_id = read_bounded_str(reader, "gossip node id");
    if (member.node_id.empty())
      throw DataError("wire: gossip member with empty node id");
    member.host = read_bounded_str(reader, "gossip host");
    member.port = reader.u16();
    member.incarnation = reader.u64();
    member.heartbeat = reader.u64();
    const std::uint8_t health = reader.u8();
    if (health > static_cast<std::uint8_t>(MemberHealth::kLeft))
      throw DataError("wire: invalid gossip health byte " +
                      std::to_string(health));
    member.health = static_cast<MemberHealth>(health);
    member.generation = reader.u64();
    message.members.push_back(std::move(member));
  }
  reader.expect_done("gossip");
  return message;
}

std::vector<std::uint8_t> encode_wrong_shard(const HashRing& ring) {
  FGCS_REQUIRE_MSG(ring.size() <= kMaxGossipMembers,
                   "ring member count exceeds kMaxGossipMembers");
  std::vector<std::uint8_t> payload;
  payload.reserve(16 + ring.size() * 32);
  put_u64(payload, ring.version());
  put_u32(payload, ring.vnodes());
  put_u32(payload, static_cast<std::uint32_t>(ring.size()));
  for (const RingMember& member : ring.members()) {
    put_id_host(payload, member.node_id, member.host);
    put_u16(payload, member.port);
  }
  return payload;
}

HashRing decode_wrong_shard(std::span<const std::uint8_t> payload) {
  Reader reader(payload);
  const std::uint64_t version = reader.u64();
  const std::uint32_t vnodes = reader.u32();
  if (vnodes == 0)
    throw DataError("wire: wrong-shard ring with zero vnodes");
  // Keep a hostile vnode count from turning into a giant allocation in the
  // HashRing constructor: the wire cap is far above any real deployment.
  if (vnodes > 4096)
    throw DataError("wire: wrong-shard vnode count " + std::to_string(vnodes) +
                    " exceeds limit 4096");
  const std::uint32_t count = reader.u32();
  if (count == 0)
    throw DataError("wire: wrong-shard ring with no members");
  if (count > kMaxGossipMembers)
    throw DataError("wire: wrong-shard member count " + std::to_string(count) +
                    " exceeds limit " + std::to_string(kMaxGossipMembers));
  if (static_cast<std::size_t>(count) * 6 > reader.remaining())
    throw DataError("wire: wrong-shard member count " + std::to_string(count) +
                    " does not fit the payload");
  std::vector<RingMember> members;
  members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RingMember member;
    member.node_id = read_bounded_str(reader, "ring node id");
    if (member.node_id.empty())
      throw DataError("wire: ring member with empty node id");
    member.host = read_bounded_str(reader, "ring host");
    member.port = reader.u16();
    members.push_back(std::move(member));
  }
  reader.expect_done("wrong shard");
  try {
    return HashRing(std::move(members), vnodes, version);
  } catch (const PreconditionError& e) {
    // Duplicate ids etc. — a malformed *payload*, not a caller bug.
    throw DataError(std::string("wire: wrong-shard ring rejected: ") +
                    e.what());
  }
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) throw DataError("wire: decoder poisoned by earlier error");
  // Compact lazily: drop consumed prefix once it dominates the buffer, so a
  // long-lived connection doesn't grow its buffer with every frame.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) throw DataError("wire: decoder poisoned by earlier error");
  if (buffered() < kHeaderBytes) return std::nullopt;
  const std::uint8_t* header = buffer_.data() + consumed_;

  // Validate the header as soon as it is complete, *before* waiting for the
  // payload: a desynced stream must fail fast, not stall on a garbage
  // length.
  const std::uint32_t magic = read_u32_at(header);
  if (magic != kWireMagic) {
    poisoned_ = true;
    throw DataError("wire: bad magic 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }());
  }
  const std::uint16_t version = read_u16_at(header + 4);
  if (version != kWireVersion) {
    poisoned_ = true;
    throw DataError("wire: unsupported version " + std::to_string(version));
  }
  const std::uint16_t type = read_u16_at(header + 6);
  if (type < static_cast<std::uint16_t>(FrameType::kRequest) ||
      type > static_cast<std::uint16_t>(FrameType::kWrongShard)) {
    poisoned_ = true;
    throw DataError("wire: unknown frame type " + std::to_string(type));
  }
  const std::uint32_t length = read_u32_at(header + 8);
  if (length > kMaxPayloadBytes) {
    poisoned_ = true;
    throw DataError("wire: payload length " + std::to_string(length) +
                    " exceeds limit " + std::to_string(kMaxPayloadBytes));
  }

  if (buffered() < kHeaderBytes + length) return std::nullopt;

  const std::uint32_t checksum = read_u32_at(header + 12);
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(header + kHeaderBytes, header + kHeaderBytes + length);
  if (wire_checksum(frame.payload) != checksum) {
    poisoned_ = true;
    throw DataError("wire: payload checksum mismatch");
  }
  consumed_ += kHeaderBytes + length;
  return frame;
}

}  // namespace fgcs::net
