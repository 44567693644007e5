// Wire protocol unit tests: lossless payload round-trips (doubles travel as
// IEEE-754 bit patterns — exact, not approximate), header framing, and
// FrameDecoder stream reassembly under arbitrary chunking.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace fgcs::net {
namespace {

WireRequestItem item(std::string key, std::int64_t day, SimTime start,
                     SimTime length,
                     std::optional<State> init = std::nullopt) {
  return WireRequestItem{
      .machine_key = std::move(key),
      .request = {.target_day = day,
                  .window = {.start_of_day = start, .length = length},
                  .initial_state = init}};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(WireRequest, RoundTripsEveryField) {
  const std::vector<WireRequestItem> items{
      item("lab-42", 30, 9 * 3600, 2 * 3600),
      item("m", 0, 0, 1, State::kS1),
      item("a long key with spaces / and: punctuation", -5, 86399, 12 * 3600,
           State::kS2),
  };
  const std::vector<WireRequestItem> back =
      decode_request(encode_request(items));
  ASSERT_EQ(back.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(back[i].machine_key, items[i].machine_key);
    EXPECT_EQ(back[i].request.target_day, items[i].request.target_day);
    EXPECT_EQ(back[i].request.window.start_of_day,
              items[i].request.window.start_of_day);
    EXPECT_EQ(back[i].request.window.length, items[i].request.window.length);
    EXPECT_EQ(back[i].request.initial_state, items[i].request.initial_state);
  }
}

TEST(WireRequest, EmptyBatchRoundTrips) {
  const std::vector<WireRequestItem> none;
  EXPECT_TRUE(decode_request(encode_request(none)).empty());
}

TEST(WireResponse, DoublesAreBitExact) {
  // Values chosen to break text round-trips that bit patterns survive:
  // negative zero, subnormals, an irrational at full precision, infinity.
  Prediction a;
  a.temporal_reliability = 0.1 + 0.2;  // the classic 0.30000000000000004
  a.initial_state = State::kS2;
  a.p_absorb = {std::nextafter(0.0, 1.0), -0.0, 1.0 / 3.0};
  a.training_days_used = 15;
  a.steps = 720;
  Prediction b;
  b.temporal_reliability = std::nextafter(1.0, 0.0);
  b.p_absorb = {0.25, 0.5, std::numeric_limits<double>::epsilon()};

  const std::vector<Prediction> sent{a, b};
  const std::vector<Prediction> back = decode_response(encode_response(sent));
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(same_bits(back[i].temporal_reliability,
                          sent[i].temporal_reliability));
    EXPECT_EQ(back[i].initial_state, sent[i].initial_state);
    for (int k = 0; k < 3; ++k)
      EXPECT_TRUE(same_bits(back[i].p_absorb[static_cast<std::size_t>(k)],
                            sent[i].p_absorb[static_cast<std::size_t>(k)]));
    EXPECT_EQ(back[i].training_days_used, sent[i].training_days_used);
    EXPECT_EQ(back[i].steps, sent[i].steps);
  }
}

TEST(WireResponse, PredictionRecordIs49Bytes) {
  // v4: TR, state byte, three absorptions, training days, steps.
  EXPECT_EQ(encode_response(std::vector<Prediction>(3)).size(), 4u + 3u * 49u);
  std::vector<std::uint8_t> payload = encode_response(std::vector<Prediction>(1));
  payload.push_back(0);
  EXPECT_THROW(decode_response(payload), DataError);
}

TEST(WireError, MessageAndRetryableFlagRoundTrip) {
  const WireError transient = decode_error(encode_error("boom: détails", true));
  EXPECT_EQ(transient.message, "boom: détails");
  EXPECT_TRUE(transient.retryable);
  const WireError fatal = decode_error(encode_error("", false));
  EXPECT_EQ(fatal.message, "");
  EXPECT_FALSE(fatal.retryable);
}

TEST(WireError, InvalidRetryableByteIsRejected) {
  std::vector<std::uint8_t> payload = encode_error("x", true);
  payload.front() = 2;  // only 0 and 1 are valid
  EXPECT_THROW(decode_error(payload), DataError);
}

TEST(WireFrame, HeaderLayoutMatchesSpec) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const std::vector<std::uint8_t> frame =
      encode_frame(FrameType::kError, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());
  std::uint32_t magic = 0;
  std::memcpy(&magic, frame.data(), 4);
  EXPECT_EQ(magic, kWireMagic);
  std::uint16_t version = 0;
  std::memcpy(&version, frame.data() + 4, 2);
  EXPECT_EQ(version, kWireVersion);
  std::uint16_t type = 0;
  std::memcpy(&type, frame.data() + 6, 2);
  EXPECT_EQ(type, static_cast<std::uint16_t>(FrameType::kError));
  std::uint32_t length = 0;
  std::memcpy(&length, frame.data() + 8, 4);
  EXPECT_EQ(length, payload.size());
  std::uint32_t checksum = 0;
  std::memcpy(&checksum, frame.data() + 12, 4);
  EXPECT_EQ(checksum, wire_checksum(payload));
}

TEST(WireChecksum, IsFnv1aStable) {
  // Pinned values so an accidental checksum change breaks loudly (it would
  // desync every deployed peer).
  EXPECT_EQ(wire_checksum({}), 0x811c9dc5u);  // FNV-1a offset basis
  const std::vector<std::uint8_t> abc{'a', 'b', 'c'};
  EXPECT_EQ(wire_checksum(abc), 0x1a47e90bu);
}

TEST(FrameDecoder, ReassemblesByteAtATime) {
  const std::vector<WireRequestItem> items{item("k", 7, 3600, 1800)};
  const std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::kRequest, encode_request(items));

  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed({&bytes[i], 1});
    EXPECT_FALSE(decoder.next().has_value()) << "frame complete too early";
  }
  decoder.feed({&bytes[bytes.size() - 1], 1});
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kRequest);
  EXPECT_EQ(decode_request(frame->payload).at(0).machine_key, "k");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoder, SplitsBackToBackFrames) {
  std::vector<std::uint8_t> stream =
      encode_frame(FrameType::kError, encode_error("first", true));
  const std::vector<std::uint8_t> second =
      encode_frame(FrameType::kError, encode_error("second", true));
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(stream);
  const std::optional<Frame> one = decoder.next();
  const std::optional<Frame> two = decoder.next();
  ASSERT_TRUE(one && two);
  EXPECT_EQ(decode_error(one->payload).message, "first");
  EXPECT_EQ(decode_error(two->payload).message, "second");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameDecoder, RejectsBadMagicBeforePayloadArrives) {
  std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::kError, encode_error("x", true));
  bytes[0] ^= 0xff;
  FrameDecoder decoder;
  // Header alone (16 bytes) must already trip the desync — fail fast, don't
  // wait for a payload that may never come.
  decoder.feed({bytes.data(), kHeaderBytes});
  EXPECT_THROW(decoder.next(), DataError);
  // Poisoned: every further use throws.
  EXPECT_THROW(decoder.next(), DataError);
  EXPECT_THROW(decoder.feed({bytes.data(), 1}), DataError);
}

TEST(FrameDecoder, RejectsChecksumMismatch) {
  std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::kRequest,
                   encode_request(std::vector<WireRequestItem>{
                       item("m", 3, 0, 600)}));
  bytes.back() ^= 0x01;  // corrupt payload, header checksum now wrong
  FrameDecoder decoder;
  decoder.feed(bytes);
  EXPECT_THROW(decoder.next(), DataError);
}

TEST(WireFrame, OversizedPayloadIsPreconditionError) {
  // encode side: refuse to build an unsendable frame.
  std::vector<std::uint8_t> big(kMaxPayloadBytes + 1);
  EXPECT_THROW(encode_frame(FrameType::kError, big), PreconditionError);
}

TEST(WireRequest, OversizedKeyIsRejectedAtEncode) {
  const std::vector<WireRequestItem> items{
      item(std::string(kMaxKeyBytes + 1, 'k'), 1, 0, 60)};
  EXPECT_THROW(encode_request(items), PreconditionError);
}

// ---- streaming ingest frames (wire v2) ----

WireAppendRequest append_request() {
  WireAppendRequest request;
  request.machine_id = "lab-42/cpu0";
  request.epoch_day_of_week = 5;
  request.sampling_period = 60;
  request.total_mem_mb = 2048;
  request.first_sample_index = 0x1234'5678'9abcull;
  ResourceSample up;
  up.host_load_pct = 37;
  up.free_mem_mb = 911;
  up.set_up(true);
  ResourceSample down;
  down.host_load_pct = 0;
  down.free_mem_mb = 2048;
  down.set_up(false);
  ResourceSample edge;
  edge.host_load_pct = 100;
  edge.free_mem_mb = 0xffff;
  edge.set_up(true);
  request.samples = {up, down, edge};
  return request;
}

TEST(WireAppend, RoundTripsEveryField) {
  const WireAppendRequest request = append_request();
  const WireAppendRequest back = decode_append(encode_append(request));
  EXPECT_EQ(back.machine_id, request.machine_id);
  EXPECT_EQ(back.epoch_day_of_week, request.epoch_day_of_week);
  EXPECT_EQ(back.sampling_period, request.sampling_period);
  EXPECT_EQ(back.total_mem_mb, request.total_mem_mb);
  EXPECT_EQ(back.first_sample_index, request.first_sample_index);
  ASSERT_EQ(back.samples.size(), request.samples.size());
  for (std::size_t i = 0; i < back.samples.size(); ++i)
    EXPECT_TRUE(back.samples[i] == request.samples[i]) << "sample " << i;
}

TEST(WireAppend, FramesAsTypeFourUnderCurrentVersion) {
  const std::vector<std::uint8_t> frame =
      encode_frame(FrameType::kAppendSamples, encode_append(append_request()));
  EXPECT_EQ(frame[4], kWireVersion);
  EXPECT_EQ(frame[4], 4);  // appends exist since v2; current protocol is v4
  EXPECT_EQ(frame[6], 4);  // FrameType::kAppendSamples
  FrameDecoder decoder;
  decoder.feed(frame);
  const std::optional<Frame> out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, FrameType::kAppendSamples);
}

TEST(WireAppend, EncodeRejectsInvalidRequests) {
  WireAppendRequest bad = append_request();
  bad.samples.clear();
  EXPECT_THROW(encode_append(bad), PreconditionError);
  bad = append_request();
  bad.epoch_day_of_week = 7;
  EXPECT_THROW(encode_append(bad), PreconditionError);
  bad = append_request();
  bad.sampling_period = 7;  // does not divide 86 400
  EXPECT_THROW(encode_append(bad), PreconditionError);
  bad = append_request();
  bad.samples[0].host_load_pct = 101;
  EXPECT_THROW(encode_append(bad), PreconditionError);
  bad = append_request();
  bad.machine_id.assign(kMaxKeyBytes + 1, 'k');
  EXPECT_THROW(encode_append(bad), PreconditionError);
}

TEST(WireAppendAck, RoundTripsAsFixed48Bytes) {
  const WireAppendAck ack{.accepted = 1440,
                          .duplicates = 17,
                          .next_index = 0xdead'beef'0042ull,
                          .days_closed = 2,
                          .days_retired = 1,
                          .generation = 31};
  const std::vector<std::uint8_t> payload = encode_append_ack(ack);
  EXPECT_EQ(payload.size(), 48u);
  const WireAppendAck back = decode_append_ack(payload);
  EXPECT_EQ(back.accepted, ack.accepted);
  EXPECT_EQ(back.duplicates, ack.duplicates);
  EXPECT_EQ(back.next_index, ack.next_index);
  EXPECT_EQ(back.days_closed, ack.days_closed);
  EXPECT_EQ(back.days_retired, ack.days_retired);
  EXPECT_EQ(back.generation, ack.generation);
}

TEST(WireAppendAck, WrongSizePayloadIsRejected) {
  std::vector<std::uint8_t> payload = encode_append_ack(WireAppendAck{});
  payload.pop_back();
  EXPECT_THROW(decode_append_ack(payload), DataError);
  payload = encode_append_ack(WireAppendAck{});
  payload.push_back(0);
  EXPECT_THROW(decode_append_ack(payload), DataError);
}

}  // namespace
}  // namespace fgcs::net
