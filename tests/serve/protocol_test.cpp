// Unit tests of the rp::serve wire protocol: request/response round trips,
// framing, and malformed-input rejection.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/varint.hpp"

namespace rp::serve {
namespace {

TEST(Protocol, PingRoundTrips) {
  Request request;
  request.type = RequestType::kPing;
  request.id = 42;
  request.token = "hello";
  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.type, RequestType::kPing);
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.token, "hello");
}

TEST(Protocol, WorldSpecRoundTrips) {
  Request request;
  request.type = RequestType::kWorldInfo;
  request.id = 7;
  request.world.fast = true;
  request.world.fields = {{"seed", "99"}, {"topology.tier1_count", "4"}};
  const Request decoded = decode_request(encode_request(request));
  EXPECT_TRUE(decoded.world.fast);
  ASSERT_EQ(decoded.world.fields.size(), 2u);
  EXPECT_EQ(decoded.world.fields[0].first, "seed");
  EXPECT_EQ(decoded.world.fields[0].second, "99");
  EXPECT_EQ(decoded.world.fields[1].first, "topology.tier1_count");
}

TEST(Protocol, ViabilityCarriesPricesAndDecayMode) {
  Request request;
  request.type = RequestType::kViability;
  request.prices = {0.9, 0.03, 0.25, 0.004, 0.40};
  request.fitted_decay = false;
  request.decay = 0.27;
  const Request decoded = decode_request(encode_request(request));
  EXPECT_DOUBLE_EQ(decoded.prices.p, 0.9);
  EXPECT_DOUBLE_EQ(decoded.prices.v, 0.40);
  EXPECT_FALSE(decoded.fitted_decay);
  EXPECT_DOUBLE_EQ(decoded.decay, 0.27);

  request.fitted_decay = true;
  const Request fitted = decode_request(encode_request(request));
  EXPECT_TRUE(fitted.fitted_decay);
}

TEST(Protocol, WhatIfModesRoundTrip) {
  Request econ;
  econ.type = RequestType::kWhatIf;
  econ.whatif_mode = 1;
  econ.variant = {1.0, 0.02, 0.20, 0.01, 0.50};
  const Request econ_decoded = decode_request(encode_request(econ));
  EXPECT_EQ(econ_decoded.whatif_mode, 1);
  EXPECT_DOUBLE_EQ(econ_decoded.variant.h, 0.01);

  Request peering;
  peering.type = RequestType::kWhatIf;
  peering.whatif_mode = 2;
  peering.group = 3;
  peering.reached_ixps = {"DE-CIX", "AMS-IX"};
  peering.added_ixps = {"LINX"};
  const Request peering_decoded = decode_request(encode_request(peering));
  EXPECT_EQ(peering_decoded.whatif_mode, 2);
  EXPECT_EQ(peering_decoded.group, 3);
  ASSERT_EQ(peering_decoded.reached_ixps.size(), 2u);
  EXPECT_EQ(peering_decoded.reached_ixps[1], "AMS-IX");
  ASSERT_EQ(peering_decoded.added_ixps.size(), 1u);
  EXPECT_EQ(peering_decoded.added_ixps[0], "LINX");
}

TEST(Protocol, EpochRequestsRoundTrip) {
  Request at;
  at.type = RequestType::kWorldAtEpoch;
  at.id = 9;
  at.world.fast = true;
  at.timeline = "name tl\nepoch a\ntraffic 1.3\n";
  at.epoch = 3;
  const Request at_decoded = decode_request(encode_request(at));
  EXPECT_EQ(at_decoded.type, RequestType::kWorldAtEpoch);
  EXPECT_TRUE(at_decoded.world.fast);
  EXPECT_EQ(at_decoded.timeline, at.timeline);
  EXPECT_EQ(at_decoded.epoch, 3u);

  Request series;
  series.type = RequestType::kEpochSeries;
  series.timeline = at.timeline;
  series.group = 2;
  series.max_steps = 6;
  const Request series_decoded = decode_request(encode_request(series));
  EXPECT_EQ(series_decoded.type, RequestType::kEpochSeries);
  EXPECT_EQ(series_decoded.timeline, at.timeline);
  EXPECT_EQ(series_decoded.group, 2);
  EXPECT_EQ(series_decoded.max_steps, 6u);
}

TEST(Protocol, ResponseRoundTripsEveryStatus) {
  Response ok;
  ok.id = 5;
  ok.fields = {{"a", "1"}, {"b", "two"}};
  const Response ok_decoded = decode_response(encode_response(ok));
  EXPECT_EQ(ok_decoded.status, Status::kOk);
  EXPECT_EQ(ok_decoded.id, 5u);
  EXPECT_EQ(ok_decoded.field("b"), "two");
  EXPECT_EQ(ok_decoded.field("missing"), "");

  Response error;
  error.status = Status::kError;
  error.id = 6;
  error.message = "boom";
  const Response error_decoded = decode_response(encode_response(error));
  EXPECT_EQ(error_decoded.status, Status::kError);
  EXPECT_EQ(error_decoded.message, "boom");

  Response busy;
  busy.status = Status::kBusy;
  busy.message = "queue full";
  EXPECT_EQ(decode_response(encode_response(busy)).status, Status::kBusy);
}

TEST(Protocol, MalformedPayloadsThrowProtocolError) {
  // Empty payload.
  EXPECT_THROW(decode_request({}), ProtocolError);

  // Wrong version.
  std::vector<std::uint8_t> bad_version = {99, 1, 0};
  EXPECT_THROW(decode_request(bad_version), ProtocolError);

  // Unknown type.
  std::vector<std::uint8_t> bad_type = {kProtocolVersion, 200, 0};
  EXPECT_THROW(decode_request(bad_type), ProtocolError);

  // Truncated body: a ping whose token length promises more bytes.
  Request ping;
  ping.type = RequestType::kPing;
  ping.token = "0123456789";
  std::vector<std::uint8_t> truncated = encode_request(ping);
  truncated.resize(truncated.size() - 4);
  EXPECT_THROW(decode_request(truncated), ProtocolError);

  // Trailing garbage after a valid request.
  std::vector<std::uint8_t> trailing = encode_request(ping);
  trailing.push_back(0);
  EXPECT_THROW(decode_request(trailing), ProtocolError);

  // Unknown what-if mode.
  Request whatif;
  whatif.type = RequestType::kWhatIf;
  whatif.whatif_mode = 1;
  std::vector<std::uint8_t> bytes = encode_request(whatif);
  // version, type, id, world(fast u8 + count varint) then mode byte.
  bytes[2 + 1 + 1 + 1] = 9;
  EXPECT_THROW(decode_request(bytes), ProtocolError);
}

TEST(Protocol, FramingRoundTripsAndIsIncremental) {
  Request request;
  request.type = RequestType::kPing;
  request.token = "frame-me";
  const std::vector<std::uint8_t> payload = encode_request(request);
  std::vector<std::uint8_t> wire;
  append_frame(wire, payload);
  append_frame(wire, payload);

  // Nothing parses until a full frame is buffered.
  for (std::size_t keep = 0; keep < payload.size(); ++keep)
    EXPECT_FALSE(try_parse_frame(
        std::span<const std::uint8_t>(wire).subspan(0, keep)));

  auto first = try_parse_frame(wire);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->first, payload.size() + 1);  // 1-byte length prefix here.
  EXPECT_TRUE(std::equal(first->second.begin(), first->second.end(),
                         payload.begin()));

  auto second = try_parse_frame(
      std::span<const std::uint8_t>(wire).subspan(first->first));
  ASSERT_TRUE(second);
  EXPECT_EQ(second->second.size(), payload.size());
}

TEST(Protocol, OversizedFrameLengthIsRejected) {
  std::vector<std::uint8_t> wire;
  util::varint_encode(wire, kMaxFramePayload + 1);
  EXPECT_THROW(try_parse_frame(wire), ProtocolError);

  // A length varint that overflows 64 bits is malformed, not "wait for more".
  const std::vector<std::uint8_t> overflow(11, 0xFF);
  EXPECT_THROW(try_parse_frame(overflow), ProtocolError);

  // append_frame refuses to build an oversized frame in the first place.
  const std::vector<std::uint8_t> huge(kMaxFramePayload + 1, 0);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(append_frame(out, huge), ProtocolError);
}

TEST(Protocol, WorldSpecResolvesDeterministically) {
  WorldSpec spec;
  spec.fast = true;
  spec.fields = {{"seed", "7"}};
  const core::ScenarioConfig a = spec.resolve();
  const core::ScenarioConfig b = spec.resolve();
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.topology.tier1_count, b.topology.tier1_count);

  WorldSpec bad;
  bad.fields = {{"no.such.field", "1"}};
  EXPECT_THROW(bad.resolve(), std::invalid_argument);
}

}  // namespace
}  // namespace rp::serve
