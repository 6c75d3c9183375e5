#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>

#include "core/config_fields.hpp"
#include "io/container.hpp"
#include "util/varint.hpp"

namespace rp::serve {

namespace {

/// Bounds-checked payload reader: io::ByteReader with its SnapshotError
/// rethrown as ProtocolError, so serve callers never see snapshot errors.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> payload)
      : reader_(payload, "frame") {}

  std::uint8_t u8() { return guard([&] { return reader_.u8(); }); }
  std::uint64_t varint() { return guard([&] { return reader_.varint(); }); }
  double f64() { return guard([&] { return reader_.f64(); }); }
  std::string str() { return guard([&] { return reader_.str(); }); }
  void expect_end() {
    guard([&] {
      reader_.expect_end();
      return 0;
    });
  }

 private:
  template <typename Fn>
  auto guard(Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const io::SnapshotError& e) {
      throw ProtocolError(std::string("malformed payload: ") + e.what());
    }
  }
  io::ByteReader reader_;
};

void encode_world(io::ByteWriter& w, const WorldSpec& world) {
  w.u8(world.fast ? 1 : 0);
  w.varint(world.fields.size());
  for (const auto& [field, value] : world.fields) {
    w.str(field);
    w.str(value);
  }
}

WorldSpec decode_world(PayloadReader& r) {
  WorldSpec world;
  world.fast = r.u8() != 0;
  const std::uint64_t n = r.varint();
  world.fields.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string field = r.str();
    std::string value = r.str();
    world.fields.emplace_back(std::move(field), std::move(value));
  }
  return world;
}

void encode_prices(io::ByteWriter& w, const EconPrices& prices) {
  w.f64(prices.p);
  w.f64(prices.g);
  w.f64(prices.u);
  w.f64(prices.h);
  w.f64(prices.v);
}

EconPrices decode_prices(PayloadReader& r) {
  EconPrices prices;
  prices.p = r.f64();
  prices.g = r.f64();
  prices.u = r.f64();
  prices.h = r.f64();
  prices.v = r.f64();
  return prices;
}

void encode_strlist(io::ByteWriter& w, const std::vector<std::string>& list) {
  w.varint(list.size());
  for (const std::string& s : list) w.str(s);
}

std::vector<std::string> decode_strlist(PayloadReader& r) {
  const std::uint64_t n = r.varint();
  std::vector<std::string> list;
  list.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) list.push_back(r.str());
  return list;
}

}  // namespace

core::ScenarioConfig WorldSpec::resolve() const {
  core::ScenarioConfig config;
  if (fast) core::apply_fast_mode(config);
  for (const auto& [field, value] : fields)
    core::set_config_field(config, field, value);
  return config;
}

std::string_view Response::field(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return v;
  return {};
}

std::string format_double_or_null(double v) {
  if (!std::isfinite(v)) return "null";
  return format_double(v);
}

std::vector<std::uint8_t> encode_request(const Request& request) {
  io::ByteWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(request.type));
  w.varint(request.id);
  switch (request.type) {
    case RequestType::kPing:
      w.str(request.token);
      break;
    case RequestType::kWorldInfo:
    case RequestType::kSpread:
      encode_world(w, request.world);
      break;
    case RequestType::kOffloadCurve:
      encode_world(w, request.world);
      w.u8(request.group);
      w.varint(request.max_steps);
      break;
    case RequestType::kViability:
      encode_world(w, request.world);
      encode_prices(w, request.prices);
      w.u8(request.fitted_decay ? 1 : 0);
      if (!request.fitted_decay) w.f64(request.decay);
      break;
    case RequestType::kWhatIf:
      encode_world(w, request.world);
      w.u8(request.whatif_mode);
      if (request.whatif_mode == 1) {
        encode_prices(w, request.prices);
        encode_prices(w, request.variant);
      } else {
        w.u8(request.group);
        encode_strlist(w, request.reached_ixps);
        encode_strlist(w, request.added_ixps);
      }
      break;
    case RequestType::kShutdown:
      break;
    case RequestType::kStats:
      w.varint(request.stats_window);
      break;
    case RequestType::kWorldAtEpoch:
      encode_world(w, request.world);
      w.str(request.timeline);
      w.varint(request.epoch);
      break;
    case RequestType::kEpochSeries:
      encode_world(w, request.world);
      w.str(request.timeline);
      w.u8(request.group);
      w.varint(request.max_steps);
      break;
  }
  return std::move(w).take();
}

Request decode_request(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion)
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version));
  Request request;
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(RequestType::kPing) ||
      type > static_cast<std::uint8_t>(RequestType::kEpochSeries))
    throw ProtocolError("unknown request type " + std::to_string(type));
  request.type = static_cast<RequestType>(type);
  request.id = r.varint();
  switch (request.type) {
    case RequestType::kPing:
      request.token = r.str();
      break;
    case RequestType::kWorldInfo:
    case RequestType::kSpread:
      request.world = decode_world(r);
      break;
    case RequestType::kOffloadCurve:
      request.world = decode_world(r);
      request.group = r.u8();
      request.max_steps = r.varint();
      break;
    case RequestType::kViability:
      request.world = decode_world(r);
      request.prices = decode_prices(r);
      request.fitted_decay = r.u8() != 0;
      if (!request.fitted_decay) request.decay = r.f64();
      break;
    case RequestType::kWhatIf:
      request.world = decode_world(r);
      request.whatif_mode = r.u8();
      if (request.whatif_mode == 1) {
        request.prices = decode_prices(r);
        request.variant = decode_prices(r);
      } else if (request.whatif_mode == 2) {
        request.group = r.u8();
        request.reached_ixps = decode_strlist(r);
        request.added_ixps = decode_strlist(r);
      } else {
        throw ProtocolError("unknown what-if mode " +
                            std::to_string(request.whatif_mode));
      }
      break;
    case RequestType::kShutdown:
      break;
    case RequestType::kStats:
      request.stats_window = r.varint();
      break;
    case RequestType::kWorldAtEpoch:
      request.world = decode_world(r);
      request.timeline = r.str();
      request.epoch = r.varint();
      break;
    case RequestType::kEpochSeries:
      request.world = decode_world(r);
      request.timeline = r.str();
      request.group = r.u8();
      request.max_steps = r.varint();
      break;
  }
  r.expect_end();
  return request;
}

std::vector<std::uint8_t> encode_response(const Response& response) {
  io::ByteWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.varint(response.id);
  if (response.status == Status::kOk) {
    w.varint(response.fields.size());
    for (const auto& [key, value] : response.fields) {
      w.str(key);
      w.str(value);
    }
  } else {
    w.str(response.message);
  }
  return std::move(w).take();
}

Response decode_response(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion)
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(version));
  Response response;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::kBusy))
    throw ProtocolError("unknown response status " + std::to_string(status));
  response.status = static_cast<Status>(status);
  response.id = r.varint();
  if (response.status == Status::kOk) {
    const std::uint64_t n = r.varint();
    response.fields.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = r.str();
      std::string value = r.str();
      response.fields.emplace_back(std::move(key), std::move(value));
    }
  } else {
    response.message = r.str();
  }
  r.expect_end();
  return response;
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload)
    throw ProtocolError("frame payload of " + std::to_string(payload.size()) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFramePayload) + "-byte ceiling");
  util::varint_encode(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

std::optional<std::pair<std::size_t, std::span<const std::uint8_t>>>
try_parse_frame(std::span<const std::uint8_t> buffer) {
  const util::VarintResult length = util::varint_decode(buffer);
  if (length.status == util::VarintStatus::kTruncated) return std::nullopt;
  if (length.status == util::VarintStatus::kOverflow)
    throw ProtocolError("malformed frame length varint");
  if (length.value > kMaxFramePayload)
    throw ProtocolError("frame payload of " + std::to_string(length.value) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFramePayload) + "-byte ceiling");
  const std::size_t total =
      length.consumed + static_cast<std::size_t>(length.value);
  if (buffer.size() < total) return std::nullopt;
  return std::make_pair(
      total, buffer.subspan(length.consumed,
                            static_cast<std::size_t>(length.value)));
}

}  // namespace rp::serve
