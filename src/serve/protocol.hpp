// The rp::serve wire protocol: length-prefixed binary frames over TCP,
// packed with the same varint codec the snapshot container uses
// (util/varint.hpp via io::ByteWriter/ByteReader).
//
// Framing
//   frame   := varint payload_length, payload bytes
// A payload longer than kMaxFramePayload, or a malformed length varint, is a
// protocol violation — the daemon closes that connection (and only that
// connection).
//
// Request payload
//   request := u8 version, u8 type, varint id, body
// The id is chosen by the client and echoed verbatim in the response, so
// pipelined clients can match answers to questions. Bodies:
//   ping           str token (echoed back)
//   world-info     world
//   offload-curve  world, u8 group, varint max_steps
//   viability      world, prices, u8 fitted (1: fit decay from the world's
//                  greedy curve; 0: use the explicit f64 decay that follows)
//   spread         world
//   what-if        world, u8 mode
//                    mode 1 (econ):    prices base, prices variant
//                    mode 2 (peering): u8 group, strlist reached, strlist add
//   shutdown       (empty)
//   stats          varint window (time-series points per series to include;
//                  0 = no time-series rows)
//   world-at-epoch world, str timeline, varint epoch — replay the canonical
//                  timeline text over the world (which must equal the
//                  timeline's own base; the executor validates the digests
//                  match so the WorldPool key stays honest) and report epoch
//                  k's composition
//   epoch-series   world, str timeline, u8 group, varint max_steps — replay
//                  the whole timeline and report one row block per epoch
//                  (members, remote share, transit, offload fraction)
// with
//   world   := u8 fast, varint n, n x (str field, str value)   — dotted
//              core::ScenarioConfig field assignments (config_fields.hpp)
//   prices  := f64 p, f64 g, f64 u, f64 h, f64 v               — §5 symbols
//   strlist := varint n, n x str
//
// Response payload
//   response := u8 version, u8 status, varint id, body
//   status 0 (ok):    varint n, n x (str key, str value) — a flat, ordered
//                     key/value report; doubles are canonically formatted, so
//                     identical queries produce byte-identical payloads at
//                     any RP_THREADS / client count.
//   status 1 (error): str message (the request was understood but failed —
//                     unknown config field, bad prices, unknown IXP, ...)
//   status 2 (busy):  str message (admission control rejected the request;
//                     retry later. The connection stays healthy.)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "util/strings.hpp"

namespace rp::serve {

inline constexpr std::uint8_t kProtocolVersion = 1;
/// Ceiling on a frame payload; larger lengths are a protocol violation.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Raised on any malformed frame or payload (bad version, unknown type,
/// truncated body, oversized length). The daemon maps it to "kill this
/// connection"; clients map it to exit code 4.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RequestType : std::uint8_t {
  kPing = 1,
  kWorldInfo = 2,
  kOffloadCurve = 3,
  kViability = 4,
  kSpread = 5,
  kWhatIf = 6,
  kShutdown = 7,
  kStats = 8,
  kWorldAtEpoch = 9,
  kEpochSeries = 10,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,
  kBusy = 2,
};

/// The §5 price symbols carried by viability / what-if requests (the decay b
/// is either fitted from the world or sent explicitly alongside).
struct EconPrices {
  double p = 1.0;    ///< transit_price
  double g = 0.02;   ///< direct_fixed
  double u = 0.20;   ///< direct_unit
  double h = 0.006;  ///< remote_fixed
  double v = 0.45;   ///< remote_unit
};

/// A world addressed by config delta: dotted ScenarioConfig field
/// assignments applied on top of the default config (plus the shared fast
/// shrink). Resolution is deterministic, so equal specs hit the same
/// config digest — the WorldPool key.
struct WorldSpec {
  bool fast = false;
  std::vector<std::pair<std::string, std::string>> fields;

  /// Applies the spec to a default ScenarioConfig. Throws
  /// std::invalid_argument (from config_fields) on unknown fields or
  /// unparsable values.
  core::ScenarioConfig resolve() const;
};

/// One decoded request. A single struct (rather than a variant) keeps the
/// codec flat; only the fields of the active `type` are meaningful.
struct Request {
  RequestType type = RequestType::kPing;
  std::uint64_t id = 0;
  std::string token;                    ///< ping
  WorldSpec world;                      ///< all world-backed queries
  std::uint8_t group = 4;               ///< offload::PeerGroup (kAll)
  std::uint64_t max_steps = 8;          ///< offload-curve
  EconPrices prices;                    ///< viability / what-if base
  bool fitted_decay = true;             ///< viability
  double decay = 0.35;                  ///< viability when !fitted_decay
  std::uint8_t whatif_mode = 1;         ///< 1 econ, 2 peering
  EconPrices variant;                   ///< what-if econ
  std::vector<std::string> reached_ixps;  ///< what-if peering: current set
  std::vector<std::string> added_ixps;    ///< what-if peering: delta
  std::uint64_t stats_window = 0;         ///< stats: ts points per series
  std::string timeline;  ///< world-at-epoch / epoch-series: canonical text
  std::uint64_t epoch = 0;                ///< world-at-epoch: epoch index
};

struct Response {
  Status status = Status::kOk;
  std::uint64_t id = 0;
  std::string message;  ///< kError / kBusy explanation.
  /// kOk report rows, in emission order.
  std::vector<std::pair<std::string, std::string>> fields;

  std::string_view field(std::string_view key) const;  ///< "" when absent.
};

/// Canonical double formatting for response values (util::format_double,
/// the config-field registry's "%.10g") — one spelling per value, so
/// responses diff clean.
using util::format_double;

/// format_double for values that may legitimately be "absent": NaN and
/// infinities (e.g. MetricValue::quantile on an empty histogram) render as
/// the literal "null", which every JSON consumer passes through unquoted —
/// "%.10g" would print "nan", and a quoted "nan" string is not a number.
std::string format_double_or_null(double v);

std::vector<std::uint8_t> encode_request(const Request& request);
/// Throws ProtocolError on any malformed payload.
Request decode_request(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_response(const Response& response);
/// Throws ProtocolError on any malformed payload.
Response decode_response(std::span<const std::uint8_t> payload);

/// Appends a length-prefixed frame around `payload` to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Attempts to slice one complete frame off the front of `buffer`.
/// Returns {total frame bytes, payload span into `buffer`} when a full frame
/// is present, nullopt when more bytes are needed, and throws ProtocolError
/// when the length prefix is malformed or exceeds kMaxFramePayload.
std::optional<std::pair<std::size_t, std::span<const std::uint8_t>>>
try_parse_frame(std::span<const std::uint8_t> buffer);

}  // namespace rp::serve
