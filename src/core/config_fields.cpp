#include "core/config_fields.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace rp::core {
namespace {

[[noreturn]] void bad_value(std::string_view field, std::string_view value,
                            const char* expected) {
  throw std::invalid_argument("config field '" + std::string(field) +
                              "': bad value '" + std::string(value) + "' (" +
                              expected + ")");
}

std::uint64_t parse_u64(std::string_view field, std::string_view value) {
  if (const auto out = util::parse_exact<std::uint64_t>(value)) return *out;
  bad_value(field, value, "expected an unsigned integer");
}

double parse_double(std::string_view field, std::string_view value) {
  const auto out = util::parse_exact<double>(value);
  if (!out) bad_value(field, value, "expected a number");
  // NaN and the infinities parse, but no knob has a meaning for them: a NaN
  // membership scale would still build a (wrong) world.
  if (!std::isfinite(*out))
    bad_value(field, value, "expected a finite number");
  return *out;
}

bool parse_bool(std::string_view field, std::string_view value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  bad_value(field, value, "expected 0/1/true/false");
}

// Table-row helpers: each macro expands to the two function pointers for one
// member, so a row stays a one-liner and the member is named exactly once.
#define RP_FIELD_U64(member)                                              \
  [](ScenarioConfig& c, std::string_view v) {                             \
    c.member = parse_u64(#member, v);                                     \
  },                                                                      \
      [](const ScenarioConfig& c) { return std::to_string(c.member); }
#define RP_FIELD_SIZE(member)                                             \
  [](ScenarioConfig& c, std::string_view v) {                             \
    c.member = static_cast<std::size_t>(parse_u64(#member, v));           \
  },                                                                      \
      [](const ScenarioConfig& c) { return std::to_string(c.member); }
#define RP_FIELD_DOUBLE(member)                                           \
  [](ScenarioConfig& c, std::string_view v) {                             \
    c.member = parse_double(#member, v);                                  \
  },                                                                      \
      [](const ScenarioConfig& c) { return util::format_double(c.member); }
#define RP_FIELD_BOOL(member)                                             \
  [](ScenarioConfig& c, std::string_view v) {                             \
    c.member = parse_bool(#member, v);                                    \
  },                                                                      \
      [](const ScenarioConfig& c) { return std::string(c.member ? "1" : "0"); }

// Sorted by name (find_config_field binary-searches).
constexpr ConfigField kFields[] = {
    {"appetite_alpha", "Pareto shape of the per-network IXP appetite",
     RP_FIELD_DOUBLE(appetite_alpha)},
    {"euroix", "1: 65-IXP Euro-IX universe; 0: Table 1's 22 IXPs",
     RP_FIELD_BOOL(euroix)},
    {"measure_all_ixps", "1: looking glass (and campaign) at every IXP",
     RP_FIELD_BOOL(measure_all_ixps)},
    {"member_pool_size", "distinct networks that peer publicly anywhere",
     RP_FIELD_DOUBLE(member_pool_size)},
    {"membership_scale", "scale factor on all IXP member counts",
     RP_FIELD_DOUBLE(membership_scale)},
    {"partner_ixp_share", "remote attachments over partner-IXP interconnects",
     RP_FIELD_DOUBLE(partner_ixp_share)},
    {"probe_headroom", "probed interfaces per IXP vs Table 1's analyzed",
     RP_FIELD_DOUBLE(probe_headroom)},
    {"seed", "the world seed; every stage derives from it",
     RP_FIELD_U64(seed)},
    {"topology.access_count", "access/eyeball AS count",
     RP_FIELD_SIZE(topology.access_count)},
    {"topology.cdn_count", "CDN AS count", RP_FIELD_SIZE(topology.cdn_count)},
    {"topology.content_count", "content AS count",
     RP_FIELD_SIZE(topology.content_count)},
    {"topology.enterprise_count", "enterprise AS count",
     RP_FIELD_SIZE(topology.enterprise_count)},
    {"topology.multihoming_mean", "mean transit providers per multihomed AS",
     RP_FIELD_DOUBLE(topology.multihoming_mean)},
    {"topology.nren_count", "NREN AS count",
     RP_FIELD_SIZE(topology.nren_count)},
    {"topology.tier1_count", "tier-1 clique size",
     RP_FIELD_SIZE(topology.tier1_count)},
    {"topology.tier2_count", "regional tier-2 transit provider count",
     RP_FIELD_SIZE(topology.tier2_count)},
    {"vantage_cdn_peerings", "top CDNs the vantage privately peers with",
     RP_FIELD_SIZE(vantage_cdn_peerings)},
};

#undef RP_FIELD_U64
#undef RP_FIELD_SIZE
#undef RP_FIELD_DOUBLE
#undef RP_FIELD_BOOL

}  // namespace

std::span<const ConfigField> scenario_config_fields() { return kFields; }

const ConfigField* find_config_field(std::string_view name) {
  const auto it = std::lower_bound(
      std::begin(kFields), std::end(kFields), name,
      [](const ConfigField& f, std::string_view n) { return f.name < n; });
  if (it == std::end(kFields) || it->name != name) return nullptr;
  return &*it;
}

void set_config_field(ScenarioConfig& config, std::string_view name,
                      std::string_view value) {
  const ConfigField* field = find_config_field(name);
  if (field == nullptr)
    throw std::invalid_argument("unknown config field '" + std::string(name) +
                                "'");
  field->set(config, value);
}

std::string get_config_field(const ScenarioConfig& config,
                             std::string_view name) {
  const ConfigField* field = find_config_field(name);
  if (field == nullptr)
    throw std::invalid_argument("unknown config field '" + std::string(name) +
                                "'");
  return field->get(config);
}

void apply_fast_mode(ScenarioConfig& config) {
  config.membership_scale = std::min(config.membership_scale, 0.10);
  config.topology.tier2_count = 30;
  config.topology.access_count = 150;
  config.topology.content_count = 40;
  config.topology.cdn_count = 8;
  config.topology.nren_count = 6;
  config.topology.enterprise_count = 80;
}

}  // namespace rp::core
