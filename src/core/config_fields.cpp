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

// The domains, from how the world build reads each field.
constexpr FieldDomain kWhole{.integral = true};     // counts, the seed
constexpr FieldDomain kAtLeastOne{.min = 1.0, .integral = true};
constexpr FieldDomain kFlag{.max = 1.0, .integral = true};
constexpr FieldDomain kPositive{.min_open = true};  // scales, shapes, sizes
constexpr FieldDomain kProbability{.max = 1.0};
// The provider sampler draws 1 + up to 3 extra providers.
constexpr FieldDomain kProviderMean{.min = 1.0, .max = 4.0};

std::string expected(const FieldDomain& d) {
  std::string out = d.integral ? "expected an integer" : "expected a number";
  if (std::isinf(d.max))
    return out + (d.min_open ? " > " : " >= ") + util::format_double(d.min);
  return out + (d.min_open ? " in (" : " in [") + util::format_double(d.min) +
         ", " + util::format_double(d.max) + "]";
}

void check_domain(const ConfigField& field, const ScenarioConfig& config,
                  std::string_view token) {
  const FieldDomain& d = field.domain;
  const double v = field.value(config);
  // NaN fails every comparison; an infinity reaches here only from a
  // decoded snapshot, since the token parsers reject both.
  const bool above_min = d.min_open ? v > d.min : v >= d.min;
  if (std::isfinite(v) && above_min && v <= d.max &&
      (!d.integral || v == std::floor(v)))
    return;
  bad_value(field.name, token, expected(d).c_str());
}

std::string print_bool(bool b) { return b ? "1" : "0"; }

// Table-row helpers: each expands to the three function pointers for one
// member (set from a token, get as a token, the value the domain check
// reads), so a row stays a one-liner and the member is named exactly once.
#define RP_FIELD(member, parse, print)                                    \
  [](ScenarioConfig& c, std::string_view v) {                             \
    c.member = static_cast<decltype(c.member)>(parse(#member, v));        \
  },                                                                      \
      [](const ScenarioConfig& c) { return print(c.member); },            \
      [](const ScenarioConfig& c) { return static_cast<double>(c.member); }
#define RP_FIELD_U64(member) RP_FIELD(member, parse_u64, std::to_string)
#define RP_FIELD_DOUBLE(member) \
  RP_FIELD(member, parse_double, util::format_double)
#define RP_FIELD_BOOL(member) RP_FIELD(member, parse_bool, print_bool)

// Sorted by name (find_config_field binary-searches).
constexpr ConfigField kFields[] = {
    {"appetite_alpha", "Pareto shape of the per-network IXP appetite",
     kPositive, RP_FIELD_DOUBLE(appetite_alpha)},
    {"euroix", "1: 65-IXP Euro-IX universe; 0: Table 1's 22 IXPs",
     kFlag, RP_FIELD_BOOL(euroix)},
    {"measure_all_ixps", "1: looking glass (and campaign) at every IXP",
     kFlag, RP_FIELD_BOOL(measure_all_ixps)},
    {"member_pool_size", "distinct networks that peer publicly anywhere",
     kPositive, RP_FIELD_DOUBLE(member_pool_size)},
    {"membership_scale", "scale factor on all IXP member counts",
     kPositive, RP_FIELD_DOUBLE(membership_scale)},
    {"partner_ixp_share", "remote attachments over partner-IXP interconnects",
     kProbability, RP_FIELD_DOUBLE(partner_ixp_share)},
    {"probe_headroom", "probed interfaces per IXP vs Table 1's analyzed",
     kPositive, RP_FIELD_DOUBLE(probe_headroom)},
    {"seed", "the world seed; every stage derives from it",
     kWhole, RP_FIELD_U64(seed)},
    {"topology.access_count", "access/eyeball AS count",
     kWhole, RP_FIELD_U64(topology.access_count)},
    {"topology.cdn_count", "CDN AS count",
     kWhole, RP_FIELD_U64(topology.cdn_count)},
    {"topology.content_count", "content AS count",
     kWhole, RP_FIELD_U64(topology.content_count)},
    {"topology.enterprise_count", "enterprise AS count",
     kWhole, RP_FIELD_U64(topology.enterprise_count)},
    {"topology.multihoming_mean", "mean transit providers per multihomed AS",
     kProviderMean, RP_FIELD_DOUBLE(topology.multihoming_mean)},
    {"topology.nren_count", "NREN AS count",
     kAtLeastOne, RP_FIELD_U64(topology.nren_count)},
    {"topology.tier1_count", "tier-1 clique size",
     kAtLeastOne, RP_FIELD_U64(topology.tier1_count)},
    {"topology.tier2_count", "regional tier-2 transit provider count",
     kWhole, RP_FIELD_U64(topology.tier2_count)},
    {"vantage_cdn_peerings", "top CDNs the vantage privately peers with",
     kWhole, RP_FIELD_U64(vantage_cdn_peerings)},
};

#undef RP_FIELD
#undef RP_FIELD_U64
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
  ScenarioConfig next = config;
  field->set(next, value);
  check_domain(*field, next, value);
  config = next;
}

void validate_config(const ScenarioConfig& config) {
  for (const ConfigField& field : kFields)
    check_domain(field, config, field.get(config));
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
