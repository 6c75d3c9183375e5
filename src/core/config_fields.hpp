// Config-from-spec plumbing: a registry of the sweepable ScenarioConfig
// fields, addressable by dotted name ("seed", "topology.access_count", ...).
//
// The sweep engine (src/sweep), rpsweep specs, and any future config file
// format all need the same two operations — set a field from a string token
// and read it back in canonical form — without every tool growing its own
// if/else ladder over the config struct. The registry keeps the mapping in
// one place; adding a ScenarioConfig knob means adding one table row here.
//
// Parsing is strict: the whole token must be consumed and the value must lie
// in the field's domain, otherwise std::invalid_argument names the field and
// the offending token (sweep specs surface these messages with line numbers).
#pragma once

#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "core/scenario.hpp"

namespace rp::core {

/// The values a field accepts: [min, max], or (min, max] when min_open.
/// `integral` fields (counts, the seed, flags) take whole numbers only.
struct FieldDomain {
  double min = 0.0;
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool integral = false;
};

/// One settable/readable ScenarioConfig field.
struct ConfigField {
  std::string_view name;         ///< Dotted name, e.g. "topology.tier2_count".
  std::string_view description;  ///< One line, for `rpsweep fields` and docs.
  FieldDomain domain;
  void (*set)(ScenarioConfig&, std::string_view value);
  std::string (*get)(const ScenarioConfig&);
  double (*value)(const ScenarioConfig&);
};

/// Every registered field, sorted by name.
std::span<const ConfigField> scenario_config_fields();

/// Looks a field up by name; nullptr when unknown.
const ConfigField* find_config_field(std::string_view name);

/// Sets `name` to `value` on `config`. Throws std::invalid_argument naming
/// the field when the name is unknown or the value does not parse or lies
/// outside the field's domain; `config` is then left unchanged.
void set_config_field(ScenarioConfig& config, std::string_view name,
                      std::string_view value);

/// Throws std::invalid_argument naming the first field whose value lies
/// outside its domain (for configs assembled without set_config_field, such
/// as decoded snapshots).
void validate_config(const ScenarioConfig& config);

/// Reads a field back in canonical token form (what set_config_field
/// accepts). Throws std::invalid_argument when the name is unknown.
std::string get_config_field(const ScenarioConfig& config,
                             std::string_view name);

/// The shared "fast" shrink used by rpworld --fast, rpstat --fast, and
/// RP_BENCH_FAST=1: caps membership_scale at 0.10 and shrinks the topology
/// class counts ~10x, keeping every study shape intact at smoke runtime.
void apply_fast_mode(ScenarioConfig& config);

}  // namespace rp::core
