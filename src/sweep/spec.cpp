#include "sweep/spec.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config_fields.hpp"
#include "evolve/timeline.hpp"
#include "io/container.hpp"
#include "util/strings.hpp"

namespace rp::sweep {
namespace {

/// The epoch-selector pseudo-field: valid only as an axis of a spec that
/// embeds a timeline; values are epoch indices into it.
constexpr std::string_view kEpochField = "evolve.epoch";

// The paper's §5 symbols. Sorted by name (find_econ_field binary-searches).
constexpr EconField kEconFields[] = {
    {"econ.b", "decay of the transit fraction with reached IXPs (eq. 3)",
     &econ::CostParameters::decay},
    {"econ.g", "per-IXP fixed cost of direct peering",
     &econ::CostParameters::direct_fixed},
    {"econ.h", "per-IXP fixed cost of remote peering",
     &econ::CostParameters::remote_fixed},
    {"econ.p", "per-unit transit price (the normalizer)",
     &econ::CostParameters::transit_price},
    {"econ.u", "per-unit cost of direct peering",
     &econ::CostParameters::direct_unit},
    {"econ.v", "per-unit cost of remote peering",
     &econ::CostParameters::remote_unit},
};

[[noreturn]] void bad_spec(std::size_t line, const std::string& what) {
  throw std::invalid_argument("sweep spec line " + std::to_string(line) +
                              ": " + what);
}

double parse_double_or(std::string_view field, std::string_view value) {
  if (const auto out = util::parse_exact<double>(value)) return *out;
  throw std::invalid_argument("field '" + std::string(field) +
                              "': bad value '" + std::string(value) + "'");
}

std::uint64_t parse_count(std::size_t line, const std::string& key,
                          std::string_view value) {
  if (const auto out = util::parse_exact<std::uint64_t>(value)) return *out;
  bad_spec(line, key + " wants an unsigned integer, got '" +
                     std::string(value) + "'");
}

/// Expands a "lin:<lo>:<hi>:<n>" shorthand; returns false when `token` is
/// not one.
bool expand_linear(const std::string& token, std::vector<double>& out) {
  if (token.rfind("lin:", 0) != 0) return false;
  double lo = 0.0, hi = 0.0;
  std::uint64_t n = 0;
  const std::string body = token.substr(4);
  const auto first = body.find(':');
  const auto second = body.find(':', first == std::string::npos
                                          ? std::string::npos
                                          : first + 1);
  if (first == std::string::npos || second == std::string::npos)
    throw std::invalid_argument("malformed range '" + token +
                                "' (want lin:<lo>:<hi>:<n>)");
  lo = parse_double_or("lin", body.substr(0, first));
  hi = parse_double_or("lin", body.substr(first + 1, second - first - 1));
  n = parse_count(0, "lin:<n>", body.substr(second + 1));
  if (n == 0) throw std::invalid_argument("range '" + token + "' is empty");
  if (n == 1 && lo != hi)
    throw std::invalid_argument("range '" + token +
                                "' has one point but lo != hi");
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double t = n == 1 ? 0.0
                            : static_cast<double>(i) /
                                  static_cast<double>(n - 1);
    out.push_back(lo + (hi - lo) * t);
  }
  return true;
}

}  // namespace

std::span<const EconField> econ_fields() { return kEconFields; }

const EconField* find_econ_field(std::string_view name) {
  const auto it = std::lower_bound(
      std::begin(kEconFields), std::end(kEconFields), name,
      [](const EconField& f, std::string_view n) { return f.name < n; });
  if (it == std::end(kEconFields) || it->name != name) return nullptr;
  return &*it;
}

bool is_sweepable_field(std::string_view name) {
  return find_econ_field(name) != nullptr ||
         core::find_config_field(name) != nullptr;
}

std::string canonical_field_value(std::string_view name,
                                  std::string_view value) {
  if (find_econ_field(name) != nullptr)
    return util::format_double(parse_double_or(name, value));
  // Round-trip through the scenario-config registry: set on a scratch
  // config, read back the canonical token. Throws on unknown field or bad
  // value with the field named.
  core::ScenarioConfig scratch;
  core::set_config_field(scratch, name, value);
  return core::get_config_field(scratch, name);
}

std::size_t SweepSpec::run_count() const {
  std::size_t count = 1;
  for (const auto& axis : axes) count *= axis.values.size();
  return count;
}

SweepSpec parse_sweep_spec(std::string_view text) {
  SweepSpec spec;
  std::istringstream stream{std::string(text)};
  std::string raw;
  std::size_t line_no = 0;
  bool in_timeline = false;
  std::string timeline_text;
  const auto adopt_timeline = [&](const std::string& body) {
    if (!spec.timeline.empty())
      bad_spec(line_no, "duplicate timeline");
    try {
      spec.timeline =
          evolve::canonical_timeline_text(evolve::parse_timeline(body));
    } catch (const std::invalid_argument& e) {
      bad_spec(line_no, std::string("embedded timeline: ") + e.what());
    }
  };
  while (std::getline(stream, raw)) {
    ++line_no;
    if (in_timeline) {
      // Raw lines (no comment stripping) until the end marker: the block is
      // timeline grammar, not spec grammar.
      if (raw == "timeline-end") {
        in_timeline = false;
        adopt_timeline(timeline_text);
        continue;
      }
      timeline_text += raw;
      timeline_text += '\n';
      continue;
    }
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::vector<std::string> tokens = util::split_tokens(raw);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];
    const auto want = [&](std::size_t n) {
      if (tokens.size() != n + 1)
        bad_spec(line_no, key + " wants " + std::to_string(n) +
                              " value(s), got " +
                              std::to_string(tokens.size() - 1));
    };
    if (key == "name") {
      want(1);
      spec.name = tokens[1];
    } else if (key == "group") {
      want(1);
      const std::uint64_t g = parse_count(line_no, "group", tokens[1]);
      if (g < 1 || g > 4) bad_spec(line_no, "group must be 1..4");
      spec.group = static_cast<int>(g);
    } else if (key == "steps") {
      want(1);
      spec.steps = parse_count(line_no, "steps", tokens[1]);
      if (spec.steps == 0) bad_spec(line_no, "steps must be >= 1");
    } else if (key == "days") {
      want(1);
      spec.days = parse_count(line_no, "days", tokens[1]);
      if (spec.days == 0) bad_spec(line_no, "days must be >= 1");
    } else if (key == "fast") {
      want(1);
      if (tokens[1] != "0" && tokens[1] != "1")
        bad_spec(line_no, "fast must be 0 or 1");
      spec.fast = tokens[1] == "1";
    } else if (key == "base") {
      want(2);
      if (!is_sweepable_field(tokens[1]))
        bad_spec(line_no, "unknown field '" + tokens[1] + "'");
      try {
        spec.base.emplace_back(tokens[1],
                               canonical_field_value(tokens[1], tokens[2]));
      } catch (const std::invalid_argument& e) {
        bad_spec(line_no, e.what());
      }
    } else if (key == "axis") {
      if (tokens.size() < 3) bad_spec(line_no, "axis wants a field + values");
      SweepAxis axis;
      axis.field = tokens[1];
      if (axis.field != kEpochField && !is_sweepable_field(axis.field))
        bad_spec(line_no, "unknown field '" + axis.field + "'");
      for (const auto& existing : spec.axes)
        if (existing.field == axis.field)
          bad_spec(line_no, "duplicate axis '" + axis.field + "'");
      try {
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          if (axis.field == kEpochField) {
            axis.values.push_back(std::to_string(
                parse_count(line_no, "evolve.epoch", tokens[i])));
            continue;
          }
          std::vector<double> range;
          if (expand_linear(tokens[i], range)) {
            for (const double v : range)
              axis.values.push_back(
                  canonical_field_value(axis.field, util::format_double(v)));
          } else {
            axis.values.push_back(
                canonical_field_value(axis.field, tokens[i]));
          }
        }
      } catch (const std::invalid_argument& e) {
        bad_spec(line_no, e.what());
      }
      spec.axes.push_back(std::move(axis));
    } else if (key == "timeline") {
      want(1);
      std::ifstream file(tokens[1]);
      if (!file)
        bad_spec(line_no, "cannot read timeline file '" + tokens[1] + "'");
      std::ostringstream body;
      body << file.rdbuf();
      adopt_timeline(body.str());
    } else if (key == "timeline-begin") {
      want(0);
      in_timeline = true;
      timeline_text.clear();
    } else {
      bad_spec(line_no, "unknown key '" + key + "'");
    }
  }
  if (in_timeline)
    bad_spec(line_no, "timeline-begin without timeline-end");

  // Cross-line validation: the epoch axis and the timeline need each other,
  // and a timeline spec must not also re-pin the world it evolves.
  const SweepAxis* epoch_axis = nullptr;
  for (const auto& axis : spec.axes)
    if (axis.field == kEpochField) epoch_axis = &axis;
  if (epoch_axis != nullptr && spec.timeline.empty())
    throw std::invalid_argument(
        "sweep spec: an evolve.epoch axis needs a timeline line");
  if (!spec.timeline.empty()) {
    if (epoch_axis == nullptr)
      throw std::invalid_argument(
          "sweep spec: a timeline needs an evolve.epoch axis (else nothing "
          "selects the epochs)");
    const std::size_t epochs =
        evolve::parse_timeline(spec.timeline).epochs.size();
    for (const auto& value : epoch_axis->values)
      if (std::strtoull(value.c_str(), nullptr, 10) >= epochs)
        throw std::invalid_argument("sweep spec: evolve.epoch " + value +
                                    " out of range (timeline has " +
                                    std::to_string(epochs) + " epochs)");
    const auto reject_world_field = [](const std::string& field) {
      if (field != kEpochField && find_econ_field(field) == nullptr)
        throw std::invalid_argument(
            "sweep spec: field '" + field +
            "' conflicts with the timeline (its fast/base lines pin the "
            "world; sweep econ.* or evolve.epoch)");
    };
    for (const auto& [field, value] : spec.base) reject_world_field(field);
    for (const auto& axis : spec.axes) reject_world_field(axis.field);
  }
  return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read sweep spec: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_sweep_spec(text.str());
}

std::string canonical_spec_text(const SweepSpec& spec) {
  std::ostringstream out;
  out << "name " << spec.name << "\n";
  out << "group " << spec.group << "\n";
  out << "steps " << spec.steps << "\n";
  out << "days " << spec.days << "\n";
  out << "fast " << (spec.fast ? 1 : 0) << "\n";
  if (!spec.timeline.empty())
    out << "timeline-begin\n" << spec.timeline << "timeline-end\n";
  for (const auto& [field, value] : spec.base)
    out << "base " << field << " " << value << "\n";
  for (const auto& axis : spec.axes) {
    out << "axis " << axis.field;
    for (const auto& value : axis.values) out << " " << value;
    out << "\n";
  }
  return out.str();
}

std::string spec_digest_hex(const SweepSpec& spec) {
  return io::digest_hex(io::fnv1a64(canonical_spec_text(spec)));
}

std::vector<SweepRun> expand_runs(const SweepSpec& spec) {
  const std::size_t total = spec.run_count();
  std::vector<SweepRun> runs;
  runs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    SweepRun run;
    run.index = i;
    run.values.resize(spec.axes.size());
    // Mixed-radix decomposition, last axis fastest.
    std::size_t rest = i;
    for (std::size_t a = spec.axes.size(); a > 0; --a) {
      const auto& axis = spec.axes[a - 1];
      run.values[a - 1] = axis.values[rest % axis.values.size()];
      rest /= axis.values.size();
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

MaterializedRun materialize_run(const SweepSpec& spec, const SweepRun& run,
                                const econ::CostParameters* base_prices) {
  MaterializedRun out;
  if (base_prices != nullptr) out.prices = *base_prices;
  if (!spec.timeline.empty())
    out.config = evolve::parse_timeline(spec.timeline).base_config();
  else if (spec.fast)
    core::apply_fast_mode(out.config);
  const auto apply = [&](const std::string& field, const std::string& value) {
    if (field == kEpochField) {
      out.has_epoch = true;
      out.epoch = std::strtoull(value.c_str(), nullptr, 10);
      return;
    }
    if (const EconField* econ = find_econ_field(field)) {
      out.prices.*(econ->member) = parse_double_or(field, value);
      if (field == "econ.b") out.decay_pinned = true;
      return;
    }
    core::set_config_field(out.config, field, value);
  };
  for (const auto& [field, value] : spec.base) apply(field, value);
  for (std::size_t a = 0; a < spec.axes.size(); ++a)
    apply(spec.axes[a].field, run.values[a]);
  return out;
}

}  // namespace rp::sweep
