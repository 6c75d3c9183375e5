#include "evolve/timeline.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/config_fields.hpp"
#include "io/container.hpp"
#include "util/strings.hpp"

namespace rp::evolve {
namespace {

[[noreturn]] void bad_timeline(std::size_t line, const std::string& what) {
  throw std::invalid_argument("timeline line " + std::to_string(line) + ": " +
                              what);
}

double parse_double(std::size_t line, const std::string& what,
                    std::string_view token) {
  if (const auto out = util::parse_exact<double>(token)) return *out;
  bad_timeline(line, what + " wants a number, got '" + std::string(token) +
                         "'");
}

std::uint64_t parse_count(std::size_t line, const std::string& what,
                          std::string_view token) {
  if (const auto out = util::parse_exact<std::uint64_t>(token)) return *out;
  bad_timeline(line, what + " wants an unsigned integer, got '" +
                         std::string(token) + "'");
}

struct KindSpec {
  std::string_view keyword;
  EventKind kind;
};

constexpr KindSpec kKinds[] = {
    {"join", EventKind::kJoin},
    {"leave", EventKind::kLeave},
    {"new-ixp", EventKind::kNewIxp},
    {"capacity", EventKind::kCapacity},
    {"prices", EventKind::kPrices},
    {"price-decay", EventKind::kPriceDecay},
    {"traffic", EventKind::kTraffic},
    {"outage", EventKind::kOutage},
    {"restore", EventKind::kRestore},
    {"provider-fail", EventKind::kProviderFail},
    {"provider-restore", EventKind::kProviderRestore},
    {"region-cap", EventKind::kRegionCap},
};

const KindSpec* find_kind(std::string_view keyword) {
  for (const KindSpec& spec : kKinds)
    if (spec.keyword == keyword) return &spec;
  return nullptr;
}

/// Parses one event line (tokens[0] is a known keyword). Validates operand
/// counts and ranges so the engine never sees a structurally bad event.
EpochEvent parse_event(std::size_t line, const KindSpec& spec,
                       const std::vector<std::string>& tokens) {
  EpochEvent event;
  event.kind = spec.kind;
  const std::string keyword(spec.keyword);
  const auto want = [&](std::size_t lo, std::size_t hi) {
    const std::size_t got = tokens.size() - 1;
    if (got < lo || got > hi)
      bad_timeline(line, keyword + " wants " + std::to_string(lo) +
                             (hi != lo ? ".." + std::to_string(hi) : "") +
                             " operand(s), got " + std::to_string(got));
  };
  switch (spec.kind) {
    case EventKind::kJoin: {
      want(2, 3);
      event.target = tokens[1];
      event.count = parse_count(line, "join count", tokens[2]);
      if (event.count == 0) bad_timeline(line, "join count must be >= 1");
      double share = 0.25;
      if (tokens.size() == 4)
        share = parse_double(line, "join remote-share", tokens[3]);
      if (share < 0.0 || share > 1.0)
        bad_timeline(line, "join remote-share must be in [0, 1]");
      event.values = {share};
      break;
    }
    case EventKind::kLeave:
      want(2, 2);
      event.target = tokens[1];
      event.count = parse_count(line, "leave count", tokens[2]);
      if (event.count == 0) bad_timeline(line, "leave count must be >= 1");
      break;
    case EventKind::kNewIxp:
      want(3, 3);
      event.target = tokens[1];
      event.like = tokens[2];
      event.values = {parse_double(line, "new-ixp peak-tbps", tokens[3])};
      break;
    case EventKind::kCapacity:
      want(2, 2);
      event.target = tokens[1];
      event.values = {parse_double(line, "capacity peak-tbps", tokens[2])};
      break;
    case EventKind::kPrices: {
      want(5, 5);
      event.values.reserve(5);
      static constexpr const char* kSymbols[] = {"p", "g", "u", "h", "v"};
      for (std::size_t i = 0; i < 5; ++i) {
        const double v = parse_double(
            line, std::string("prices ") + kSymbols[i], tokens[1 + i]);
        if (v <= 0.0)
          bad_timeline(line, std::string("prices ") + kSymbols[i] +
                                 " must be > 0");
        event.values.push_back(v);
      }
      break;
    }
    case EventKind::kPriceDecay:
    case EventKind::kTraffic: {
      want(1, 1);
      const double factor = parse_double(line, keyword + " factor", tokens[1]);
      if (factor <= 0.0) bad_timeline(line, keyword + " factor must be > 0");
      event.values = {factor};
      break;
    }
    case EventKind::kOutage:
    case EventKind::kRestore:
    case EventKind::kProviderFail:
    case EventKind::kProviderRestore:
      want(1, 1);
      event.target = tokens[1];
      break;
    case EventKind::kRegionCap: {
      want(2, 2);
      event.target = tokens[1];
      const double factor =
          parse_double(line, "region-cap factor", tokens[2]);
      if (factor <= 0.0 || factor > 1.0)
        bad_timeline(line, "region-cap factor must be in (0, 1]");
      event.values = {factor};
      break;
    }
  }
  return event;
}

std::string canonical_event_text(const EpochEvent& event) {
  std::string out(event_keyword(event.kind));
  if (!event.target.empty()) {
    out += ' ';
    out += event.target;
  }
  if (!event.like.empty()) {
    out += ' ';
    out += event.like;
  }
  if (event.kind == EventKind::kJoin || event.kind == EventKind::kLeave) {
    out += ' ';
    out += std::to_string(event.count);
  }
  for (const double v : event.values) {
    out += ' ';
    out += util::format_double(v);
  }
  return out;
}

}  // namespace

std::string_view event_keyword(EventKind kind) {
  for (const KindSpec& spec : kKinds)
    if (spec.kind == kind) return spec.keyword;
  return "?";
}

core::ScenarioConfig Timeline::base_config() const {
  core::ScenarioConfig config;
  if (fast) core::apply_fast_mode(config);
  for (const auto& [field, value] : base)
    core::set_config_field(config, field, value);
  return config;
}

std::size_t Timeline::event_count() const {
  std::size_t count = 0;
  for (const TimelineEpoch& epoch : epochs) count += epoch.events.size();
  return count;
}

Timeline parse_timeline(std::string_view text) {
  Timeline timeline;
  std::istringstream stream{std::string(text)};
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::vector<std::string> tokens = util::split_tokens(raw);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];
    const auto want = [&](std::size_t n) {
      if (tokens.size() != n + 1)
        bad_timeline(line_no, key + " wants " + std::to_string(n) +
                                  " value(s), got " +
                                  std::to_string(tokens.size() - 1));
    };
    if (key == "name") {
      want(1);
      timeline.name = tokens[1];
    } else if (key == "fast") {
      want(1);
      if (tokens[1] != "0" && tokens[1] != "1")
        bad_timeline(line_no, "fast must be 0 or 1");
      timeline.fast = tokens[1] == "1";
    } else if (key == "base") {
      want(2);
      if (!timeline.epochs.empty())
        bad_timeline(line_no, "base lines must precede the first epoch");
      try {
        // Round-trip through the config registry for the canonical token;
        // throws (with the field named) on unknown fields or bad values.
        core::ScenarioConfig scratch;
        core::set_config_field(scratch, tokens[1], tokens[2]);
        timeline.base.emplace_back(tokens[1],
                                   core::get_config_field(scratch, tokens[1]));
      } catch (const std::invalid_argument& e) {
        bad_timeline(line_no, e.what());
      }
    } else if (key == "epoch") {
      want(1);
      for (const TimelineEpoch& epoch : timeline.epochs)
        if (epoch.label == tokens[1])
          bad_timeline(line_no, "duplicate epoch label '" + tokens[1] + "'");
      timeline.epochs.push_back(TimelineEpoch{tokens[1], {}});
    } else if (const KindSpec* spec = find_kind(key)) {
      if (timeline.epochs.empty())
        bad_timeline(line_no, "event '" + key + "' outside any epoch");
      timeline.epochs.back().events.push_back(
          parse_event(line_no, *spec, tokens));
    } else {
      bad_timeline(line_no, "unknown keyword '" + key + "'");
    }
  }
  return timeline;
}

Timeline load_timeline(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read timeline: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_timeline(text.str());
}

std::string canonical_timeline_text(const Timeline& timeline) {
  std::ostringstream out;
  out << "name " << timeline.name << "\n";
  out << "fast " << (timeline.fast ? 1 : 0) << "\n";
  for (const auto& [field, value] : timeline.base)
    out << "base " << field << " " << value << "\n";
  for (const TimelineEpoch& epoch : timeline.epochs) {
    out << "epoch " << epoch.label << "\n";
    for (const EpochEvent& event : epoch.events)
      out << canonical_event_text(event) << "\n";
  }
  return out.str();
}

std::string timeline_digest_hex(const Timeline& timeline) {
  return io::digest_hex(io::fnv1a64(canonical_timeline_text(timeline)));
}

}  // namespace rp::evolve
