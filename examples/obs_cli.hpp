// Shared command-line handling for the example binaries: --metrics /
// --trace, and the one parser for numeric flag values.
//
// Examples call strip_obs_flags(argc, argv) first thing in main: it removes
// the two observability flags from argv (so subcommand parsers never see
// them), enables the metrics registry and/or opens a trace session, and
// returns what it did so finish_obs can flush on exit. RP_METRICS=1 and
// RP_TRACE=<file> behave like the flags without touching the command line.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/config_fields.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace rp::examples {

struct ObsOptions {
  bool metrics = false;       ///< Print the metrics table on exit.
  std::string trace_path;     ///< Non-empty: write a Perfetto trace here.
};

/// Strips `--metrics` and `--trace FILE` out of argv in place, arming the
/// requested instrumentation. Call before any subcommand parsing.
inline ObsOptions strip_obs_flags(int& argc, char** argv) {
  ObsOptions opts;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") {
      opts.metrics = true;
      continue;
    }
    if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --trace needs a file argument\n", argv[0]);
        std::exit(2);
      }
      opts.trace_path = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
  if (opts.metrics || obs::metrics_env_requested())
    obs::set_metrics_enabled(true);
  if (!opts.trace_path.empty() && !obs::start_trace(opts.trace_path)) {
    // RP_TRACE already opened a session; the explicit flag wins.
    obs::stop_trace();
    obs::start_trace(opts.trace_path);
  }
  return opts;
}

/// Renders the metrics table (when requested) and flushes the trace file.
/// Call once, at the end of main.
inline void finish_obs(const ObsOptions& opts) {
  if (opts.metrics) {
    std::printf("\n");
    obs::dump_global_metrics(std::cout);
  }
  if (!opts.trace_path.empty()) {
    const std::size_t events = obs::stop_trace();
    std::fprintf(stderr, "trace: wrote %zu events to %s\n", events,
                 opts.trace_path.c_str());
  }
}

/// The value of numeric flag `flag`: the whole text must be a T, with no
/// wrap-around, overflow, trailing junk or non-finite double. Anything else
/// is a usage error, so this prints what the flag wants and exits 2.
template <typename T>
T parse_flag(const char* program, std::string_view flag, const char* text) {
  const auto parsed = util::parse_exact<T>(text);
  if constexpr (std::is_floating_point_v<T>) {
    if (parsed && std::isfinite(*parsed)) return *parsed;
    std::fprintf(stderr, "%s: %.*s wants a finite number, got '%s'\n",
                 program, static_cast<int>(flag.size()), flag.data(), text);
  } else {
    if (parsed) return *parsed;
    std::fprintf(stderr, "%s: %.*s wants an integer in [%jd, %ju], got '%s'\n",
                 program, static_cast<int>(flag.size()), flag.data(),
                 static_cast<std::intmax_t>(std::numeric_limits<T>::min()),
                 static_cast<std::uintmax_t>(std::numeric_limits<T>::max()),
                 text);
  }
  std::exit(2);
}

/// A --scale value: parsed and checked like the membership_scale config
/// field, so the flag accepts exactly what a sweep or the daemon would.
inline double parse_scale_flag(const char* program, std::string_view flag,
                               const char* text) {
  core::ScenarioConfig config;
  try {
    core::set_config_field(config, "membership_scale", text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %.*s: %s\n", program,
                 static_cast<int>(flag.size()), flag.data(), e.what());
    std::exit(2);
  }
  return config.membership_scale;
}

}  // namespace rp::examples
