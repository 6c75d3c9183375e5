// rpq — query client for rpserve-daemon.
//
// Usage:
//   rpq [--host H] [--port N] [--fast] [--set field=value]... <command> ...
//
// Commands:
//   ping [TOKEN]                     round-trip check (token echoed)
//   world-info                       resident-world summary + cache outcome
//   offload-curve [--group N] [--steps N]
//   viability [--decay B] [--prices p,g,u,h,v]
//                                    fitted decay by default; --decay pins it
//   spread                           §3 measurement-study report
//   what-if-econ --variant p,g,u,h,v [--prices p,g,u,h,v]
//   what-if-peering --add IXP[,IXP...] [--reached IXP[,IXP...]] [--group N]
//   world-at-epoch --timeline FILE --epoch K
//                                    replay the timeline over its base world
//                                    and report epoch K's composition
//   epoch-series --timeline FILE [--group N] [--steps N]
//                                    one composition + offload block per epoch
//   badframe                         send a deliberately malformed frame
//                                    (expects the daemon to hang up; exit 0)
//   stats [--json|--prom] [--window N]
//                                    live daemon stats: queue/pool occupancy,
//                                    per-request-type p50/p99, slow-query
//                                    log, and the last N points of every
//                                    recorded time series (default 8; 0 for
//                                    none). --json emits one flat object;
//                                    --prom emits Prometheus text exposition.
//   top [--interval MS] [--count N]  poll stats and render a live view with
//                                    request rates (default: 1000 ms forever;
//                                    --count bounds the refreshes)
//   shutdown                         ask the daemon to exit
//
// --fast and --set pick the world: they resolve to a ScenarioConfig exactly
// like the daemon does, so equal flags land on the same warm world.
//
// Output: one "key = value" line per response field, in protocol order.
//
// Exit codes: 0 ok, 1 daemon returned an error, 2 usage, 3 cannot connect /
// socket error, 4 protocol violation in the response, 5 daemon busy.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "evolve/timeline.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "util/strings.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port N] [--fast] [--set field=value]...\n"
      "       <ping|world-info|offload-curve|viability|spread|what-if-econ|"
      "what-if-peering|world-at-epoch|epoch-series|badframe|stats|top|"
      "shutdown> [options]\n",
      argv0);
  return 2;
}

bool parse_prices(const std::string& text, rp::serve::EconPrices& prices) {
  return std::sscanf(text.c_str(), "%lf,%lf,%lf,%lf,%lf", &prices.p,
                     &prices.g, &prices.u, &prices.h, &prices.v) == 5;
}

void print_stats_json(const rp::serve::Response& response) {
  // Numeric values and the "null" the daemon emits for absent quantiles
  // (empty-histogram types) pass through verbatim; everything else (hex
  // digests — including all-digit ones a lenient parse would misread — and
  // comma-joined windows) becomes a JSON string.
  std::vector<rp::obs::json::Entry> entries;
  entries.reserve(response.fields.size());
  for (const auto& [key, value] : response.fields)
    entries.emplace_back(
        key, value == "null" || rp::obs::is_canonical_number(value)
                 ? value
                 : '"' + rp::obs::json::escape(value) + '"');
  rp::obs::json::write_flat_object(std::cout, entries);
}

double field_number(const rp::serve::Response& response,
                    std::string_view key) {
  const std::string_view v = response.field(key);
  return v.empty() ? 0.0 : std::strtod(std::string(v).c_str(), nullptr);
}

// One `rpq top` refresh: request rate from the stats.completed delta across
// polls, plus the load-bearing occupancy numbers and per-type counts.
void render_top(const rp::serve::Response& response, double req_per_s) {
  std::printf("uptime %.1fs   completed %.0f   %.1f req/s\n",
              field_number(response, "stats.uptime_s"),
              field_number(response, "stats.completed"), req_per_s);
  std::printf("queue  %.0f/%.0f (high water %.0f)   pool %.0f/%.0f worlds\n",
              field_number(response, "queue.depth"),
              field_number(response, "queue.capacity"),
              field_number(response, "queue.high_water"),
              field_number(response, "pool.resident"),
              field_number(response, "pool.capacity"));
  for (const auto& [key, value] : response.fields) {
    if (key.rfind("req.", 0) != 0 || key.size() < 7 ||
        key.compare(key.size() - 6, 6, ".count") != 0)
      continue;
    const std::string type = key.substr(4, key.size() - 10);
    const std::string p50_key = "req." + type + ".p50_us";
    const std::string p99_key = "req." + type + ".p99_us";
    std::printf("  %-14s %8s reqs   p50 %9.1f us   p99 %9.1f us\n",
                type.c_str(), value.c_str(), field_number(response, p50_key),
                field_number(response, p99_key));
  }
  std::fflush(stdout);
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      if (start < text.size()) parts.push_back(text.substr(start));
      break;
    }
    if (comma > start) parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  // --port wins over RP_SERVE_PORT; whichever supplied the text is named
  // if it is not a port.
  const char* port_text = std::getenv("RP_SERVE_PORT");
  const char* port_source = "RP_SERVE_PORT";

  rp::serve::Request request;
  std::string command;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs an argument\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = value();
    } else if (arg == "--port") {
      port_text = value();
      port_source = "--port";
    } else if (arg == "--fast") {
      request.world.fast = true;
    } else if (arg == "--set") {
      const std::string assignment = value();
      const std::size_t eq = assignment.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "%s: --set wants field=value, got '%s'\n",
                     argv[0], assignment.c_str());
        return 2;
      }
      request.world.fields.emplace_back(assignment.substr(0, eq),
                                        assignment.substr(eq + 1));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      command = arg;
      ++i;
      break;
    }
  }
  if (command.empty()) return usage(argv[0]);
  std::uint16_t port = 0;
  if (port_text != nullptr) {
    const auto parsed = rp::util::parse_exact<std::uint16_t>(port_text);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s wants a port in [1, 65535], got '%s'\n",
                   argv[0], port_source, port_text);
      return 2;
    }
    port = *parsed;
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "%s: no port (use --port or set RP_SERVE_PORT)\n", argv[0]);
    return 2;
  }

  bool badframe = false;
  bool top_mode = false;
  bool json_out = false;
  bool prom_out = false;
  std::uint64_t top_interval_ms = 1000;
  std::uint64_t top_count = 0;  // 0 = poll forever
  if (command == "ping") {
    request.type = rp::serve::RequestType::kPing;
    request.token = "rpq";
    if (i < argc && argv[i][0] != '-') request.token = argv[i++];
  } else if (command == "world-info") {
    request.type = rp::serve::RequestType::kWorldInfo;
  } else if (command == "offload-curve") {
    request.type = rp::serve::RequestType::kOffloadCurve;
  } else if (command == "viability") {
    request.type = rp::serve::RequestType::kViability;
  } else if (command == "spread") {
    request.type = rp::serve::RequestType::kSpread;
  } else if (command == "what-if-econ") {
    request.type = rp::serve::RequestType::kWhatIf;
    request.whatif_mode = 1;
  } else if (command == "what-if-peering") {
    request.type = rp::serve::RequestType::kWhatIf;
    request.whatif_mode = 2;
  } else if (command == "world-at-epoch") {
    request.type = rp::serve::RequestType::kWorldAtEpoch;
  } else if (command == "epoch-series") {
    request.type = rp::serve::RequestType::kEpochSeries;
  } else if (command == "badframe") {
    badframe = true;
  } else if (command == "stats") {
    request.type = rp::serve::RequestType::kStats;
    request.stats_window = 8;
  } else if (command == "top") {
    request.type = rp::serve::RequestType::kStats;
    request.stats_window = 0;
    top_mode = true;
  } else if (command == "shutdown") {
    request.type = rp::serve::RequestType::kShutdown;
  } else {
    std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0],
                 command.c_str());
    return 2;
  }

  bool have_variant = false;
  std::string timeline_path;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs an argument\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--group") {
      request.group = static_cast<std::uint8_t>(std::atoi(value()));
    } else if (arg == "--steps") {
      request.max_steps = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--decay") {
      request.fitted_decay = false;
      request.decay = std::atof(value());
    } else if (arg == "--prices") {
      if (!parse_prices(value(), request.prices)) {
        std::fprintf(stderr, "%s: --prices wants p,g,u,h,v\n", argv[0]);
        return 2;
      }
    } else if (arg == "--variant") {
      if (!parse_prices(value(), request.variant)) {
        std::fprintf(stderr, "%s: --variant wants p,g,u,h,v\n", argv[0]);
        return 2;
      }
      have_variant = true;
    } else if (arg == "--reached") {
      request.reached_ixps = split_commas(value());
    } else if (arg == "--add") {
      request.added_ixps = split_commas(value());
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--prom") {
      prom_out = true;
    } else if (arg == "--window") {
      request.stats_window = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--interval") {
      top_interval_ms =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                         std::atoll(value())));
    } else if (arg == "--count") {
      top_count = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--timeline") {
      timeline_path = value();
    } else if (arg == "--epoch") {
      request.epoch = static_cast<std::uint64_t>(std::atoll(value()));
    } else {
      return usage(argv[0]);
    }
  }
  if (request.type == rp::serve::RequestType::kWhatIf &&
      request.whatif_mode == 1 && !have_variant) {
    std::fprintf(stderr, "%s: what-if-econ needs --variant p,g,u,h,v\n",
                 argv[0]);
    return 2;
  }
  if (request.type == rp::serve::RequestType::kWorldAtEpoch ||
      request.type == rp::serve::RequestType::kEpochSeries) {
    if (timeline_path.empty()) {
      std::fprintf(stderr, "%s: %s needs --timeline FILE\n", argv[0],
                   command.c_str());
      return 2;
    }
    try {
      // Canonical text crosses the wire, and the timeline's fast/base lines
      // become the world spec — so the epoch query lands on the exact warm
      // world the timeline's own base resolves to (any --fast/--set flags
      // are overridden; the timeline is the authority on its base).
      const rp::evolve::Timeline timeline =
          rp::evolve::load_timeline(timeline_path);
      request.timeline = rp::evolve::canonical_timeline_text(timeline);
      request.world.fast = timeline.fast;
      request.world.fields = timeline.base;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }

  try {
    rp::serve::Client client = rp::serve::Client::connect(host, port);
    if (badframe) {
      // A length prefix promising far more than kMaxFramePayload: the daemon
      // must kill this connection (recv sees EOF) and keep running.
      const std::uint8_t poison[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                     0xff, 0xff, 0xff, 0xff, 0x7f};
      client.send_bytes(poison);
      try {
        client.read_payload();
        std::fprintf(stderr, "badframe: daemon answered a malformed frame\n");
        return 4;
      } catch (const rp::serve::ClientError&) {
        std::printf("badframe = connection closed (as it should be)\n");
        return 0;
      }
    }
    if (top_mode) {
      // Poll the stats surface; the request rate is the stats.completed
      // delta between successive polls over the wall time between them.
      double last_completed = -1.0;
      auto last_poll = std::chrono::steady_clock::now();
      for (std::uint64_t tick = 0; top_count == 0 || tick < top_count;
           ++tick) {
        if (tick != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(top_interval_ms));
        }
        const rp::serve::Response response = client.call(request);
        if (response.status != rp::serve::Status::kOk) {
          std::fprintf(stderr, "error: %s\n", response.message.c_str());
          return 1;
        }
        const auto now = std::chrono::steady_clock::now();
        const double completed = field_number(response, "stats.completed");
        double rate = 0.0;
        if (last_completed >= 0.0) {
          const double dt =
              std::chrono::duration<double>(now - last_poll).count();
          if (dt > 0.0) rate = std::max(0.0, (completed - last_completed) / dt);
        }
        last_completed = completed;
        last_poll = now;
        if (tick != 0) std::printf("\n");
        render_top(response, rate);
      }
      return 0;
    }
    const rp::serve::Response response = client.call(request);
    switch (response.status) {
      case rp::serve::Status::kOk:
        if (json_out) {
          print_stats_json(response);
        } else if (prom_out) {
          rp::obs::write_prometheus(std::cout, response.fields);
        } else {
          for (const auto& [key, val] : response.fields)
            std::printf("%s = %s\n", key.c_str(), val.c_str());
        }
        return 0;
      case rp::serve::Status::kError:
        std::fprintf(stderr, "error: %s\n", response.message.c_str());
        return 1;
      case rp::serve::Status::kBusy:
        std::fprintf(stderr, "busy: %s\n", response.message.c_str());
        return 5;
    }
    return 4;
  } catch (const rp::serve::ClientError& e) {
    std::fprintf(stderr, "rpq: %s\n", e.what());
    return static_cast<int>(e.error_class());
  }
}
