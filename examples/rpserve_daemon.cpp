// rpserve-daemon — the resident rp::serve query daemon.
//
// Usage:
//   rpserve-daemon [--port N] [--worlds N] [--queue N] [--batch N]
//                  [--cache-dir DIR] [--port-file FILE]
//                  [--metrics] [--trace FILE]
//
// Listens on 127.0.0.1 (loopback only — this is a local compute server, not
// an internet-facing service) and answers rp::serve protocol queries until a
// client sends `shutdown` or the process receives SIGINT/SIGTERM.
//
// Environment: RP_SERVE_PORT seeds the default port, the one rpq also dials
// (--port wins); RP_THREADS sizes the execution pool; RP_CACHE_DIR is
// honoured through the snapshot cache the worlds load from.
//
// --port-file writes the bound port (one line) once the listener is up, so
// scripts using --port 0 (ephemeral) can find the daemon without racing it.
//
// Exit codes: 0 clean shutdown, 2 usage (including a numeric flag that does
// not fit its field), 3 cannot bind/listen.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs_cli.hpp"
#include "serve/daemon.hpp"

namespace {

rp::serve::Daemon* g_daemon = nullptr;

void on_signal(int) {
  // request_shutdown() is what a `shutdown` frame triggers too; the main
  // thread wakes from wait() and stops the daemon in an orderly way.
  if (g_daemon != nullptr) g_daemon->stop();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--worlds N] [--queue N] [--batch N]\n"
               "          [--cache-dir DIR] [--port-file FILE]"
               " [--metrics] [--trace FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto obs_options = rp::examples::strip_obs_flags(argc, argv);

  rp::serve::DaemonConfig config = rp::serve::DaemonConfig::from_env();
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs an argument\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    using rp::examples::parse_flag;
    if (arg == "--port") {
      config.port = parse_flag<std::uint16_t>(argv[0], arg, value());
    } else if (arg == "--worlds") {
      config.worlds = parse_flag<std::size_t>(argv[0], arg, value());
    } else if (arg == "--queue") {
      config.queue_capacity = parse_flag<std::size_t>(argv[0], arg, value());
    } else if (arg == "--batch") {
      config.max_batch = parse_flag<std::size_t>(argv[0], arg, value());
    } else if (arg == "--cache-dir") {
      config.cache_dir = value();
    } else if (arg == "--port-file") {
      port_file = value();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  rp::serve::Daemon daemon(std::move(config));
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpserve-daemon: %s\n", e.what());
    return 3;
  }

  g_daemon = &daemon;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("rpserve-daemon: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(daemon.port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(daemon.port()));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "rpserve-daemon: cannot write %s: %s\n",
                   port_file.c_str(), std::strerror(errno));
      daemon.stop();
      return 3;
    }
  }

  daemon.wait();
  daemon.stop();
  g_daemon = nullptr;
  std::printf("rpserve-daemon: shut down\n");

  rp::examples::finish_obs(obs_options);
  return 0;
}
