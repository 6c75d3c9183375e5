// perf_serve — the rp::serve load generator and perf gate.
//
// Starts an in-process daemon on an ephemeral loopback port, warms one fast
// world, then hammers it from N concurrent client connections with a fixed
// per-client request mix (ping / world-info / viability / offload-curve).
// Latency is measured client-side per request, so the reported p50/p99 are
// exact order statistics, not histogram estimates; the server-side
// rp.serve.* histograms (batch occupancy, request/exec time) ride along in
// the JSON when available.
//
// Output: a human summary on stdout and BENCH_perf_serve.json in
// $RP_BENCH_JSON_DIR (or the cwd) with flat keys:
//   requests_per_sec, p50_us, p99_us, clients, requests_total,
//   requests_failed, batch_occupancy_mean, batch_occupancy_max,
//   phase_connect_s (all clients connected), phase_issue_s (the measured
//   load window), phase_drain_s (daemon.stop(): drain + join)
// RP_BENCH_FAST=1 shrinks the run (fewer clients, fewer requests);
// RP_THREADS sizes the daemon's execution pool as everywhere else.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace {

double exact_quantile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t rank = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_us.size())));
  return sorted_us[rank];
}

rp::serve::Request make_request(std::size_t i) {
  rp::serve::Request request;
  request.id = i;
  request.world.fast = true;
  switch (i % 4) {
    case 0:
      request.type = rp::serve::RequestType::kPing;
      request.token = "perf";
      break;
    case 1:
      request.type = rp::serve::RequestType::kWorldInfo;
      break;
    case 2:
      request.type = rp::serve::RequestType::kViability;
      break;
    default:
      request.type = rp::serve::RequestType::kOffloadCurve;
      request.max_steps = 4;
      break;
  }
  return request;
}

}  // namespace

int main() {
  rp::obs::set_metrics_enabled(true);

  const std::size_t clients = rp::bench::fast_mode() ? 4 : 8;
  const std::size_t per_client = rp::bench::fast_mode() ? 50 : 200;

  rp::serve::DaemonConfig config;
  config.port = 0;
  config.worlds = 2;
  rp::serve::Daemon daemon(std::move(config));
  daemon.start();
  const std::uint16_t port = daemon.port();

  // Warm the world (and its offload study + greedy curve) outside the
  // measured window: the gate measures steady-state service, not the first
  // build.
  {
    rp::serve::Client warm = rp::serve::Client::connect("127.0.0.1", port);
    rp::serve::Request request = make_request(1);  // world-info
    warm.call(request);
    request = make_request(2);  // viability (greedy curve)
    warm.call(request);
    request = make_request(3);  // offload curve
    warm.call(request);
  }

  // Phase 1 — connect: every client socket established before the first
  // measured request, so connect cost never pollutes request latency.
  const auto connect_begin = std::chrono::steady_clock::now();
  std::vector<rp::serve::Client> connections;
  connections.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    connections.push_back(rp::serve::Client::connect("127.0.0.1", port));
  const double phase_connect_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    connect_begin)
          .count();

  // Phase 2 — issue: the measured load window.
  std::vector<std::vector<double>> latencies_us(clients);
  std::vector<std::size_t> failures(clients, 0);
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([c, per_client, &connections, &latencies_us,
                            &failures] {
        rp::serve::Client& client = connections[c];
        latencies_us[c].reserve(per_client);
        for (std::size_t i = 0; i < per_client; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          const rp::serve::Response response =
              client.call(make_request(c * per_client + i));
          const auto t1 = std::chrono::steady_clock::now();
          if (response.status != rp::serve::Status::kOk) ++failures[c];
          latencies_us[c].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  std::vector<double> all_us;
  std::size_t failed = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    all_us.insert(all_us.end(), latencies_us[c].begin(),
                  latencies_us[c].end());
    failed += failures[c];
  }
  std::sort(all_us.begin(), all_us.end());
  const double p50 = exact_quantile(all_us, 0.50);
  const double p99 = exact_quantile(all_us, 0.99);
  const double rps =
      elapsed_s > 0.0 ? static_cast<double>(all_us.size()) / elapsed_s : 0.0;

  double occupancy_mean = 0.0;
  double occupancy_max = 0.0;
  for (const auto& metric :
       rp::obs::MetricsRegistry::global().snapshot()) {
    if (metric.name == "rp.serve.batch.occupancy") {
      occupancy_mean = metric.mean();
      occupancy_max = static_cast<double>(metric.max);
    }
  }

  // Phase 3 — drain: close the client side, then time daemon.stop() (queue
  // drain + thread joins).
  connections.clear();
  const auto drain_begin = std::chrono::steady_clock::now();
  daemon.stop();
  const double phase_drain_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_begin)
          .count();

  std::printf("perf_serve: %zu clients x %zu requests over loopback\n",
              clients, per_client);
  std::printf("  requests/sec  %.0f\n", rps);
  std::printf("  p50 latency   %.1f us\n", p50);
  std::printf("  p99 latency   %.1f us\n", p99);
  std::printf("  failed        %zu\n", failed);
  std::printf("  batch occupancy mean %.2f, max %.0f\n", occupancy_mean,
              occupancy_max);
  std::printf("  phases: connect %.3fs, issue %.3fs, drain %.3fs\n",
              phase_connect_s, elapsed_s, phase_drain_s);

  std::vector<rp::obs::json::Entry> entries;
  entries.emplace_back("requests_per_sec", rp::obs::json::number(rps));
  entries.emplace_back("p50_us", rp::obs::json::number(p50));
  entries.emplace_back("p99_us", rp::obs::json::number(p99));
  entries.emplace_back(
      "clients", rp::obs::json::number(static_cast<std::uint64_t>(clients)));
  entries.emplace_back("requests_total",
                       rp::obs::json::number(
                           static_cast<std::uint64_t>(all_us.size())));
  entries.emplace_back(
      "requests_failed",
      rp::obs::json::number(static_cast<std::uint64_t>(failed)));
  entries.emplace_back("batch_occupancy_mean",
                       rp::obs::json::number(occupancy_mean));
  entries.emplace_back("batch_occupancy_max",
                       rp::obs::json::number(occupancy_max));
  entries.emplace_back("phase_connect_s",
                       rp::obs::json::number(phase_connect_s));
  entries.emplace_back("phase_issue_s", rp::obs::json::number(elapsed_s));
  entries.emplace_back("phase_drain_s", rp::obs::json::number(phase_drain_s));

  if (!rp::bench::write_bench_json("perf_serve", entries)) return 1;
  return failed == 0 ? 0 : 1;
}
