// Integration tests of the daemon's stats surface over real loopback
// sockets: the kStats request shape, pool/queue/latency rows after traffic,
// time-series windows, per-daemon telemetry, answers during an artifact
// build, the curves' share of resident_bytes, what the slow log says a
// request built, and serve.stats fault isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace rp::serve {
namespace {

const std::filesystem::path& shared_cache_dir() {
  static const std::filesystem::path dir = [] {
    const auto path =
        std::filesystem::temp_directory_path() / "rp_serve_stats_test_cache";
    std::filesystem::create_directories(path);
    return path;
  }();
  return dir;
}

DaemonConfig test_config() {
  DaemonConfig config;
  config.port = 0;
  config.worlds = 2;
  config.cache_dir = shared_cache_dir();
  return config;
}

Request ping_request(const std::string& token) {
  Request request;
  request.type = RequestType::kPing;
  request.id = 1;
  request.token = token;
  return request;
}

Request world_info_request(std::uint64_t id = 2) {
  Request request;
  request.type = RequestType::kWorldInfo;
  request.id = id;
  request.world.fast = true;
  return request;
}

Request stats_request(std::uint64_t window = 0) {
  Request request;
  request.type = RequestType::kStats;
  request.id = 42;
  request.stats_window = window;
  return request;
}

bool has_field(const Response& response, const std::string& key) {
  for (const auto& [k, v] : response.fields)
    if (k == key) return true;
  return false;
}

TEST(Stats, AnswersInlineOnAFreshDaemon) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  // The very first request: no world exists and none is needed.
  const Response response = client.call(stats_request());
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.id, 42u);
  EXPECT_TRUE(has_field(response, "stats.uptime_s"));
  EXPECT_TRUE(has_field(response, "stats.completed"));
  EXPECT_GT(std::stoull(std::string(response.field("stats.ring_capacity"))),
            0u);
  EXPECT_GT(std::stoull(std::string(response.field("queue.capacity"))), 0u);
  EXPECT_TRUE(has_field(response, "queue.depth"));
  EXPECT_TRUE(has_field(response, "queue.high_water"));
  EXPECT_EQ(response.field("pool.worlds"), "0");  // Nothing resident yet.
  EXPECT_TRUE(has_field(response, "ts.samples"));
  daemon.stop();
}

TEST(Stats, ReportsTrafficPoolAndPerTypeLatencies) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  client.call(ping_request("one"));
  client.call(ping_request("two"));
  client.call(world_info_request(10));  // Miss: builds the world.
  client.call(world_info_request(11));  // Hit: bumps the pool hit count.

  // Inline requests (ping, stats) are recorded before the daemon reads
  // the connection's next frame, but queued requests land their record just
  // after the response write — poll briefly until the world-info row shows.
  Response response;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    response = client.call(stats_request());
    ASSERT_EQ(response.status, Status::kOk);
    const std::string count(response.field("req.world-info.count"));
    if ((!count.empty() && std::stoull(count) >= 2) ||
        std::chrono::steady_clock::now() >= deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Per-type latency rows: pings were inline, world-infos went through the
  // queue; both carry count + quantiles.
  EXPECT_GE(std::stoull(std::string(response.field("req.ping.count"))), 2u);
  EXPECT_TRUE(has_field(response, "req.ping.p50_us"));
  EXPECT_TRUE(has_field(response, "req.ping.p99_us"));
  EXPECT_TRUE(has_field(response, "req.ping.max_us"));
  EXPECT_GE(std::stoull(std::string(response.field("req.world-info.count"))),
            2u);
  EXPECT_GT(std::stod(std::string(response.field("req.world-info.p99_us"))),
            0.0);

  // The pool shows the one resident world with a real memory estimate.
  EXPECT_EQ(response.field("pool.worlds"), "1");
  EXPECT_EQ(response.field("pool.resident"), "1");
  EXPECT_EQ(response.field("pool.world.0.ready"), "1");
  EXPECT_EQ(response.field("pool.world.0.digest").size(), 16u);
  EXPECT_GE(std::stoull(std::string(response.field("pool.world.0.hits"))),
            1u);
  EXPECT_GT(
      std::stoull(std::string(response.field("pool.world.0.resident_bytes"))),
      0u);

  // Traffic flowed through the admission queue at least once.
  EXPECT_GE(std::stoull(std::string(response.field("queue.high_water"))), 1u);
  EXPECT_GE(std::stoull(std::string(response.field("stats.completed"))), 4u);

  // The slow-query log is populated and ordered by total latency
  // descending. (Exact cross-read stability lives in the RequestTracer unit
  // tests — over the socket each stats request records itself, so the
  // tracer is never quiescent between two calls.)
  ASSERT_TRUE(has_field(response, "slow.0.request_id"));
  ASSERT_TRUE(has_field(response, "slow.0.total_us"));
  ASSERT_TRUE(has_field(response, "slow.0.pool_us"));
  ASSERT_TRUE(has_field(response, "slow.0.compute_us"));
  if (has_field(response, "slow.1.total_us")) {
    EXPECT_GE(std::stod(std::string(response.field("slow.0.total_us"))),
              std::stod(std::string(response.field("slow.1.total_us"))));
  }
  daemon.stop();
}

TEST(Stats, WindowEmitsTimeSeriesRows) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  client.call(ping_request("warm"));  // Fills the phase histograms.

  // Drive the recorder deterministically instead of waiting for its thread.
  daemon.recorder().sample_once();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  daemon.recorder().sample_once();

  const Response response = client.call(stats_request(/*window=*/4));
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_GE(std::stoull(std::string(response.field("ts.samples"))), 2u);
  // At least one serve-side series rode along (the ping filled
  // rp.serve.phase.compute_ns, so its p50 series must exist).
  EXPECT_TRUE(has_field(response, "ts.rp.serve.phase.compute_ns.p50"));
  EXPECT_FALSE(
      std::string(response.field("ts.rp.serve.phase.compute_ns.p50"))
          .empty());

  // window == 0 keeps the payload small: no ts.<series> rows at all.
  const Response bare = client.call(stats_request(0));
  EXPECT_FALSE(has_field(bare, "ts.rp.serve.phase.compute_ns.p50"));
  EXPECT_TRUE(has_field(bare, "ts.samples"));
  daemon.stop();
}

TEST(Stats, DaemonsKeepSeparateTelemetry) {
  Daemon a(test_config());
  Daemon b(test_config());
  a.start();
  b.start();
  Client to_a = Client::connect("127.0.0.1", a.port());
  Client to_b = Client::connect("127.0.0.1", b.port());
  for (int i = 0; i < 3; ++i) to_a.call(ping_request("a"));

  // A's traffic is A's alone.
  const Response before = to_b.call(stats_request());
  ASSERT_EQ(before.status, Status::kOk);
  EXPECT_EQ(before.field("stats.completed"), "0");
  EXPECT_FALSE(has_field(before, "req.ping.count"));

  // Stopping A leaves B's tracer recording and B's sampler running.
  a.stop();
  for (int i = 0; i < 5; ++i) to_b.call(ping_request("b"));
  const Response after = to_b.call(stats_request());
  ASSERT_EQ(after.status, Status::kOk);
  EXPECT_EQ(after.field("req.ping.count"), "5");
  EXPECT_EQ(after.field("stats.completed"), "6");  // 5 pings + 1 stats.
  EXPECT_EQ(after.field("ts.interval_ms"),
            std::to_string(obs::kDefaultSampleMs));
  b.stop();
}

TEST(Stats, AnswersWhileAnArtifactBuilds) {
  Daemon daemon(test_config());
  daemon.start();
  // Campaigns at every IXP at half the paper's membership make the spread
  // study long enough to overlap (~0.2 s on a 4-core x86 VM; the fast
  // world's own 0.1 scale builds it in ~30 ms). Load the world first, so
  // the spread request's time is the study build.
  Client requester = Client::connect("127.0.0.1", daemon.port());
  Request info = world_info_request();
  info.world.fields = {{"measure_all_ixps", "1"}, {"membership_scale", "0.5"}};
  ASSERT_EQ(requester.call(info).status, Status::kOk);
  Client watcher = Client::connect("127.0.0.1", daemon.port());
  const std::string before(
      watcher.call(stats_request()).field("pool.world.0.resident_bytes"));

  // The spread request goes out before any stats call below; its answer is
  // read on another thread.
  Request spread = info;
  spread.type = RequestType::kSpread;
  spread.id = 3;
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(spread));
  requester.send_bytes(frame);
  std::atomic<bool> built{false};
  Status spread_status = Status::kError;
  // A jthread joins on every exit path, including a failed ASSERT below.
  std::jthread cold([&] {
    try {
      spread_status = decode_response(requester.read_payload()).status;
    } catch (const std::exception&) {
      // Left as kError: the EXPECT below reports it.
    }
    built.store(true);
  });

  // A stats call that waited on the build would report the built study in
  // resident_bytes. Wall time scales with host load; this does not: some
  // answer that arrives before the spread does must still show the
  // footprint from before the build.
  std::size_t answered_during_build = 0;
  std::size_t unchanged_during_build = 0;
  while (!built.load()) {
    const Response response = watcher.call(stats_request());
    ASSERT_EQ(response.status, Status::kOk);
    if (!built.load()) {
      ++answered_during_build;
      if (response.field("pool.world.0.resident_bytes") == before)
        ++unchanged_during_build;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  cold.join();
  EXPECT_EQ(spread_status, Status::kOk);
  EXPECT_GE(answered_during_build, 1u);
  EXPECT_GE(unchanged_during_build, 1u);
  // The built study does count, so the check above can tell the two apart.
  EXPECT_NE(watcher.call(stats_request()).field("pool.world.0.resident_bytes"),
            before);
  daemon.stop();
}

Request fast_request(RequestType type, std::uint64_t id) {
  Request request;
  request.type = type;
  request.id = id;
  request.world.fast = true;
  return request;
}

std::uint64_t resident_bytes(Client& client) {
  return std::stoull(std::string(
      client.call(stats_request()).field("pool.world.0.resident_bytes")));
}

TEST(Stats, ResidentBytesCountEachCurveByCapacity) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  // A peering what-if over no IXPs builds the offload study but no curve.
  Request what_if = fast_request(RequestType::kWhatIf, 5);
  what_if.whatif_mode = 2;
  ASSERT_EQ(client.call(what_if).status, Status::kOk);
  const std::uint64_t before = resident_bytes(client);

  Request curve = fast_request(RequestType::kOffloadCurve, 6);
  curve.group = 1;
  curve.max_steps = 1000000;  // The whole curve: its size bounds capacity.
  const Response answer = client.call(curve);
  ASSERT_EQ(answer.status, Status::kOk) << answer.message;
  const std::uint64_t steps =
      std::stoull(std::string(answer.field("offload.steps")));
  const std::uint64_t after = resident_bytes(client);
  EXPECT_GE(after, before + sizeof(std::vector<offload::GreedyStep>) +
                       steps * sizeof(offload::GreedyStep));

  // A repeat reads the cached curve and builds nothing.
  curve.max_steps = 3;
  ASSERT_EQ(client.call(curve).status, Status::kOk);
  EXPECT_EQ(resident_bytes(client), after);
  daemon.stop();
}

TEST(Stats, SlowLogNamesWhatARequestBuilt) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  Request curve = fast_request(RequestType::kOffloadCurve, 7);
  curve.group = 3;
  ASSERT_EQ(client.call(curve).status, Status::kOk);  // Cold: builds all.
  ASSERT_EQ(client.call(curve).status, Status::kOk);  // Warm: builds none.

  // Queued requests land their record just after the response write.
  Response response;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    response = client.call(stats_request());
    ASSERT_EQ(response.status, Status::kOk);
    const std::string count(response.field("req.offload-curve.count"));
    if ((!count.empty() && std::stoull(count) >= 2) ||
        std::chrono::steady_clock::now() >= deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The slow log is ordered by total latency, so the cold curve comes
  // before the warm one; stats rows in between built nothing either.
  std::vector<std::string> built;
  for (std::size_t i = 0;; ++i) {
    const std::string prefix = "slow." + std::to_string(i);
    if (!has_field(response, prefix + ".type")) break;
    if (response.field(prefix + ".type") == "offload-curve")
      built.emplace_back(response.field(prefix + ".built"));
  }
  EXPECT_EQ(built, (std::vector<std::string>{"world,offload,curve.3", "none"}));
  daemon.stop();
}

TEST(Stats, EmptyHistogramQuantilesRenderAsNullNotNan) {
  // MetricValue::quantile signals "no samples" with NaN by contract...
  obs::MetricValue empty;
  empty.kind = obs::MetricKind::kHistogram;
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  // ...and the serve boundary must map that to null — "nan" is not JSON, so
  // it used to poison `rpq stats --json` consumers downstream.
  EXPECT_EQ(format_double_or_null(empty.quantile(0.99)), "null");
  EXPECT_EQ(format_double_or_null(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(format_double_or_null(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(format_double_or_null(1.5), "1.5");

  // No field of a live stats response ever leaks a bare nan/inf token.
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  client.call(ping_request("warm"));
  const Response response = client.call(stats_request(/*window=*/4));
  ASSERT_EQ(response.status, Status::kOk);
  for (const auto& [key, value] : response.fields) {
    EXPECT_EQ(value.find("nan"), std::string::npos) << key << "=" << value;
    EXPECT_EQ(value.find("inf"), std::string::npos) << key << "=" << value;
  }
  daemon.stop();
}

TEST(Stats, StatsFaultKillsOnlyThatConnection) {
  Daemon daemon(test_config());
  daemon.start();
  Client healthy = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(healthy.call(ping_request("pre")).status, Status::kOk);

  fault::arm(std::string(fault::kSiteServeStats) + ":nth=1");
  Client victim = Client::connect("127.0.0.1", daemon.port());
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(stats_request()));
  victim.send_bytes(frame);
  EXPECT_THROW(victim.read_payload(), ClientError);
  fault::disarm_all();

  // Only that connection died: the healthy one still pings, and a fresh
  // connection's stats request succeeds.
  EXPECT_EQ(healthy.call(ping_request("post")).field("token"), "post");
  Client fresh = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(fresh.call(stats_request()).status, Status::kOk);
  daemon.stop();
}

}  // namespace
}  // namespace rp::serve
