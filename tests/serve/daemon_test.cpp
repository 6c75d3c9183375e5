// Integration tests of the serve daemon over real loopback sockets:
// byte-identical responses across clients and thread counts, per-connection
// fault isolation (serve.accept / serve.parse / serve.respond and malformed
// frames), accept back-off at the descriptor limit, descriptors released as
// clients leave, a thread count independent of the client count, a client
// that stops reading, admission control, and protocol-driven shutdown.
#include "serve/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "evolve/timeline.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "util/thread_pool.hpp"

namespace rp::serve {
namespace {

/// One snapshot cache shared by every daemon in this binary, so only the
/// first world build pays full price (later daemons load the snapshot).
const std::filesystem::path& shared_cache_dir() {
  static const std::filesystem::path dir = [] {
    const auto path =
        std::filesystem::temp_directory_path() / "rp_serve_daemon_test_cache";
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

Request viability_request(std::uint64_t id = 3) {
  Request request;
  request.type = RequestType::kViability;
  request.id = id;
  request.world.fast = true;
  return request;
}

TEST(Daemon, PingRoundTripsAndEchoesId) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  Request request = ping_request("abc");
  request.id = 77;
  const Response response = client.call(request);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.id, 77u);
  EXPECT_EQ(response.field("token"), "abc");
  daemon.stop();
}

TEST(Daemon, ResponsesAreByteIdenticalAcrossConcurrentClients) {
  Daemon daemon(test_config());
  daemon.start();
  const std::uint16_t port = daemon.port();

  constexpr std::size_t kClients = 6;
  std::vector<std::vector<std::uint8_t>> info(kClients), viability(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([c, port, &info, &viability] {
      Client client = Client::connect("127.0.0.1", port);
      info[c] = client.call_raw(world_info_request());
      viability[c] = client.call_raw(viability_request());
    });
  for (auto& thread : threads) thread.join();

  for (std::size_t c = 1; c < kClients; ++c) {
    EXPECT_EQ(info[c], info[0]) << "client " << c;
    EXPECT_EQ(viability[c], viability[0]) << "client " << c;
  }
  daemon.stop();
}

TEST(Daemon, ResponsesAreByteIdenticalAcrossThreadCounts) {
  std::vector<std::uint8_t> wide, narrow;
  {
    Daemon daemon(test_config());
    daemon.start();
    Client client = Client::connect("127.0.0.1", daemon.port());
    wide = client.call_raw(viability_request());
    daemon.stop();
  }
  util::ThreadPool::set_global_threads(1);
  {
    Daemon daemon(test_config());
    daemon.start();
    Client client = Client::connect("127.0.0.1", daemon.port());
    narrow = client.call_raw(viability_request());
    daemon.stop();
  }
  util::ThreadPool::set_global_threads(0);  // Restore the RP_THREADS default.
  EXPECT_EQ(wide, narrow);
}

TEST(Daemon, MalformedFrameKillsOnlyThatConnection) {
  Daemon daemon(test_config());
  daemon.start();
  Client healthy = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(healthy.call(ping_request("before")).status, Status::kOk);

  Client poisoned = Client::connect("127.0.0.1", daemon.port());
  // A length prefix promising ~2^62 bytes: a protocol violation.
  const std::uint8_t poison[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                 0xff, 0xff, 0xff, 0x3f};
  poisoned.send_bytes(poison);
  EXPECT_THROW(poisoned.read_payload(), ClientError);

  // The healthy connection (and the daemon) carry on.
  EXPECT_EQ(healthy.call(ping_request("after")).field("token"), "after");
  daemon.stop();
}

TEST(Daemon, ParseFaultKillsOneConnectionOnly) {
  Daemon daemon(test_config());
  daemon.start();
  Client healthy = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(healthy.call(ping_request("pre")).status, Status::kOk);

  fault::arm(std::string(fault::kSiteServeParse) + ":nth=1");
  Client victim = Client::connect("127.0.0.1", daemon.port());
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(ping_request("doomed")));
  victim.send_bytes(frame);
  EXPECT_THROW(victim.read_payload(), ClientError);
  fault::disarm_all();

  EXPECT_EQ(healthy.call(ping_request("post")).field("token"), "post");
  daemon.stop();
}

TEST(Daemon, AcceptFaultRejectsOneConnectionOnly) {
  Daemon daemon(test_config());
  daemon.start();
  Client healthy = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(healthy.call(ping_request("pre")).status, Status::kOk);

  fault::arm(std::string(fault::kSiteServeAccept) + ":nth=1");
  // The TCP handshake succeeds (the listener accepted), but the daemon
  // closes the socket immediately: the first read sees EOF.
  Client rejected = Client::connect("127.0.0.1", daemon.port());
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(ping_request("nope")));
  EXPECT_THROW(
      {
        rejected.send_bytes(frame);
        rejected.read_payload();
      },
      ClientError);
  fault::disarm_all();

  // New connections are accepted again; the old one never noticed.
  Client fresh = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(fresh.call(ping_request("back")).status, Status::kOk);
  EXPECT_EQ(healthy.call(ping_request("post")).field("token"), "post");
  daemon.stop();
}

TEST(Daemon, RespondFaultKillsOneConnectionAndAnswersStayIdentical) {
  Daemon daemon(test_config());
  daemon.start();
  Client healthy = Client::connect("127.0.0.1", daemon.port());
  // Baseline answer (also warms the world so the faulted exchange is quick).
  const std::vector<std::uint8_t> baseline =
      healthy.call_raw(world_info_request());

  fault::arm(std::string(fault::kSiteServeRespond) + ":nth=1");
  Client victim = Client::connect("127.0.0.1", daemon.port());
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(world_info_request()));
  victim.send_bytes(frame);
  EXPECT_THROW(victim.read_payload(), ClientError);
  fault::disarm_all();

  // The concurrent client's next answer is byte-identical to its baseline:
  // the poisoned connection corrupted nothing shared.
  EXPECT_EQ(healthy.call_raw(world_info_request()), baseline);
  daemon.stop();
}

std::uint64_t counter_total(const std::string& name) {
  for (const obs::MetricValue& metric :
       obs::MetricsRegistry::global().snapshot())
    if (metric.name == name) return metric.count;
  return 0;
}

/// User plus system CPU time of the whole process, in milliseconds.
double process_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// The process's open descriptors, ascending.
std::vector<int> open_fds() {
  std::vector<int> fds;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    fds.push_back(std::stoi(entry.path().filename().string()));
  // The listing's own descriptor is closed by now.
  std::erase_if(fds, [](int fd) { return ::fcntl(fd, F_GETFD) < 0; });
  std::sort(fds.begin(), fds.end());
  return fds;
}

/// The process's thread count, from /proc/self/status.
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

// A client that hangs up gives its descriptor back while the daemon runs,
// not at stop().
TEST(Daemon, ClosedClientsReleaseTheirDescriptors) {
  Daemon daemon(test_config());
  daemon.start();
  const std::size_t before = open_fds().size();
  for (int i = 0; i < 64; ++i) {
    Client client = Client::connect("127.0.0.1", daemon.port());
    EXPECT_EQ(client.call(ping_request("cycle")).status, Status::kOk);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (open_fds().size() > before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LE(open_fds().size(), before);
  daemon.stop();
}

// One I/O thread serves every connection: more clients, no more threads.
TEST(Daemon, ThreadCountIndependentOfClients) {
  Daemon daemon(test_config());
  daemon.start();
  constexpr std::size_t kClients = 32;
  std::vector<Client> clients;
  clients.reserve(kClients);
  std::size_t with_one = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(Client::connect("127.0.0.1", daemon.port()));
    EXPECT_EQ(clients.back().call(ping_request("open")).status, Status::kOk);
    if (c == 0) with_one = thread_count();
  }
  EXPECT_GT(with_one, 0u);
  EXPECT_EQ(thread_count(), with_one);
  daemon.stop();
}

/// A plain loopback socket connected to the daemon. Unlike a Client, the
/// test can shut it down from outside while another thread writes to it.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Waits (at most 20 s) until the daemon has sent no response for 200 ms:
/// its one I/O thread is then blocked in a send, or the traffic is over.
void wait_for_responses_to_stall() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint64_t last = counter_total("rp.serve.responses.sent");
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::uint64_t now = counter_total("rp.serve.responses.sent");
    if (now == last) return;
    last = now;
  }
}

// A client that pipelines pings and never reads its answers fills its socket
// buffers, so the daemon's inline send to it blocks. That send must fail
// after the daemon's 2 s send timeout and drop the hog alone: a second
// client is still answered, and stop() returns even while a send is stuck.
// Each hog is then shut down (which ends its writer) and closed with unread
// input (which resets the connection and frees a daemon stuck on it), so a
// daemon without the timeout fails this test instead of hanging it.
TEST(Daemon, AClientThatStopsReadingStallsNoOne) {
  Daemon daemon(test_config());
  daemon.start();
  std::vector<std::uint8_t> pings;
  const std::vector<std::uint8_t> one =
      encode_request(ping_request(std::string(200, 'x')));
  for (int i = 0; i < 100'000; ++i) append_frame(pings, one);

  // Writes every ping, or until the daemon drops the connection.
  const auto write_all = [&pings](int fd) {
    for (std::size_t sent = 0; sent < pings.size();) {
      const ssize_t n = ::send(fd, pings.data() + sent, pings.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  };
  constexpr auto kPatience = std::chrono::seconds(10);

  const int hog = connect_raw(daemon.port());
  std::thread hog_writer(write_all, hog);
  wait_for_responses_to_stall();
  auto answer = std::async(std::launch::async, [&daemon] {
    Client other = Client::connect("127.0.0.1", daemon.port());
    return std::string(other.call(ping_request("other")).field("token"));
  });
  EXPECT_TRUE(answer.wait_for(kPatience) == std::future_status::ready)
      << "a client that never reads stalled another";
  ::shutdown(hog, SHUT_RDWR);
  hog_writer.join();
  ::close(hog);
  EXPECT_EQ(answer.get(), "other");

  const int stuck = connect_raw(daemon.port());
  std::thread stuck_writer(write_all, stuck);
  wait_for_responses_to_stall();
  auto stopped = std::async(std::launch::async, [&daemon] { daemon.stop(); });
  EXPECT_TRUE(stopped.wait_for(kPatience) == std::future_status::ready)
      << "stop() hung on a send to a client that never reads";
  ::shutdown(stuck, SHUT_RDWR);
  stuck_writer.join();
  ::close(stuck);
  stopped.get();
}

// At the descriptor limit accept() fails with EMFILE at once, and so does
// every retry. The daemon must back off instead of spinning a core, keep
// answering established clients meanwhile, and accept again once
// descriptors free.
TEST(Daemon, AcceptBacksOffAtTheDescriptorLimit) {
  Daemon daemon(test_config());
  daemon.start();
  // One full round trip first. UBSan's vptr check probes memory through a
  // pipe, which fails at the limit; a warm type cache never needs the probe.
  Client warm = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(warm.call(ping_request("warm")).field("token"), "warm");
  const std::uint64_t errors_before = counter_total("rp.serve.accept_errors");

  // The smallest soft limit that leaves exactly kFree descriptors free.
  constexpr rlim_t kFree = 4;
  const std::vector<int> fds = open_fds();
  ASSERT_FALSE(fds.empty());
  rlim_t limit = 0;
  for (std::size_t below = 0;; ++limit) {
    while (below < fds.size() && static_cast<rlim_t>(fds[below]) < limit)
      ++below;
    if (limit - below == kFree) break;
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_LT(limit, saved.rlim_cur);
  rlimit lowered = saved;
  lowered.rlim_cur = limit;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Fill the free slots (never more than 8), then hand the last one to the
  // client's socket. The daemon's end of that connection finds none left, so
  // every accept() fails until the slots free.
  std::vector<int> dups;
  int dup_errno = 0;
  while (dups.size() < 8) {
    const int fd = ::dup(fds.front());
    if (fd < 0) {
      dup_errno = errno;
      break;
    }
    dups.push_back(fd);
  }
  ASSERT_EQ(dup_errno, EMFILE);
  ASSERT_FALSE(dups.empty());
  ::close(dups.back());
  dups.pop_back();
  Client waiting = Client::connect("127.0.0.1", daemon.port());

  const double cpu_before = process_cpu_ms();
  const auto window_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  const Response warm_reply = warm.call(ping_request("limit"));
  const bool warm_in_window = std::chrono::steady_clock::now() < window_end;
  std::this_thread::sleep_until(window_end);
  const double cpu_used = process_cpu_ms() - cpu_before;
  const std::uint64_t errors =
      counter_total("rp.serve.accept_errors") - errors_before;

  for (int fd : dups) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_LT(cpu_used, 50.0) << "accept loop spun at the descriptor limit";
  EXPECT_GT(errors, 0u);
  EXPECT_EQ(warm_reply.field("token"), "limit");
  EXPECT_TRUE(warm_in_window) << "the backoff stalled an established client";
  EXPECT_EQ(waiting.call(ping_request("waited")).field("token"), "waited");
  Client fresh = Client::connect("127.0.0.1", daemon.port());
  EXPECT_EQ(fresh.call(ping_request("fresh")).field("token"), "fresh");
  daemon.stop();
}

TEST(Daemon, ConfigErrorsAreSoftErrors) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  Request request = world_info_request();
  request.world.fields = {{"no.such.field", "1"}};
  const Response response = client.call(request);
  EXPECT_EQ(response.status, Status::kError);
  EXPECT_NE(response.message.find("no.such.field"), std::string::npos);
  // The connection survives a soft error.
  EXPECT_EQ(client.call(ping_request("alive")).status, Status::kOk);
  daemon.stop();
}

TEST(Daemon, PipelinedSameWorldQueriesComeBackInOrder) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  client.call(world_info_request());  // Warm the world first.

  std::vector<std::uint8_t> burst;
  constexpr std::uint64_t kCount = 8;
  for (std::uint64_t i = 0; i < kCount; ++i)
    append_frame(burst, encode_request(world_info_request(100 + i)));
  client.send_bytes(burst);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const Response response = decode_response(client.read_payload());
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.id, 100 + i);
  }
  daemon.stop();
}

TEST(Daemon, EpochQueriesReplayTimelinesOnTheWarmWorld) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  // Canonical text crosses the wire, exactly as rpq sends it; the timeline's
  // fast line makes its base the same world the requests address.
  const std::string canonical = evolve::canonical_timeline_text(
      evolve::parse_timeline("name serve-tl\nfast 1\n"
                             "epoch a\njoin LINX 2 1\ntraffic 1.5\n"
                             "epoch b\nleave LINX 1\n"));

  Request at;
  at.type = RequestType::kWorldAtEpoch;
  at.id = 21;
  at.world.fast = true;
  at.timeline = canonical;
  at.epoch = 0;
  const Response r0 = client.call(at);
  ASSERT_EQ(r0.status, Status::kOk) << r0.message;
  EXPECT_EQ(r0.field("timeline.name"), "serve-tl");
  EXPECT_EQ(r0.field("epoch.label"), "a");
  EXPECT_EQ(r0.field("epoch.joins"), "2");

  at.epoch = 5;  // Past the last epoch: a soft error, not a dead connection.
  EXPECT_EQ(client.call(at).status, Status::kError);

  Request series;
  series.type = RequestType::kEpochSeries;
  series.id = 22;
  series.world.fast = true;
  series.timeline = canonical;
  series.group = 4;
  series.max_steps = 4;
  const Response rs = client.call(series);
  ASSERT_EQ(rs.status, Status::kOk) << rs.message;
  EXPECT_EQ(rs.field("series.epochs"), "2");
  EXPECT_EQ(rs.field("epoch.0.label"), "a");
  EXPECT_EQ(rs.field("epoch.1.label"), "b");
  EXPECT_FALSE(rs.field("epoch.1.transit_bps").empty());

  // A timeline whose base disagrees with the addressed world is rejected:
  // the epochs would describe a different world than the client named.
  Request mismatch = at;
  mismatch.epoch = 0;
  mismatch.timeline = evolve::canonical_timeline_text(evolve::parse_timeline(
      "name other\nfast 1\nbase seed 99\nepoch a\ntraffic 1.1\n"));
  EXPECT_EQ(client.call(mismatch).status, Status::kError);
  daemon.stop();
}

TEST(Daemon, ShutdownRequestStopsTheDaemon) {
  Daemon daemon(test_config());
  daemon.start();
  Client client = Client::connect("127.0.0.1", daemon.port());
  Request request;
  request.type = RequestType::kShutdown;
  request.id = 9;
  const Response response = client.call(request);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.id, 9u);
  daemon.wait();  // Returns because the client asked for shutdown.
  daemon.stop();
}

TEST(RequestQueue, AdmissionControlIsBoundedAndFifo) {
  RequestQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  QueueItem item;
  item.request = ping_request("a");
  EXPECT_TRUE(queue.try_push(item));
  item.request = ping_request("b");
  EXPECT_TRUE(queue.try_push(item));
  item.request = ping_request("overflow");
  EXPECT_FALSE(queue.try_push(item));  // Full: the busy path.

  const auto batch = queue.pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.token, "a");
  EXPECT_EQ(batch[1].request.token, "b");

  // After stop: pending items drain, new pushes fail, empty pop means done.
  item.request = ping_request("late");
  EXPECT_TRUE(queue.try_push(item));
  queue.stop();
  EXPECT_FALSE(queue.try_push(item));
  EXPECT_EQ(queue.pop_batch(8).size(), 1u);
  EXPECT_TRUE(queue.pop_batch(8).empty());
}

TEST(RequestQueue, PopBatchHonoursMaxBatch) {
  RequestQueue queue(8);
  QueueItem item;
  for (int i = 0; i < 5; ++i) {
    item.request = ping_request(std::to_string(i));
    ASSERT_TRUE(queue.try_push(item));
  }
  EXPECT_EQ(queue.pop_batch(2).size(), 2u);
  EXPECT_EQ(queue.pop_batch(2).size(), 2u);
  EXPECT_EQ(queue.pop_batch(2).size(), 1u);
}

TEST(DaemonConfig, FromEnvKeepsDefaultsForOutOfRangeValues) {
  const DaemonConfig defaults;
  ::setenv("RP_SERVE_PORT", "70000", 1);  // Would wrap to 4464 as a uint16.
  EXPECT_EQ(DaemonConfig::from_env().port, defaults.port);
  ::setenv("RP_SERVE_PORT", "-1", 1);  // Would wrap to 65535.
  EXPECT_EQ(DaemonConfig::from_env().port, defaults.port);
  ::setenv("RP_SERVE_PORT", "65535", 1);
  EXPECT_EQ(DaemonConfig::from_env().port, 65535);
  ::unsetenv("RP_SERVE_PORT");
}

}  // namespace
}  // namespace rp::serve
