// Integration test of request tracing through the serve daemon: with a
// Chrome-trace session active and 6 concurrent clients against an 8-thread
// execution pool, the trace must stay balanced (every span begin has an end,
// every flow start has a finish), sorted by timestamp, and at least one
// request's flow must cross threads (I/O thread → dispatcher/worker).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "util/thread_pool.hpp"

namespace rp::serve {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

/// Extracts `"key":<number>` or `"key":"<string>"` from one event line.
std::string json_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  std::string out;
  if (line[begin] == '"') {
    ++begin;
    while (begin < line.size() && line[begin] != '"') out += line[begin++];
  } else {
    while (begin < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[begin])) != 0 ||
            line[begin] == '.' || line[begin] == '-'))
      out += line[begin++];
  }
  return out;
}

TEST(ServeTrace, ConcurrentClientsProduceBalancedCrossThreadFlows) {
  const auto path = std::filesystem::temp_directory_path() /
                    "rp_serve_trace_test.json";
  obs::stop_trace();  // In case RP_TRACE armed a session at load.
  util::ThreadPool::set_global_threads(8);
  ASSERT_TRUE(obs::start_trace(path.string()));

  {
    DaemonConfig config;
    config.port = 0;
    config.worlds = 2;
    config.cache_dir = std::filesystem::temp_directory_path() /
                       "rp_serve_trace_test_cache";
    std::filesystem::create_directories(config.cache_dir);
    Daemon daemon(config);
    daemon.start();
    const std::uint16_t port = daemon.port();

    constexpr std::size_t kClients = 6;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
      threads.emplace_back([c, port] {
        Client client = Client::connect("127.0.0.1", port);
        Request ping;
        ping.type = RequestType::kPing;
        ping.id = c;
        ping.token = "t" + std::to_string(c);
        EXPECT_EQ(client.call(ping).status, Status::kOk);
        for (std::uint64_t i = 0; i < 3; ++i) {
          Request info;
          info.type = RequestType::kWorldInfo;
          info.id = 100 * c + i;
          info.world.fast = true;
          EXPECT_EQ(client.call(info).status, Status::kOk);
        }
      });
    for (auto& thread : threads) thread.join();
    daemon.stop();
  }

  const std::size_t events = obs::stop_trace();
  util::ThreadPool::set_global_threads(0);  // Restore the RP_THREADS default.
  ASSERT_GT(events, 0u);
  const std::string text = slurp(path);
  std::filesystem::remove(path);

  // Span balance: every begin has a matching end.
  const std::size_t begins = count_occurrences(text, "\"ph\":\"B\"");
  const std::size_t ends = count_occurrences(text, "\"ph\":\"E\"");
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);

  // Flow balance: every request's arrow starts exactly once and finishes
  // exactly once (busy/kill paths included).
  const std::size_t flow_starts = count_occurrences(text, "\"ph\":\"s\"");
  const std::size_t flow_ends = count_occurrences(text, "\"ph\":\"f\"");
  // 6 pings + 18 world-infos, each one arrow.
  EXPECT_GE(flow_starts, 24u);
  EXPECT_EQ(flow_starts, flow_ends);

  // The writer sorts events by timestamp.
  double last = -1.0;
  std::size_t pos = 0;
  while ((pos = text.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const double ts = std::stod(text.substr(pos));
    EXPECT_GE(ts, last);
    last = ts;
  }

  // Cross-thread causality: world requests begin their flow on the I/O
  // thread and finish on the dispatcher, so at least one flow id must
  // appear on two distinct tids.
  std::map<std::string, std::set<std::string>> flow_tids;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string phase = json_value(line, "ph");
    if (phase != "s" && phase != "t" && phase != "f") continue;
    const std::string id = json_value(line, "id");
    const std::string tid = json_value(line, "tid");
    ASSERT_FALSE(id.empty());
    ASSERT_FALSE(tid.empty());
    EXPECT_NE(id, "0x0");  // Every tracked request got a real server id.
    flow_tids[id].insert(tid);
  }
  bool crossed = false;
  for (const auto& [id, tids] : flow_tids)
    if (tids.size() >= 2) crossed = true;
  EXPECT_TRUE(crossed);
}

}  // namespace
}  // namespace rp::serve
