#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "io/snapshot.hpp"
#include "obs/json.hpp"

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Open spans of this thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

}  // namespace

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(std::string name, std::uint64_t op) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.op = op;
  record.thread = thread_number();
  record.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t index) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome(const std::filesystem::path& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write trace " + path.string());
  const std::uint64_t origin = all.empty() ? 0 : all.front().start_ns;
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i == 0 ? "" : ",\n") << "{\"name\":\""
       << rp::obs::json::escape(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.thread << "," << times << ",\"args\":{\"op\":" << s.op
       << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

Span::Span(const char* name, std::uint64_t op) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  index_ = tracer.open(name, op);
  open_spans.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  Tracer::global().close(index_);
  open_spans.pop_back();
}

double span_s(const SpanRecord& span) {
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = span_s(spans[i]);
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= span_s(s);
  return self;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"op_p50_ms", "ms"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> m = {
        {"core.scenario_build_s", "s"},
        {"io.snapshot_write_s", "s"},
        {"io.snapshot_load_s", "s"},
        {"measure.spread_s", "s"},
        {"measure.reanalyze_s", "s"},
        {"measure.probes", "count"},
        {"measure.largest_campaign_share", "share"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"util.cpu_utilization", "share"},
        {"flow.traffic_s", "s"},
        {"bgp.rib_build_s", "s"},
        {"bgp.routes_per_s", "1/s"},
        {"offload.analyzer_s", "s"},
        {"offload.queries_s", "s"},
        {"econ.viability_s", "s"},
        {"layer2.flattening_s", "s"},
        {"layer2.risk_s", "s"},
        {"layer2.flows", "count"},
        {"evolve.replay_s", "s"},
        {"pipeline.cpu_s", "s"},
        {"pipeline.span_coverage", "share"},
        {"serve.cold_query_s", "s"},
        {"serve.warmup_s", "s"},
        {"serve.stats_during_cold_ms", "ms"},
        {"serve.queue_high_water", "count"},
        {"serve.batch_occupancy_mean", "count"},
        {"serve.busy", "count"},
        {"run.op_p99_ms", "ms"},
        {"run.ops_per_s", "1/s"},
        {"trace.op_p50_ms", "ms"},
        {"trace.spans", "count"},
    };
    for (const char* type :
         {"offload_curve", "viability", "whatif_peering", "whatif_econ",
          "spread", "world_info", "stats"}) {
      m.push_back({std::string("serve.") + type + ".p50_us", "us"});
      m.push_back({std::string("serve.") + type + ".p99_us", "us"});
    }
    for (const std::string& layer : layers())
      m.push_back({layer + ".self_s", "s"});
    return m;
  }();
  return metrics;
}

SetupResult setup_world(const rp::core::ScenarioConfig& config,
                        const std::filesystem::path& root) {
  constexpr int repeats = 3;
  std::vector<double> total_s, build_s, write_s;
  SetupResult result;
  for (int r = 0; r < repeats; ++r) {
    const std::filesystem::path dir = root / ("setup-" + std::to_string(r));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const double t0 = now_s();
    std::optional<rp::core::Scenario> world;
    {
      Span span("core.scenario_build");
      world.emplace(rp::core::Scenario::build(config));
    }
    const double t1 = now_s();
    {
      Span span("io.snapshot_write");
      rp::io::save_scenario(*world, rp::io::cache_path(config, dir));
    }
    const double t2 = now_s();
    world.reset();
    const double t3 = now_s();
    total_s.push_back(t3 - t0);
    build_s.push_back(t1 - t0);
    write_s.push_back(t2 - t1);
    if (r > 0)
      std::filesystem::remove_all(root / ("setup-" + std::to_string(r - 1)));
    result.cache_dir = dir;
  }
  result.setup_s = median(total_s);
  result.build_s = median(build_s);
  result.write_s = median(write_s);
  return result;
}

rp::core::Scenario load_cached(const rp::core::ScenarioConfig& config,
                               const std::filesystem::path& cache_dir) {
  rp::core::SnapshotCacheResult cache;
  rp::core::Scenario world =
      rp::core::Scenario::build_cached(config, cache_dir, &cache);
  if (cache.outcome != rp::core::SnapshotCacheResult::Outcome::kHit)
    throw std::runtime_error("snapshot cache miss at " + cache.path.string() +
                             (cache.message.empty() ? "" : ": " + cache.message));
  return world;
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "core", "io", "measure", "flow", "bgp", "offload", "econ", "layer2",
      "evolve", "serve"};
  return names;
}

void add_layer_self_times(const std::vector<SpanRecord>& spans,
                          std::uint64_t ops, Outcome& outcome) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> self_s;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].op != 0)
      self_s[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
  for (const std::string& layer : layers())
    outcome.per_layer[layer + ".self_s"] =
        ops == 0 ? 0.0 : self_s[layer] / static_cast<double>(ops);
}

}  // namespace perfbench
