// Shared machinery of the perfbench binary: options, clocks, spans, order
// statistics, output digests and the metric tables every workload fills.
//
// Spans are recorded here, around the benchmark's own calls into the
// repository's public entry points; nothing inside src/ is instrumented for
// the benchmark. Spans stay in memory and are written once, at exit, as a
// Chrome trace.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every world with core::apply_fast_mode (the harness smoke).
  bool fast = false;
  /// Corrupts one answer before the output check, which must reject it.
  bool inject_wrong = false;
  /// Work space for snapshot caches and the trace file.
  std::filesystem::path work_dir;
};

/// Seconds on the monotonic clock.
double now_s();
/// CPU seconds (user + system) this process has used.
double cpu_s();
/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);
/// Order statistic at rank floor(q * n) of the samples; 0 for no samples.
double quantile(std::vector<double> values, double q);

/// Deterministic draws from the workload seed (raw 64-bit outputs only, so
/// generated inputs do not depend on the standard library's distributions).
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : gen_(seed) {}
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(gen_() % n);
  }

 private:
  std::mt19937_64 gen_;
};

/// FNV-1a 64 over text, for byte-identity checks of rendered results.
std::uint64_t fnv1a(std::string_view text);
/// Canonical rendering of a double for digests (every bit that matters).
std::string exact(double value);

/// One recorded span. `parent` indexes the enclosing span on the same
/// thread (-1 for a root); `op` is the pass or request it belongs to.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  std::int64_t open(std::string name, std::uint64_t op);
  void close(std::int64_t index);

  std::vector<SpanRecord> spans() const;
  /// Writes every span as a Chrome trace ("X" events, microseconds).
  void write_chrome(const std::filesystem::path& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the global tracer; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// A span's duration in seconds.
double span_s(const SpanRecord& span);
/// Every span's self time: its duration minus what its direct children
/// cover.
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

/// What one workload run reports back to main().
struct Outcome {
  bool checks_passed = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable check failures, printed to stderr.
  std::vector<std::string> problems;

  void fail(std::string why) {
    checks_passed = false;
    problems.push_back(std::move(why));
  }
};

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every workload reports untraced.
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every workload reports traced; a layer a workload
/// does not exercise reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Three cold set-ups of a world: each builds it with core::Scenario::build
/// and writes it with io::save_scenario into a fresh snapshot cache under
/// `root`. Times are medians over the three; `cache_dir` is the last one's
/// cache, which holds the world.
struct SetupResult {
  std::filesystem::path cache_dir;
  double setup_s = 0.0;
  double build_s = 0.0;
  double write_s = 0.0;
};
SetupResult setup_world(const rp::core::ScenarioConfig& config,
                        const std::filesystem::path& root);

/// Loads `config`'s world from the snapshot cache in `cache_dir`; a cache
/// miss is an error (set-up wrote the snapshot).
rp::core::Scenario load_cached(const rp::core::ScenarioConfig& config,
                               const std::filesystem::path& cache_dir);

/// The layers whose self time the traced run reports as "<layer>.self_s".
const std::vector<std::string>& layers();

/// Fills the per-layer self times ("<layer>.self_s", mean per operation;
/// a span's layer is its name up to the first '.') from the spans recorded
/// while the operations ran (op ids >= 1).
void add_layer_self_times(const std::vector<SpanRecord>& spans,
                          std::uint64_t ops, Outcome& outcome);

/// The workloads.
Outcome run_paper_pipeline(const Options& options);
Outcome run_campaign_all_ixps(const Options& options);
Outcome run_serve_light(const Options& options);

}  // namespace perfbench
