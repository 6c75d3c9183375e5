// Shared main() replacement for the perf_* binaries: runs the registered
// google-benchmark suite with the normal console output, then writes a
// machine-readable BENCH_<name>.json trajectory file built on the rp::obs
// JSON helpers. Keys are flat and stable:
//   "<benchmark>.real_time_<unit>"  per-iteration real time (benchmark unit)
//   "<benchmark>.cpu_time_<unit>"   per-iteration CPU time
//   "<benchmark>.iterations"        iterations the timing covers
//   "<benchmark>.<counter>"         every user counter (rp_threads, ases, ...)
// plus, when the metrics registry is enabled (RP_METRICS=1), every
// rp.<layer>.<metric> counter accumulated across the whole run. The file
// lands in $RP_BENCH_JSON_DIR (or the cwd) as BENCH_<name>.json, so CI can
// diff trajectories run over run.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rp::bench {

/// Console reporter that additionally collects every finished run as flat
/// JSON entries (aggregates and errored runs are skipped).
class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string base = run.benchmark_name();
      const std::string unit = benchmark::GetTimeUnitString(run.time_unit);
      entries_.emplace_back(base + ".real_time_" + unit,
                            obs::json::number(run.GetAdjustedRealTime()));
      entries_.emplace_back(base + ".cpu_time_" + unit,
                            obs::json::number(run.GetAdjustedCPUTime()));
      entries_.emplace_back(
          base + ".iterations",
          obs::json::number(static_cast<std::uint64_t>(run.iterations)));
      for (const auto& [name, counter] : run.counters)
        entries_.emplace_back(base + "." + name,
                              obs::json::number(counter.value));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<obs::json::Entry>& entries() const { return entries_; }

 private:
  std::vector<obs::json::Entry> entries_;
};

/// Drop-in replacement for BENCHMARK_MAIN(): run the suite, then write the
/// trajectory file. RP_METRICS=1 additionally enables the rp.* registry and
/// appends its counters to the JSON.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& name) {
  if (obs::metrics_env_requested()) obs::set_metrics_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::vector<obs::json::Entry> entries = reporter.entries();
  if (obs::metrics_enabled()) {
    const auto metrics =
        obs::metrics_json_entries(obs::MetricsRegistry::global().snapshot());
    entries.insert(entries.end(), metrics.begin(), metrics.end());
  }
  return write_bench_json(name, entries) ? 0 : 1;
}

}  // namespace rp::bench
