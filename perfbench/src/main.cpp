// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--fast] [--inject-wrong]
//
// Runs one workload and prints, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs record spans around every call into the
// repository's layers, report the per-layer metrics and write the spans to
// <work-dir>/trace.json as a Chrome trace. Progress and check failures go to
// stderr. perfbench/run.py builds this binary and is the usual entry point.
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_pipeline|campaign_all_ixps|"
               "serve_light> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--fast] [--inject-wrong]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--fast") {
      options.fast = true;
    } else if (arg == "--inject-wrong") {
      options.inject_wrong = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if ((trace != "0" && trace != "1") || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    usage();
    return 2;
  }
  options.trace = trace == "1";

  const std::map<std::string, std::function<perfbench::Outcome(
                                  const perfbench::Options&)>>
      workloads = {
          {"paper_pipeline", perfbench::run_paper_pipeline},
          {"campaign_all_ixps", perfbench::run_campaign_all_ixps},
          {"serve_light", perfbench::run_serve_light},
      };
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    usage();
    return 2;
  }

  perfbench::Tracer& tracer = perfbench::Tracer::global();
  if (options.trace) tracer.enable();
  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    outcome = workload->second(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  outcome.end_to_end["peak_rss_mb"] = perfbench::peak_rss_mb();
  if (options.trace) {
    outcome.per_layer["trace.op_p50_ms"] = outcome.end_to_end["op_p50_ms"];
    outcome.per_layer["trace.spans"] =
        static_cast<double>(tracer.spans().size());
    tracer.write_chrome(options.work_dir / "trace.json");
  }
  for (const std::string& problem : outcome.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());

  const auto& defs = options.trace ? perfbench::per_layer_metrics()
                                   : perfbench::end_to_end_metrics();
  const auto& values =
      options.trace ? outcome.per_layer : outcome.end_to_end;
  std::string metrics;
  for (const perfbench::MetricDef& def : defs) {
    const auto it = values.find(def.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!options.trace && (it == values.end() || !(value > 0.0))) {
      std::fprintf(stderr, "perfbench: %s measured no %s\n",
                   options.workload.c_str(), def.name.c_str());
      return 1;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", def.name.c_str());
      return 1;
    }
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + def.name + "\"") +
               ": {\"value\": " + perfbench::exact(value) + ", \"unit\": \"" +
               def.unit + "\"}";
  }
  const bool correct = outcome.checks_passed && outcome.failed == 0 &&
                       outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
