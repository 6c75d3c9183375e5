// rpsweep — the multi-scenario sweep engine's CLI (DESIGN.md §12).
//
//   rpsweep fields                       list every sweepable field
//   rpsweep plan SPEC [--dir DIR]        expand the grid, write the manifest
//   rpsweep run SPEC [--dir DIR] [--cache-dir DIR]
//                                        plan + execute + summarize
//   rpsweep resume --dir DIR [--cache-dir DIR]
//                                        finish an interrupted sweep from its
//                                        manifest and completion records
//   rpsweep summarize --dir DIR          collate records into results.csv/json
//
// --dir defaults to $RP_SWEEP_DIR/<spec name> when RP_SWEEP_DIR is set,
// otherwise ./rpsweep-<spec name>. The scenario snapshot cache defaults to
// $RP_SNAPSHOT_CACHE / .rpsnap-cache as everywhere else; --cache-dir
// overrides it. RP_THREADS bounds the world groups run at once and the
// per-world studies. --metrics / --trace work as on every example. A sweep
// killed mid-flight (Ctrl-C, or an armed RP_FAULT=sweep.run:... site) is
// resumable: completed runs are on disk and `rpsweep resume` produces a
// results table byte-identical to an uninterrupted run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "core/config_fields.hpp"
#include "obs_cli.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace rp;

int usage() {
  std::fprintf(
      stderr,
      "usage: rpsweep fields\n"
      "       rpsweep plan SPEC [--dir DIR]\n"
      "       rpsweep run SPEC [--dir DIR] [--cache-dir DIR]\n"
      "       rpsweep resume --dir DIR [--cache-dir DIR]\n"
      "       rpsweep summarize --dir DIR\n"
      "       (all subcommands also accept --metrics / --trace FILE)\n");
  return 2;
}

int list_fields() {
  std::printf("scenario-config fields (change the world and its cache key):\n");
  for (const auto& field : core::scenario_config_fields())
    std::printf("  %-28s %.*s\n", std::string(field.name).c_str(),
                static_cast<int>(field.description.size()),
                field.description.data());
  std::printf("\necon fields (reprice the §5 model on the same world):\n");
  for (const auto& field : sweep::econ_fields())
    std::printf("  %-28s %.*s\n", std::string(field.name).c_str(),
                static_cast<int>(field.description.size()),
                field.description.data());
  std::printf(
      "\nepoch axis (specs with a `timeline <path>` line only):\n"
      "  %-28s epoch index into the embedded rp::evolve timeline\n",
      "evolve.epoch");
  return 0;
}

std::filesystem::path default_dir(const sweep::SweepSpec& spec) {
  if (const char* base = std::getenv("RP_SWEEP_DIR");
      base != nullptr && *base != '\0')
    return std::filesystem::path(base) / spec.name;
  return std::filesystem::path("rpsweep-" + spec.name);
}

void print_plan(const sweep::SweepSpec& spec,
                const std::filesystem::path& dir) {
  std::printf("sweep '%s' (spec %s): %zu runs over %zu axes\n",
              spec.name.c_str(), sweep::spec_digest_hex(spec).c_str(),
              spec.run_count(), spec.axes.size());
  for (const auto& axis : spec.axes)
    std::printf("  axis %-26s %zu values\n", axis.field.c_str(),
                axis.values.size());
  std::printf("  directory: %s\n", dir.string().c_str());
}

void print_outcome(const sweep::ExecuteOutcome& outcome) {
  std::printf(
      "executed %zu runs (%zu skipped via completion records), "
      "%zu world(s) realized\n",
      outcome.executed, outcome.skipped, outcome.worlds_built);
}

}  // namespace

int main(int argc, char** argv) {
  const examples::ObsOptions obs_opts = examples::strip_obs_flags(argc, argv);
  if (argc < 2) return usage();
  const std::string command = argv[1];

  std::string spec_path;
  std::filesystem::path dir;
  sweep::EngineOptions engine_options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpsweep: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") dir = value();
    else if (arg == "--cache-dir") engine_options.cache_dir = value();
    else if (arg.rfind("--", 0) == 0) return usage();
    else if (spec_path.empty()) spec_path = arg;
    else return usage();
  }

  int rc = 0;
  try {
    if (command == "fields") {
      rc = list_fields();
    } else if (command == "plan" || command == "run") {
      if (spec_path.empty()) return usage();
      const sweep::SweepSpec spec = sweep::load_sweep_spec(spec_path);
      if (dir.empty()) dir = default_dir(spec);
      sweep::write_manifest(spec, dir);
      print_plan(spec, dir);
      if (command == "run") {
        print_outcome(sweep::execute_sweep(spec, dir, engine_options));
        const std::size_t rows = sweep::summarize_sweep(spec, dir);
        std::printf("results: %zu rows -> %s\n", rows,
                    sweep::SweepPaths(dir).results_csv().string().c_str());
      }
    } else if (command == "resume" || command == "summarize") {
      if (!spec_path.empty() || dir.empty()) return usage();
      const sweep::SweepSpec spec = sweep::read_manifest(dir);
      if (command == "resume")
        print_outcome(sweep::execute_sweep(spec, dir, engine_options));
      const std::size_t rows = sweep::summarize_sweep(spec, dir);
      std::printf("results: %zu rows -> %s\n", rows,
                  sweep::SweepPaths(dir).results_csv().string().c_str());
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpsweep: %s\n", e.what());
    rc = 1;
  }
  examples::finish_obs(obs_opts);
  return rc;
}
