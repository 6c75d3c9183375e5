// rpevolve — replay declarative epoch timelines over a base world
// (DESIGN.md §17).
//
//   rpevolve plan TIMELINE [--dir DIR]    parse + canonicalize, write the
//                                         manifest, print the epoch plan
//   rpevolve replay TIMELINE [--dir DIR] [--cache-dir DIR] [--no-snapshots]
//                                         plan + replay every epoch +
//                                         summarize (resumable)
//   rpevolve resume --dir DIR [...]       finish an interrupted replay from
//                                         its manifest and epoch records
//   rpevolve summarize --dir DIR          collate records into
//                                         results.csv/json
//   rpevolve diff --dir DIR K1 K2         compare two epoch snapshots
//                                         (membership/interface deltas — the
//                                         same numbers `rpworld diff` prints
//                                         for any two snapshots)
//
// Every epoch row reads the all-IXP peer group's 8-step greedy curve: the
// timeline digest identifies a replay, so no flag may change a row's bytes.
// --dir defaults to $RP_EVOLVE_DIR/<timeline name> when RP_EVOLVE_DIR is
// set, otherwise ./rpevolve-<timeline name>. The base world builds through
// the scenario snapshot cache ($RP_SNAPSHOT_CACHE / .rpsnap-cache;
// --cache-dir overrides). --metrics / --trace work as on every example. A
// replay killed mid-timeline (Ctrl-C, or an armed RP_FAULT=evolve.apply:...
// site) is resumable: completed epochs are on disk and `rpevolve resume`
// produces records and snapshots byte-identical to an uninterrupted run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "evolve/replay.hpp"
#include "evolve/timeline.hpp"
#include "io/snapshot.hpp"
#include "obs_cli.hpp"

namespace {

using namespace rp;

int usage() {
  std::fprintf(
      stderr,
      "usage: rpevolve plan TIMELINE [--dir DIR]\n"
      "       rpevolve replay TIMELINE [--dir DIR] [--cache-dir DIR]\n"
      "                [--no-snapshots]\n"
      "       rpevolve resume --dir DIR [--cache-dir DIR] [--no-snapshots]\n"
      "       rpevolve summarize --dir DIR\n"
      "       rpevolve diff --dir DIR K1 K2\n"
      "       (all subcommands also accept --metrics / --trace FILE)\n");
  return 2;
}

std::filesystem::path default_dir(const evolve::Timeline& timeline) {
  if (const char* base = std::getenv("RP_EVOLVE_DIR");
      base != nullptr && *base != '\0')
    return std::filesystem::path(base) / timeline.name;
  return std::filesystem::path("rpevolve-" + timeline.name);
}

void print_plan(const evolve::Timeline& timeline,
                const std::filesystem::path& dir) {
  std::printf("timeline '%s' (digest %s): %zu epochs, %zu events\n",
              timeline.name.c_str(),
              evolve::timeline_digest_hex(timeline).c_str(),
              timeline.epochs.size(), timeline.event_count());
  for (const evolve::TimelineEpoch& epoch : timeline.epochs)
    std::printf("  epoch %-20s %zu event(s)\n", epoch.label.c_str(),
                epoch.events.size());
  std::printf("  base world: %s\n",
              io::config_digest_hex(timeline.base_config()).c_str());
  std::printf("  directory:  %s\n", dir.string().c_str());
}

void print_outcome(const evolve::ReplayOutcome& outcome) {
  std::printf("replayed %zu epoch(s) (%zu skipped via completion records)\n",
              outcome.executed, outcome.skipped);
}

/// Epoch-snapshot diff: the same membership numbers `rpworld diff` derives,
/// computed from the two decoded worlds.
int diff_epochs(const std::filesystem::path& dir, std::size_t k1,
                std::size_t k2) {
  const evolve::EvolvePaths paths(dir);
  const io::SnapshotInfo a = io::snapshot_info(paths.snapshot(k1));
  const io::SnapshotInfo b = io::snapshot_info(paths.snapshot(k2));
  std::printf("epoch %zu -> %zu\n", k1, k2);
  std::printf("  ixps        %8zu -> %-8zu (%+lld)\n", a.ixp_count,
              b.ixp_count,
              static_cast<long long>(b.ixp_count) -
                  static_cast<long long>(a.ixp_count));
  std::printf("  interfaces  %8zu -> %-8zu (%+lld)\n", a.interface_count,
              b.interface_count,
              static_cast<long long>(b.interface_count) -
                  static_cast<long long>(a.interface_count));
  std::printf("  ases        %8zu -> %-8zu (%+lld)\n", a.as_count, b.as_count,
              static_cast<long long>(b.as_count) -
                  static_cast<long long>(a.as_count));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::ObsOptions obs_opts = examples::strip_obs_flags(argc, argv);
  if (argc < 2) return usage();
  const std::string command = argv[1];

  std::string timeline_path;
  std::filesystem::path dir;
  evolve::ReplayOptions options;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpevolve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") dir = value();
    else if (arg == "--cache-dir") options.cache_dir = value();
    else if (arg == "--no-snapshots") options.snapshots = false;
    else if (arg.rfind("--", 0) == 0) return usage();
    else positional.push_back(arg);
  }
  if (!positional.empty()) timeline_path = positional[0];

  int rc = 0;
  try {
    if (command == "plan" || command == "replay") {
      if (timeline_path.empty()) return usage();
      const evolve::Timeline timeline = evolve::load_timeline(timeline_path);
      if (dir.empty()) dir = default_dir(timeline);
      evolve::write_manifest(timeline, dir);
      print_plan(timeline, dir);
      if (command == "replay") {
        print_outcome(evolve::replay_timeline(timeline, dir, options));
        const std::size_t rows = evolve::summarize_replay(timeline, dir);
        std::printf("results: %zu rows -> %s\n", rows,
                    evolve::EvolvePaths(dir).results_csv().string().c_str());
      }
    } else if (command == "resume" || command == "summarize") {
      if (!timeline_path.empty() || dir.empty()) return usage();
      const evolve::Timeline timeline = evolve::read_manifest(dir);
      if (command == "resume")
        print_outcome(evolve::replay_timeline(timeline, dir, options));
      const std::size_t rows = evolve::summarize_replay(timeline, dir);
      std::printf("results: %zu rows -> %s\n", rows,
                  evolve::EvolvePaths(dir).results_csv().string().c_str());
    } else if (command == "diff") {
      if (dir.empty() || positional.size() != 2) return usage();
      rc = diff_epochs(
          dir,
          examples::parse_flag<std::size_t>("rpevolve", "epoch A",
                                            positional[0].c_str()),
          examples::parse_flag<std::size_t>("rpevolve", "epoch B",
                                            positional[1].c_str()));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpevolve: %s\n", e.what());
    rc = 1;
  }
  examples::finish_obs(obs_opts);
  return rc;
}
