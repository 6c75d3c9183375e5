// rpworld — manage versioned binary world snapshots.
//
// Subcommands:
//   rpworld save [opts]          build (or cache-hit) a world and snapshot it
//   rpworld info <file>          print container layout and world summary
//   rpworld verify <file>        checksums + full decode + graph validation
//   rpworld diff <a> <b>         compare two snapshots section by section
//
// `save` goes through Scenario::build_cached, so a rerun with the same
// configuration prints "cache hit" and costs a load, not a build — the same
// path examples and benches use.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/config_fields.hpp"
#include "core/scenario.hpp"
#include "io/snapshot.hpp"
#include "obs_cli.hpp"

namespace {

using namespace rp;

int usage() {
  std::fprintf(stderr,
               "usage: rpworld save [--fast] [--table1] [--seed N] [--scale F]"
               " [--cache-dir DIR] [--out FILE]\n"
               "       rpworld info <file>\n"
               "       rpworld verify <file>\n"
               "       rpworld diff <a> <b>\n"
               "Global flags: --metrics (counter table on exit),"
               " --trace FILE (Perfetto phase trace)\n"
               "Exit codes (verify/diff classify failures):\n"
               "  0 OK / identical    1 worlds differ     2 usage or other\n"
               "  3 io error          4 corrupt           5 truncated\n"
               "  6 future version    7 invariant violation\n");
  return 2;
}

/// The example-scale world of quickstart.cpp; --fast shrinks the build the
/// same way RP_BENCH_FAST=1 shrinks the benches.
core::ScenarioConfig make_config(bool fast, bool table1, std::uint64_t seed,
                                 double scale) {
  core::ScenarioConfig config;
  config.seed = seed;
  config.euroix = !table1;
  config.membership_scale = scale;
  if (fast) core::apply_fast_mode(config);
  return config;
}

int cmd_save(int argc, char** argv) {
  bool fast = false, table1 = false;
  std::uint64_t seed = 2014;
  double scale = 1.0;
  std::filesystem::path cache_dir = io::default_cache_dir();
  std::optional<std::filesystem::path> out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpworld save: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fast") fast = true;
    else if (arg == "--table1") table1 = true;
    else if (arg == "--seed") seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--scale") scale = std::strtod(value(), nullptr);
    else if (arg == "--cache-dir") cache_dir = value();
    else if (arg == "--out") out = value();
    else { std::fprintf(stderr, "rpworld save: unknown option %s\n", arg.c_str()); return 2; }
  }

  const core::ScenarioConfig config = make_config(fast, table1, seed, scale);
  core::SnapshotCacheResult cache;
  const core::Scenario scenario =
      core::Scenario::build_cached(config, cache_dir, &cache);
  switch (cache.outcome) {
    case core::SnapshotCacheResult::Outcome::kHit:
      std::printf("cache hit: %s\n", cache.path.string().c_str());
      break;
    case core::SnapshotCacheResult::Outcome::kMiss:
      std::printf("cache miss: built world and wrote %s\n",
                  cache.path.string().c_str());
      break;
    case core::SnapshotCacheResult::Outcome::kFallback:
      std::printf("cache fallback (%s): rebuilt and rewrote %s\n",
                  cache.message.c_str(), cache.path.string().c_str());
      break;
  }
  std::printf("config digest: %s\n", io::config_digest_hex(config).c_str());
  std::printf("world: %zu ASes, %zu IXPs, vantage %s\n",
              scenario.graph().as_count(),
              scenario.ecosystem().ixps().size(),
              scenario.vantage().to_string().c_str());

  if (out) {
    io::save_scenario(scenario, *out);
    std::printf("wrote %s (%ju bytes)\n", out->string().c_str(),
                static_cast<std::uintmax_t>(std::filesystem::file_size(*out)));
  }
  return 0;
}

int cmd_info(const char* file) {
  const io::SnapshotInfo info = io::snapshot_info(file);
  std::printf("%s: rp-snapshot format v%u, %ju bytes\n", file,
              info.format_version, static_cast<std::uintmax_t>(info.file_size));
  std::printf("%-12s %12s %18s\n", "section", "bytes", "fnv1a64");
  for (const auto& s : info.sections)
    std::printf("%-12s %12ju   %016llx\n", io::section_name(s.id),
                static_cast<std::uintmax_t>(s.size),
                static_cast<unsigned long long>(s.checksum));
  std::printf("config digest: %016llx (seed %llu)\n",
              static_cast<unsigned long long>(info.config_digest),
              static_cast<unsigned long long>(info.seed));
  std::printf("world: %zu ASes (%zu transit, %zu peering links), "
              "%zu IXPs / %zu interfaces, %zu providers, %zu measured\n",
              info.as_count, info.transit_links, info.peering_links,
              info.ixp_count, info.interface_count, info.provider_count,
              info.measured_ixp_count);
  std::printf("vantage: AS%u\n", info.vantage_asn);
  return 0;
}

int cmd_verify(const char* file) {
  if (const auto failure = io::verify_snapshot(file)) {
    std::printf("%s: FAILED (%d): %s\n", file, failure->exit_code(),
                failure->message.c_str());
    return failure->exit_code();
  }
  std::printf("%s: OK (checksums, decode, graph invariants)\n", file);
  return 0;
}

int cmd_diff(const char* file_a, const char* file_b) {
  const io::SnapshotInfo a = io::snapshot_info(file_a);
  const io::SnapshotInfo b = io::snapshot_info(file_b);
  int differences = 0;
  auto report = [&differences](const char* what, const std::string& va,
                               const std::string& vb) {
    if (va == vb) return;
    std::printf("  %-12s %s != %s\n", what, va.c_str(), vb.c_str());
    ++differences;
  };
  std::printf("diff %s %s\n", file_a, file_b);
  report("version", std::to_string(a.format_version),
         std::to_string(b.format_version));
  report("digest", std::to_string(a.config_digest),
         std::to_string(b.config_digest));
  for (std::uint32_t id = io::kConfigSection; id <= io::kVantageSection;
       ++id) {
    auto find = [id](const io::SnapshotInfo& info) -> std::string {
      for (const auto& s : info.sections)
        if (s.id == id)
          return std::to_string(s.size) + "B/" + std::to_string(s.checksum);
      return "(absent)";
    };
    report(io::section_name(id), find(a), find(b));
  }
  report("as_count", std::to_string(a.as_count), std::to_string(b.as_count));
  report("interfaces", std::to_string(a.interface_count),
         std::to_string(b.interface_count));
  if (differences == 0) {
    std::printf("  identical worlds (all section checksums match)\n");
    return 0;
  }
  std::printf("  %d difference(s)\n", differences);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::ObsOptions obs_opts = examples::strip_obs_flags(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  int rc = 2;
  try {
    if (cmd == "save") rc = cmd_save(argc - 2, argv + 2);
    else if (cmd == "info" && argc == 3) rc = cmd_info(argv[2]);
    else if (cmd == "verify" && argc == 3) rc = cmd_verify(argv[2]);
    else if (cmd == "diff" && argc == 4) rc = cmd_diff(argv[2], argv[3]);
    else return usage();
  } catch (const io::SnapshotError& e) {
    // info/diff surface the same per-class exit codes as verify.
    std::fprintf(stderr, "rpworld %s: %s\n", cmd.c_str(), e.what());
    return e.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpworld %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  examples::finish_obs(obs_opts);
  return rc;
}
