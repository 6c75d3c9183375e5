// rpstream — record and replay streaming flow ingests.
//
// Subcommands:
//   rpstream log [opts] --out FILE     build a world, stream its rate model's
//                                      bins (transit-endpoint schema) into an
//                                      RPSNAP bin log
//   rpstream ingest [opts] --log FILE  replay a bin log through the streaming
//                                      ingest + incremental offload and print
//                                      a deterministic summary on stdout
//
// The summary is the byte-identity surface of the ci.sh stream smoke: a run
// killed mid-ingest (stream.bin fault site) and resumed from its checkpoint
// must print exactly the bytes of an uninterrupted run. Progress notes go to
// stderr so stdout stays comparable.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/config_fields.hpp"
#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "obs_cli.hpp"
#include "stream/session.hpp"

namespace {

using namespace rp;

int usage() {
  std::fprintf(
      stderr,
      "usage: rpstream log [--fast] [--seed N] [--scale F] [--span-days D]\n"
      "                    [--bins N] [--cache-dir DIR] --out FILE\n"
      "       rpstream ingest [--fast] [--seed N] [--scale F] [--span-days D]\n"
      "                    [--cache-dir DIR] --log FILE [--group 1..4]\n"
      "                    [--checkpoint FILE --every N] [--resume]\n"
      "                    [--max-bins N] [--steps N]\n"
      "Global flags: --metrics, --trace FILE\n"
      "Exit codes: 0 OK, 2 usage, 9 injected fault (RP_FAULT=stream.bin:...),\n"
      "            3..7 snapshot failure classes (see rpworld)\n");
  return 2;
}

struct WorldOptions {
  bool fast = false;
  std::uint64_t seed = 2014;
  double scale = 1.0;
  std::int64_t span_days = 28;
  std::filesystem::path cache_dir = io::default_cache_dir();
};

/// Builds the scenario + §4 study both subcommands share. The log and the
/// ingest must be given the same world options: the ingest validates the
/// log's schema against the rebuilt analyzer's transit endpoints. The
/// scenario lives on the heap because the study's analyzer keeps pointers
/// into it — its address must outlive the bundle's moves.
struct StudyBundle {
  std::unique_ptr<core::Scenario> scenario;
  core::OffloadStudy study;
};

StudyBundle build_study(const WorldOptions& options) {
  core::ScenarioConfig config;
  config.seed = options.seed;
  config.membership_scale = options.scale;
  if (options.fast) core::apply_fast_mode(config);
  auto scenario = std::make_unique<core::Scenario>(
      core::Scenario::build_cached(config, options.cache_dir));
  core::OffloadStudyConfig study_config;
  study_config.rate_model.span = util::SimDuration::days(options.span_days);
  core::OffloadStudy study = core::OffloadStudy::run(*scenario, study_config);
  return {std::move(scenario), std::move(study)};
}

bool parse_world_flag(const std::string& arg, WorldOptions& options, int argc,
                      char** argv, int& i) {
  auto value = [&]() -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "rpstream: %s needs a value\n", arg.c_str());
      std::exit(2);
    }
    return argv[++i];
  };
  if (arg == "--fast") options.fast = true;
  else if (arg == "--seed")
    options.seed =
        examples::parse_flag<std::uint64_t>("rpstream", arg, value());
  else if (arg == "--scale")
    options.scale = examples::parse_scale_flag("rpstream", arg, value());
  else if (arg == "--span-days")
    options.span_days =
        examples::parse_flag<std::int64_t>("rpstream", arg, value());
  else if (arg == "--cache-dir") options.cache_dir = value();
  else return false;
  return true;
}

stream::BinSchema endpoint_schema(const offload::OffloadAnalyzer& analyzer) {
  stream::BinSchema schema;
  for (const auto& endpoint : analyzer.transit_endpoints())
    schema.networks.push_back(endpoint.asn);
  return schema;
}

int cmd_log(int argc, char** argv) {
  WorldOptions world;
  std::filesystem::path out;
  std::uint64_t bins = 0;  // 0 = the model's full span.
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (parse_world_flag(arg, world, argc, argv, i)) continue;
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpstream log: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") out = value();
    else if (arg == "--bins")
      bins = examples::parse_flag<std::uint64_t>("rpstream log", arg, value());
    else { std::fprintf(stderr, "rpstream log: unknown option %s\n", arg.c_str()); return 2; }
  }
  if (out.empty()) return usage();

  const StudyBundle bundle = build_study(world);
  stream::RateModelBinSource source(
      bundle.study.rates(), endpoint_schema(bundle.study.analyzer()).networks);
  if (bins == 0) bins = source.bin_count();
  const std::uint64_t written = stream::write_bin_log(source, bins, out);
  std::fprintf(stderr,
               "rpstream: wrote %llu bins x %zu networks to %s (%ju bytes)\n",
               static_cast<unsigned long long>(written),
               source.schema().size(), out.string().c_str(),
               static_cast<std::uintmax_t>(std::filesystem::file_size(out)));
  return 0;
}

int cmd_ingest(int argc, char** argv) {
  WorldOptions world;
  std::filesystem::path log_path;
  stream::StreamSessionConfig session_config;
  bool resume = false;
  std::uint64_t max_bins = ~std::uint64_t{0};
  std::size_t steps = 8;
  int group = 4;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (parse_world_flag(arg, world, argc, argv, i)) continue;
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rpstream ingest: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--log") log_path = value();
    else if (arg == "--checkpoint") session_config.checkpoint_path = value();
    else if (arg == "--every")
      session_config.checkpoint_every =
          examples::parse_flag<std::uint64_t>("rpstream ingest", arg, value());
    else if (arg == "--resume") resume = true;
    else if (arg == "--max-bins")
      max_bins =
          examples::parse_flag<std::uint64_t>("rpstream ingest", arg, value());
    else if (arg == "--steps")
      steps =
          examples::parse_flag<std::size_t>("rpstream ingest", arg, value());
    else if (arg == "--group")
      group = examples::parse_flag<int>("rpstream ingest", arg, value());
    else { std::fprintf(stderr, "rpstream ingest: unknown option %s\n", arg.c_str()); return 2; }
  }
  if (log_path.empty() || group < 1 || group > 4) return usage();

  const StudyBundle bundle = build_study(world);
  const offload::OffloadAnalyzer& analyzer = bundle.study.analyzer();
  stream::BinLogSource source(log_path);
  stream::StreamSession session(source, analyzer,
                                static_cast<offload::PeerGroup>(group),
                                session_config);
  if (resume && session.resume())
    std::fprintf(stderr, "rpstream: resumed at bin %llu\n",
                 static_cast<unsigned long long>(session.ingest().next_bin()));
  const std::uint64_t consumed = session.run(max_bins);
  std::fprintf(stderr, "rpstream: consumed %llu bins (total %llu)\n",
               static_cast<unsigned long long>(consumed),
               static_cast<unsigned long long>(session.ingest().bins()));

  // --- The deterministic summary (stdout; %.17g keeps doubles exact) -------
  const stream::StreamIngest& ingest = session.ingest();
  std::printf("bins %llu\n",
              static_cast<unsigned long long>(ingest.bins()));
  std::printf("transit.p95.in %.17g\n",
              ingest.transit_p95(flow::Direction::kInbound));
  std::printf("transit.p95.out %.17g\n",
              ingest.transit_p95(flow::Direction::kOutbound));
  std::printf("offload.p95.in %.17g\n",
              ingest.offload_p95(flow::Direction::kInbound));
  std::printf("offload.p95.out %.17g\n",
              ingest.offload_p95(flow::Direction::kOutbound));

  stream::IncrementalOffload& engine = session.incremental();
  if (engine.has_live_bin()) {
    const offload::Potential live = engine.live_potential();
    std::printf("live.bin %llu\n",
                static_cast<unsigned long long>(engine.live_bin()));
    std::printf("live.offload.in %.17g\n", live.inbound_bps);
    std::printf("live.offload.out %.17g\n", live.outbound_bps);
  }

  const auto all = analyzer.all_ixps();
  engine.reset(all);
  const offload::Potential everywhere = engine.potential();
  std::printf("potential.all.in %.17g\n", everywhere.inbound_bps);
  std::printf("potential.all.out %.17g\n", everywhere.outbound_bps);
  std::printf("potential.all.covered %zu\n", everywhere.covered_networks);

  const auto curve =
      analyzer.greedy_by_traffic(static_cast<offload::PeerGroup>(group), steps);
  std::printf("greedy.steps %zu\n", curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::printf("greedy.%zu %s %.17g %.17g %.17g %.17g\n", i,
                curve[i].acronym.c_str(), curve[i].gained, curve[i].remaining,
                curve[i].remaining_inbound_bps,
                curve[i].remaining_outbound_bps);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::ObsOptions obs_opts = examples::strip_obs_flags(argc, argv);
  if (argc < 2) return usage();
  const std::string command = argv[1];
  int rc = 2;
  try {
    if (command == "log") rc = cmd_log(argc - 2, argv + 2);
    else if (command == "ingest") rc = cmd_ingest(argc - 2, argv + 2);
    else rc = usage();
  } catch (const rp::fault::InjectedFault& fault) {
    std::fprintf(stderr, "rpstream: injected fault at %s call %llu\n",
                 fault.site().c_str(),
                 static_cast<unsigned long long>(fault.call()));
    rc = 9;
  } catch (const rp::io::SnapshotError& error) {
    std::fprintf(stderr, "rpstream: %s\n", error.what());
    rc = error.exit_code();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rpstream: %s\n", error.what());
    rc = 2;
  }
  rp::examples::finish_obs(obs_opts);
  return rc;
}
