// Microbenchmarks of the snapshot subsystem: encoding, a cold cache write,
// and a snapshot load. The world build they are weighed against is timed by
// perfbench's core.scenario_build_s, next to its io.snapshot_load_s.
//
// RP_BENCH_FAST=1 shrinks the world the same way the other benches do.
// Every rate is bytes over wall time (UseRealTime): encode, verify and decode
// fan out over the thread pool, so bytes over the main thread's CPU time
// would overstate them and hide a load regression.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "common.hpp"
#include "io/snapshot.hpp"
#include "perf_json.hpp"

namespace {

using namespace rp;

const core::ScenarioConfig& bench_config() {
  static const core::ScenarioConfig config = bench::scenario_config();
  return config;
}

/// A world built once and shared by the encode/load benchmarks.
const core::Scenario& bench_world() {
  static const core::Scenario world = core::Scenario::build(bench_config());
  return world;
}

std::filesystem::path bench_snapshot_path() {
  static const std::filesystem::path path = [] {
    const auto file = std::filesystem::temp_directory_path() /
                      "rp_perf_io_world.rpsnap";
    io::save_scenario(bench_world(), file);
    return file;
  }();
  return path;
}

void BM_SnapshotEncode(benchmark::State& state) {
  const core::Scenario& world = bench_world();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto image = io::encode_scenario(world);
    bytes = image.size();
    benchmark::DoNotOptimize(image);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SnapshotColdWrite(benchmark::State& state) {
  const core::Scenario& world = bench_world();
  const auto path =
      std::filesystem::temp_directory_path() / "rp_perf_io_cold.rpsnap";
  for (auto _ : state) {
    io::save_scenario(world, path);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotColdWrite)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SnapshotLoad(benchmark::State& state) {
  const auto path = bench_snapshot_path();
  for (auto _ : state) {
    core::Scenario loaded = io::load_scenario(path);
    benchmark::DoNotOptimize(loaded);
    state.counters["ases"] = static_cast<double>(loaded.graph().as_count());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return rp::bench::run_benchmarks_with_json(argc, argv, "perf_io");
}
