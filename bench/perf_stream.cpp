// Microbenchmarks of the rp::stream hot paths. The CI perf gate tracks
// bins_per_sec for both arms:
//   * BM_StreamIngestBins  streaming ingest throughput (fold one BinFrame
//                          into the four aggregate sketches)
//   * BM_BinLogReplay      bin-log decode throughput
// The world is the shared bench scenario (RP_BENCH_FAST shrinks it), the
// same one the fig5-fig10 harnesses study.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "common.hpp"
#include "perf_json.hpp"
#include "stream/session.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rp;

void set_thread_counter(benchmark::State& state) {
  state.counters["rp_threads"] =
      static_cast<double>(util::ThreadPool::global().thread_count());
}

std::vector<net::Asn> endpoint_networks() {
  std::vector<net::Asn> networks;
  for (const auto& endpoint : bench::offload_study().analyzer().transit_endpoints())
    networks.push_back(endpoint.asn);
  return networks;
}

/// Pre-rendered frames so the ingest benchmarks time folding, not the rate
/// model. Capped to bound the benchmark's footprint; the cap covers the
/// fast world's whole span and a third of the paper month.
const std::vector<stream::BinFrame>& frames() {
  static const std::vector<stream::BinFrame> cached = [] {
    const auto& study = bench::offload_study();
    stream::RateModelBinSource source(study.rates(), endpoint_networks());
    const std::uint64_t bins =
        std::min<std::uint64_t>(source.bin_count(), 2048);
    std::vector<stream::BinFrame> out(static_cast<std::size_t>(bins));
    for (stream::BinFrame& frame : out) source.next(frame);
    return out;
  }();
  return cached;
}

util::DynamicBitset maximal_covered() {
  const auto& analyzer = bench::offload_study().analyzer();
  return analyzer.covered_mask(analyzer.all_ixps(), offload::PeerGroup::kAll);
}

void BM_StreamIngestBins(benchmark::State& state) {
  const auto& input = frames();
  const stream::BinSchema schema{endpoint_networks()};
  std::uint64_t bins = 0;
  for (auto _ : state) {
    stream::StreamIngest ingest(schema, maximal_covered());
    for (const stream::BinFrame& frame : input) ingest.consume(frame);
    benchmark::DoNotOptimize(ingest.transit_p95(flow::Direction::kInbound));
    bins += input.size();
  }
  state.counters["bins_per_sec"] = benchmark::Counter(
      static_cast<double>(bins), benchmark::Counter::kIsRate);
  state.counters["networks"] = static_cast<double>(schema.size());
  set_thread_counter(state);
}
BENCHMARK(BM_StreamIngestBins)->Unit(benchmark::kMillisecond);

void BM_BinLogReplay(benchmark::State& state) {
  const auto path =
      std::filesystem::temp_directory_path() / "rp_perf_stream_log.rpsnap";
  {
    const auto& study = bench::offload_study();
    stream::RateModelBinSource source(study.rates(), endpoint_networks());
    const std::uint64_t bins =
        std::min<std::uint64_t>(source.bin_count(), 2048);
    stream::write_bin_log(source, bins, path);
  }
  std::uint64_t bins = 0;
  for (auto _ : state) {
    stream::BinLogSource replay(path);
    stream::BinFrame frame;
    while (replay.next(frame)) ++bins;
    benchmark::DoNotOptimize(frame);
  }
  state.counters["bins_per_sec"] = benchmark::Counter(
      static_cast<double>(bins), benchmark::Counter::kIsRate);
  state.counters["log_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  set_thread_counter(state);
  std::filesystem::remove(path);
}
BENCHMARK(BM_BinLogReplay)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rp::bench::run_benchmarks_with_json(argc, argv, "perf_stream");
}
