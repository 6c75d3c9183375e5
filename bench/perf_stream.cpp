// Microbenchmarks of the rp::stream hot paths, with the two headline
// numbers the CI perf gate tracks:
//   * bins_per_sec        streaming ingest throughput (fold one BinFrame
//                         into every per-network and aggregate sketch)
//   * delta_speedup       a single-IXP what-if answered by the incremental
//                         engine vs. the batch analyzer re-unioning the
//                         reached set's coverage masks (target: >= 10x at
//                         paper scale)
// The world is the shared bench scenario (RP_BENCH_FAST shrinks it), the
// same one the fig5-fig10 harnesses study.
#include <benchmark/benchmark.h>

#include <chrono>
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
  util::DynamicBitset covered(analyzer.transit_endpoints().size());
  const auto& masks = analyzer.coverage_masks(offload::PeerGroup::kAll);
  for (ixp::IxpId id : analyzer.all_ixps()) covered |= masks[id];
  return covered;
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

/// One timing pass: every not-reached IXP asked as a single-IXP what-if.
/// `incremental` answers from the live covered set; the batch arm rebuilds
/// the union with analyzer.potential_at on reached + candidate.
void BM_WhatIfDeltaVsRecompute(benchmark::State& state) {
  const auto& analyzer = bench::offload_study().analyzer();
  stream::IncrementalOffload engine(analyzer, offload::PeerGroup::kAll);
  // Reached: the first five greedy picks — a realistic serve-daemon state.
  std::vector<ixp::IxpId> reached;
  for (const auto& step :
       analyzer.greedy_by_traffic(offload::PeerGroup::kAll, 5))
    reached.push_back(step.ixp_id);
  engine.reset(reached);
  std::vector<ixp::IxpId> candidates;
  for (ixp::IxpId id : analyzer.all_ixps())
    if (!engine.is_reached(id)) candidates.push_back(id);

  using clock = std::chrono::steady_clock;
  double delta_ns = 0.0;
  double full_ns = 0.0;
  std::uint64_t whatifs = 0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    for (ixp::IxpId id : candidates) {
      const auto p = engine.what_if(std::span<const ixp::IxpId>{&id, 1});
      benchmark::DoNotOptimize(p);
    }
    const auto t1 = clock::now();
    std::vector<ixp::IxpId> set = reached;
    set.push_back(0);
    for (ixp::IxpId id : candidates) {
      set.back() = id;
      const auto p = analyzer.potential_at(set, offload::PeerGroup::kAll);
      benchmark::DoNotOptimize(p);
    }
    const auto t2 = clock::now();
    delta_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    full_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
    whatifs += candidates.size();
  }
  state.counters["delta_speedup"] = full_ns / delta_ns;
  state.counters["whatifs_per_sec"] =
      static_cast<double>(whatifs) / (delta_ns * 1e-9);
  state.counters["candidates"] = static_cast<double>(candidates.size());
  set_thread_counter(state);
}
BENCHMARK(BM_WhatIfDeltaVsRecompute)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rp::bench::run_benchmarks_with_json(argc, argv, "perf_stream");
}
