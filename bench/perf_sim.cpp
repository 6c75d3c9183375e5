// Microbenchmarks of the discrete-event testbed under the traffic §3
// campaigns produce: a switched-LAN ping round trip, a small single-IXP
// campaign, and the all-IXP campaign batch at Euro-IX scale (and at a 12x
// stress scale, O(100k) member interfaces, when RP_BENCH_FAST is off). Their
// rates are gated in BENCH_perf_sim.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

#include "common.hpp"
#include "geo/cities.hpp"
#include "measure/campaign.hpp"
#include "net/subnet_allocator.hpp"
#include "perf_json.hpp"
#include "sim/host.hpp"
#include "sim/l2_switch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rp;

void BM_PingRoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  sim::Network network(sim);
  auto& fabric = network.emplace_device<sim::L2Switch>("fabric");
  sim::HostConfig lg_config;
  lg_config.name = "lg";
  lg_config.mac = net::MacAddr::from_id(1);
  lg_config.ip = net::Ipv4Addr(198, 18, 0, 1);
  lg_config.subnet = net::Ipv4Prefix::make(net::Ipv4Addr(198, 18, 0, 0), 24);
  auto& lg = network.emplace_device<sim::Host>(sim, lg_config, util::Rng(1));
  sim::HostConfig member_config = lg_config;
  member_config.name = "member";
  member_config.mac = net::MacAddr::from_id(2);
  member_config.ip = net::Ipv4Addr(198, 18, 0, 2);
  auto& member =
      network.emplace_device<sim::Host>(sim, member_config, util::Rng(2));
  benchmark::DoNotOptimize(member);
  network.connect(fabric, lg, util::SimDuration::micros(10));
  network.connect(fabric, member, util::SimDuration::micros(50));

  for (auto _ : state) {
    bool replied = false;
    lg.ping(member_config.ip, util::SimDuration::seconds(2),
            [&replied](const sim::PingOutcome& o) { replied = o.replied; });
    sim.run();
    benchmark::DoNotOptimize(replied);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PingRoundTrip);

void BM_SmallIxpCampaign(benchmark::State& state) {
  const auto& city = geo::CityRegistry::world().at("Amsterdam");
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ixp::Ixp ixp(0, "BENCH", "Bench IXP", city, 0.5,
                 net::Ipv4Prefix::make(net::Ipv4Addr(198, 18, 0, 0), 23));
    net::HostAllocator addrs(ixp.peering_lan());
    ixp.add_looking_glass(ixp::LookingGlass::pch(addrs.allocate()));
    for (int i = 0; i < 100; ++i) {
      ixp::MemberInterface iface;
      iface.asn = net::Asn{static_cast<std::uint32_t>(100 + i)};
      iface.addr = addrs.allocate();
      iface.mac = net::MacAddr::from_id(static_cast<std::uint32_t>(i + 1));
      iface.equipment_city = city;
      ixp.add_interface(iface);
    }
    measure::CampaignConfig config;
    config.length = util::SimDuration::days(2);
    config.queries_per_pch_lg = 3;
    util::Rng rng(42);
    state.ResumeTiming();
    auto measurement = measure::run_ixp_campaign(ixp, config, rng);
    events += measurement.events_executed;
    benchmark::DoNotOptimize(measurement);
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmallIxpCampaign)->Unit(benchmark::kMillisecond);

// Worlds for the all-IXP campaign, cached per membership-scale multiplier.
// measure_all_ixps puts a looking glass at every Euro-IX exchange (65 IXPs);
// the 12x multiplier stresses the scenario to O(100k) member interfaces.
const core::Scenario& all_ixp_world(int scale) {
  static std::map<int, core::Scenario> worlds;
  auto it = worlds.find(scale);
  if (it == worlds.end()) {
    core::ScenarioConfig config = bench::scenario_config();
    config.measure_all_ixps = true;
    config.membership_scale *= scale;
    config.member_pool_size *= scale;
    it = worlds.emplace(scale, core::Scenario::build(config)).first;
  }
  return it->second;
}

void BM_AllIxpCampaign(benchmark::State& state) {
  // In fast mode the 12x arg degrades to the 1x smoke world: the smoke lane
  // only checks that the batched path runs and lands its JSON keys.
  const int scale = bench::fast_mode() ? 1 : static_cast<int>(state.range(0));
  const core::Scenario& world = all_ixp_world(scale);

  // A trimmed campaign: the per-interface query load is cut so the bench
  // measures engine + fabric throughput, not multiplied probe counts.
  measure::CampaignConfig config;
  config.length = util::SimDuration::days(2);
  config.queries_per_pch_lg = 2;
  config.queries_per_ripe_lg = 1;

  std::vector<const ixp::Ixp*> ixps;
  std::size_t interfaces = 0;
  for (const ixp::IxpId id : world.measured_ixps()) {
    ixps.push_back(&world.ecosystem().ixp(id));
    interfaces += world.ecosystem().ixp(id).interfaces().size();
  }

  // events_per_sec is computed against wall time by hand: the work runs on
  // pool workers, so the main thread's CPU time (what a rate counter divides
  // by) says nothing about campaign throughput.
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto results = measure::CampaignRunner::run(
        ixps, config,
        [&world](const ixp::Ixp& ixp) {
          return world.fork_rng(0x100 + ixp.id());
        });
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (const auto& m : results) events += m.events_executed;
    benchmark::DoNotOptimize(results);
  }
  state.counters["ixps"] = static_cast<double>(ixps.size());
  state.counters["interfaces"] = static_cast<double>(interfaces);
  state.counters["campaign_wall_s"] =
      wall_seconds / static_cast<double>(state.iterations());
  state.counters["events_per_sec"] =
      wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  state.counters["rp_threads"] =
      static_cast<double>(util::ThreadPool::global().thread_count());
}
BENCHMARK(BM_AllIxpCampaign)
    ->Arg(1)->Arg(12)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return rp::bench::run_benchmarks_with_json(argc, argv, "perf_sim");
}
