// The batch workloads: the paper pipeline and the all-IXP campaign.
//
// paper_pipeline runs the paper end to end on the paper-scale world, pass
// after pass: load the world from the snapshot cache, §3 campaigns, the §4
// traffic matrix, RIB, analyzer and Fig. 6-10 queries, the §5 fit and sweep,
// the §6 flattening and risk studies, and an epoch-timeline replay.
// campaign_all_ixps runs only SpreadStudy::run, on a world with a looking
// glass at every IXP and three times the membership, so the §3 simulator and
// its ThreadPool sharding are under load with no RIB work at all.
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bgp/rib.hpp"
#include "bgp/route_computer.hpp"
#include "core/config_fields.hpp"
#include "core/offload_study.hpp"
#include "core/spread_study.hpp"
#include "core/viability_study.hpp"
#include "evolve/engine.hpp"
#include "evolve/timeline.hpp"
#include "flow/rate_model.hpp"
#include "flow/traffic_matrix.hpp"
#include "harness.hpp"
#include "layer2/entity_path.hpp"
#include "layer2/risk.hpp"
#include "offload/analyzer.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using rp::offload::PeerGroup;

/// Destinations per pass whose RIB route is re-derived by the oracle.
constexpr std::size_t kRouteSamples = 24;
constexpr std::size_t kEpochs = 8;

/// ThreadPool width (RP_THREADS), the denominator of CPU utilization.
double workers() {
  return static_cast<double>(rp::util::ThreadPool::configured_threads());
}

rp::core::ScenarioConfig paper_config(const Options& options) {
  rp::core::ScenarioConfig config;
  config.seed = options.seed;
  if (options.fast) rp::core::apply_fast_mode(config);
  return config;
}

/// Renders the parts of a §3 report the paper reads, for digests.
void render_spread(std::ostringstream& os,
                   const rp::measure::SpreadReport& report) {
  for (const auto& row : report.rows()) {
    os << "row " << row.acronym << ' ' << row.probed << ' ' << row.analyzed
       << ' ' << row.remote_interfaces;
    for (std::size_t count : row.band_counts) os << ' ' << count;
    for (std::size_t count : row.discard_counts) os << ' ' << count;
    os << '\n';
  }
  os << "spread " << report.total_probed() << ' ' << report.total_analyzed()
     << ' ' << report.identified_networks() << ' ' << report.remote_networks()
     << ' ' << exact(report.ixps_with_remote_fraction()) << '\n';
}

void render_steps(std::ostringstream& os, const char* tag,
                  const std::vector<rp::offload::GreedyStep>& steps) {
  os << tag << ' ' << steps.size();
  for (const auto& step : steps)
    os << ' ' << step.acronym << ':' << exact(step.gained) << ':'
       << exact(step.remaining);
  os << '\n';
}

void render_potential(std::ostringstream& os, const char* tag,
                      const rp::offload::Potential& p) {
  os << tag << ' ' << exact(p.inbound_bps) << ' ' << exact(p.outbound_bps)
     << ' ' << p.covered_networks << '\n';
}

/// Campaign statistics the per-layer metrics read off a study's raw data.
void add_campaign_counts(const rp::core::SpreadStudy& study,
                         Outcome& outcome) {
  std::uint64_t events = 0, largest = 0, probes = 0;
  for (const auto& ixp : study.raw_measurements()) {
    events += ixp.events_executed;
    largest = std::max(largest, ixp.events_executed);
    for (const auto& iface : ixp.interfaces) {
      for (const auto& [op, samples] : iface.samples) probes += samples.size();
      probes += iface.route_server_samples.size();
    }
  }
  outcome.per_layer["sim.events"] = static_cast<double>(events);
  outcome.per_layer["measure.probes"] = static_cast<double>(probes);
  outcome.per_layer["measure.largest_campaign_share"] =
      events == 0 ? 0.0
                  : static_cast<double>(largest) / static_cast<double>(events);
}

/// A seeded 8-epoch timeline over `world` (src/evolve grammar): each epoch
/// joins members at a drawn IXP plus one cheap event.
std::string draw_timeline(const rp::core::Scenario& world, const Options& options) {
  Draw draw(options.seed ^ 0x7e57ab1eull);
  std::vector<std::string> acronyms;
  for (const auto& ixp : world.ecosystem().ixps())
    acronyms.push_back(ixp.acronym());
  std::ostringstream os;
  os << "name perfbench\nfast " << (options.fast ? 1 : 0) << "\nbase seed "
     << options.seed << '\n';
  for (std::size_t e = 0; e < kEpochs; ++e) {
    os << "epoch e" << e << "\n  join " << acronyms[draw.below(acronyms.size())]
       << ' ' << 2 + draw.below(7) << ' ' << draw.uniform(0.0, 0.8) << '\n';
    switch (draw.below(3)) {
      case 0:
        os << "  capacity " << acronyms[draw.below(acronyms.size())] << ' '
           << draw.uniform(1.0, 4.0) << '\n';
        break;
      case 1:
        os << "  traffic " << draw.uniform(1.05, 1.4) << '\n';
        break;
      default:
        os << "  price-decay " << draw.uniform(0.85, 0.98) << '\n';
        break;
    }
  }
  return os.str();
}

/// The state one pipeline pass leaves for the off-clock route check.
struct PassResult {
  std::uint64_t digest = 0;
  std::unique_ptr<rp::core::Scenario> world;
  std::unique_ptr<rp::bgp::Rib> rib;
};

/// One timed pass of the paper pipeline. Every stage is a span whose parent
/// is the pass, so their sum over the pass wall time is the span coverage.
PassResult pipeline_pass(const rp::core::ScenarioConfig& config,
                         const std::filesystem::path& cache_dir,
                         const Options& options, std::uint64_t op,
                         Outcome& outcome) {
  Span pass_span("pipeline.pass", op);
  PassResult result;
  std::ostringstream os;
  {
    Span span("io.snapshot_load", op);
    result.world = std::make_unique<rp::core::Scenario>(
        load_cached(config, cache_dir));
  }
  const rp::core::Scenario& world = *result.world;

  {
    Span span("measure.spread", op);
    const auto study = rp::core::SpreadStudy::run(world);
    render_spread(os, study.report());
    if (op == 1) add_campaign_counts(study, outcome);
  }

  const rp::core::OffloadStudyConfig study_config;
  std::optional<rp::flow::TrafficMatrix> matrix;
  std::optional<rp::flow::RateModel> rates;
  {
    Span span("flow.traffic", op);
    // The same fork label OffloadStudy::run uses, so the matrix is the
    // study's own.
    rp::util::Rng rng = world.fork_rng(0x200);
    matrix.emplace(rp::flow::TrafficMatrix::generate(
        world.graph(), world.vantage(), study_config.traffic, rng));
    rates.emplace(*matrix, study_config.rate_model);
  }
  {
    Span span("bgp.rib_build", op);
    result.rib = std::make_unique<rp::bgp::Rib>(
        rp::bgp::Rib::build(world.graph(), world.vantage()));
  }
  os << "rib " << result.rib->prefix_count() << ' '
     << result.rib->destination_count() << '\n';

  std::optional<rp::offload::OffloadAnalyzer> analyzer;
  {
    Span span("offload.analyzer", op);
    analyzer.emplace(world.graph(), world.ecosystem(), world.vantage(),
                     *matrix, *result.rib, study_config.analyzer);
  }

  std::vector<rp::offload::GreedyStep> all_steps;
  {
    Span span("offload.queries", op);
    for (PeerGroup group : {PeerGroup::kOpen, PeerGroup::kOpenTop10Selective,
                            PeerGroup::kOpenSelective, PeerGroup::kAll}) {
      auto steps = analyzer->greedy_by_traffic(group, 20);
      render_steps(os, "greedy", steps);
      if (group == PeerGroup::kAll) all_steps = std::move(steps);
    }
    render_steps(os, "addresses",
                 analyzer->greedy_by_addresses(PeerGroup::kAll, 20));
    const auto everywhere = analyzer->all_ixps();
    render_potential(os, "potential",
                     analyzer->potential_at(everywhere, PeerGroup::kAll));
    if (all_steps.size() >= 2) {
      const rp::ixp::IxpId first[] = {all_steps[0].ixp_id};
      render_potential(os, "remaining",
                       analyzer->remaining_potential_at(
                           all_steps[1].ixp_id, first, PeerGroup::kAll));
    }
    for (const auto& row : analyzer->top_contributors(10, PeerGroup::kAll))
      os << "contributor " << row.asn.value() << ' ' << exact(row.total_bps())
         << '\n';
  }

  {
    // Fig. 5b: the transit series against the maximal offload series, as
    // OffloadStudy::time_series computes it.
    Span span("flow.series", op);
    std::vector<rp::net::Asn> transit;
    for (const auto& endpoint : analyzer->transit_endpoints())
      transit.push_back(endpoint.asn);
    const auto covered =
        analyzer->covered_endpoints(analyzer->all_ixps(), PeerGroup::kAll);
    for (auto dir : {rp::flow::Direction::kInbound,
                     rp::flow::Direction::kOutbound}) {
      double transit_sum = 0.0, offload_sum = 0.0;
      for (double v : rates->aggregate_series(transit, dir)) transit_sum += v;
      for (double v : rates->aggregate_series(covered, dir)) offload_sum += v;
      os << "series " << exact(transit_sum) << ' ' << exact(offload_sum)
         << '\n';
    }
  }

  {
    Span span("econ.viability", op);
    const auto study = rp::core::ViabilityStudy::from_greedy_curve(
        all_steps,
        analyzer->transit_inbound_bps() + analyzer->transit_outbound_bps(),
        rp::econ::CostParameters{});
    os << "viability " << exact(study.fitted_decay()) << ' '
       << exact(study.optimal_direct_n()) << ' '
       << exact(study.optimal_remote_m()) << ' ' << study.remote_viable()
       << '\n';
    for (const auto& point : study.sweep_decay(0.05, 1.0, 96))
      os << "sweep " << exact(point.decay) << ' ' << point.viable << ' '
         << exact(point.optimal_n) << ' ' << exact(point.optimal_m) << ' '
         << exact(point.cost_with_remote) << '\n';
  }

  // §6: remote peering adopted at the greedy-best five IXPs.
  std::vector<rp::ixp::IxpId> reached;
  for (std::size_t i = 0; i < all_steps.size() && i < 5; ++i)
    reached.push_back(all_steps[i].ixp_id);
  {
    Span span("layer2.flattening", op);
    rp::layer2::FlatteningStudy flattening(world.graph(), world.ecosystem(),
                                           world.vantage(), *result.rib,
                                           *analyzer);
    for (PeerGroup group : {PeerGroup::kOpen, PeerGroup::kAll}) {
      const auto report = flattening.compare(reached, group);
      if (op == 1)
        outcome.per_layer["layer2.flows"] += static_cast<double>(report.flows);
      os << "flattening " << report.flows << ' '
         << exact(report.mean_l3_before) << ' ' << exact(report.mean_l3_after)
         << ' ' << exact(report.mean_org_before) << ' '
         << exact(report.mean_org_after) << ' ' << report.l3_flatter << ' '
         << report.org_not_flatter << ' '
         << exact(report.mean_invisible_after) << '\n';
    }
  }
  {
    Span span("layer2.risk", op);
    rp::layer2::MultihomingRiskStudy risk(world.graph(), world.ecosystem(),
                                          world.vantage(), *analyzer);
    for (auto procurement :
         {rp::layer2::Procurement::kDualTransit,
          rp::layer2::Procurement::kTransitPlusIndependentRemote,
          rp::layer2::Procurement::kTransitPlusConflatedRemote}) {
      const auto report =
          risk.evaluate(procurement, reached, PeerGroup::kAll, 0);
      os << "risk " << exact(report.tolerant_traffic_fraction) << ' '
         << exact(report.worst_case_surviving) << ' '
         << report.worst_case_organization << ' ' << report.failures.size()
         << '\n';
    }
  }
  {
    // Epoch overlays: the world a decade on, replayed as copy-on-write
    // ecosystem overlays (a small share of the pass; it keeps the evolve
    // layer measured).
    Span span("evolve.replay", op);
    rp::evolve::EpochTimeline timeline(
        rp::evolve::parse_timeline(draw_timeline(world, options)), world);
    const auto& state = timeline.state_at(kEpochs - 1);
    std::size_t interfaces = 0;
    for (const auto& ixp : state.ecosystem.ixps())
      interfaces += ixp.interfaces().size();
    os << "epoch " << state.joins << ' ' << interfaces << ' '
       << exact(state.traffic_scale) << '\n';
  }
  {
    Span span("offload.teardown", op);
    analyzer.reset();
    rates.reset();
    matrix.reset();
  }
  result.digest = fnv1a(os.str());
  return result;
}

/// The off-clock route oracle: the RIB's vantage route to a seeded sample of
/// destinations must equal the all-nodes computer's route from the vantage.
bool routes_match(const PassResult& pass, std::uint64_t seed,
                  bool inject_wrong, Outcome& outcome) {
  const rp::core::Scenario& world = *pass.world;
  const auto& nodes = world.graph().nodes();
  const rp::bgp::RouteComputer computer(world.graph());
  Draw draw(seed ^ 0x9e3779b97f4a7c15ull);
  bool ok = true;
  for (std::size_t i = 0; i < kRouteSamples; ++i) {
    const rp::net::Asn destination = nodes[draw.below(nodes.size())].asn;
    const std::optional<rp::bgp::Route> expected =
        computer.routes_to(destination).route_from(world.vantage());
    const rp::bgp::Route* found = pass.rib->route_to(destination);
    std::optional<rp::bgp::Route> got;
    if (found != nullptr) got = *found;
    if (inject_wrong && i == 0 && got) got->as_path.push_back(destination);
    const bool same =
        expected.has_value() == got.has_value() &&
        (!expected || (expected->source == got->source &&
                       expected->as_path == got->as_path));
    if (!same) {
      outcome.fail("RIB route to AS" + std::to_string(destination.value()) +
                   " differs from RouteComputer::routes_to");
      ok = false;
    }
  }
  return ok;
}

/// Median duration of the spans called `name` under the timed operations.
double span_median_s(const std::vector<SpanRecord>& spans,
                     const std::string& name) {
  std::vector<double> values;
  for (const SpanRecord& s : spans)
    if (s.op != 0 && s.name == name) values.push_back(span_s(s));
  return median(values);
}

void finish_ops(const std::vector<double>& op_s, Outcome& outcome) {
  std::vector<double> op_ms;
  double total_s = 0.0;
  for (double s : op_s) {
    op_ms.push_back(s * 1e3);
    total_s += s;
  }
  outcome.end_to_end["op_p50_ms"] = median(op_ms);
  outcome.per_layer["run.op_p99_ms"] = quantile(op_ms, 0.99);
  outcome.per_layer["run.ops_per_s"] =
      total_s > 0.0 ? static_cast<double>(op_s.size()) / total_s : 0.0;
}

}  // namespace

Outcome run_paper_pipeline(const Options& options) {
  Outcome outcome;
  const rp::core::ScenarioConfig config = paper_config(options);
  const SetupResult setup =
      setup_world(config, options.work_dir / "cache");
  outcome.end_to_end["setup_s"] = setup.setup_s;
  outcome.per_layer["core.scenario_build_s"] = setup.build_s;
  outcome.per_layer["io.snapshot_write_s"] = setup.write_s;

  std::vector<double> pass_s, pass_cpu_s;
  std::optional<std::uint64_t> first_digest;
  std::size_t rib_destinations = 0;
  double measured_s = 0.0;
  while (pass_s.empty() || measured_s < options.seconds) {
    const std::uint64_t op = pass_s.size() + 1;
    ++outcome.attempted;
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    PassResult pass;
    try {
      pass = pipeline_pass(config, setup.cache_dir, options, op, outcome);
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.fail(std::string("pipeline pass threw: ") + e.what());
      break;
    }
    const double elapsed = now_s() - t0;
    pass_cpu_s.push_back(cpu_s() - cpu0);
    pass_s.push_back(elapsed);
    measured_s += elapsed;

    rib_destinations = pass.rib->destination_count();
    bool ok = routes_match(pass, options.seed + op,
                           options.inject_wrong && op == 1, outcome);
    if (!first_digest) first_digest = pass.digest;
    if (pass.digest != *first_digest) {
      outcome.fail("pass " + std::to_string(op) +
                   " result digest differs from pass 1");
      ok = false;
    }
    if (!ok) ++outcome.failed;
  }
  finish_ops(pass_s, outcome);

  const std::vector<SpanRecord> spans = Tracer::global().spans();
  outcome.per_layer["pipeline.cpu_s"] = median(pass_cpu_s);
  outcome.per_layer["util.cpu_utilization"] =
      median(pass_s) > 0.0 ? median(pass_cpu_s) / (median(pass_s) * workers())
                           : 0.0;
  const double rib_s = span_median_s(spans, "bgp.rib_build");
  outcome.per_layer["bgp.rib_build_s"] = rib_s;
  outcome.per_layer["io.snapshot_load_s"] =
      span_median_s(spans, "io.snapshot_load");
  outcome.per_layer["measure.spread_s"] = span_median_s(spans, "measure.spread");
  outcome.per_layer["flow.traffic_s"] = span_median_s(spans, "flow.traffic") +
                                        span_median_s(spans, "flow.series");
  outcome.per_layer["offload.analyzer_s"] =
      span_median_s(spans, "offload.analyzer");
  outcome.per_layer["offload.queries_s"] =
      span_median_s(spans, "offload.queries");
  outcome.per_layer["econ.viability_s"] = span_median_s(spans, "econ.viability");
  outcome.per_layer["layer2.flattening_s"] =
      span_median_s(spans, "layer2.flattening");
  outcome.per_layer["layer2.risk_s"] = span_median_s(spans, "layer2.risk");
  outcome.per_layer["evolve.replay_s"] = span_median_s(spans, "evolve.replay");
  const double spread_s = outcome.per_layer["measure.spread_s"];
  if (spread_s > 0.0)
    outcome.per_layer["sim.events_per_s"] =
        outcome.per_layer["sim.events"] / spread_s;
  if (rib_s > 0.0)
    outcome.per_layer["bgp.routes_per_s"] =
        static_cast<double>(rib_destinations) / rib_s;
  // Coverage: the passes' layer spans over the passes' wall time.
  const std::vector<double> self = self_seconds(spans);
  double pass_total = 0.0, pass_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "pipeline.pass") continue;
    pass_total += span_s(spans[i]);
    pass_self += self[i];
  }
  outcome.per_layer["pipeline.span_coverage"] =
      pass_total > 0.0 ? 1.0 - pass_self / pass_total : 0.0;
  add_layer_self_times(spans, pass_s.size(), outcome);
  return outcome;
}

Outcome run_campaign_all_ixps(const Options& options) {
  Outcome outcome;
  rp::core::ScenarioConfig config = paper_config(options);
  config.measure_all_ixps = true;
  config.membership_scale *= 3.0;
  config.member_pool_size *= 3.0;
  const SetupResult setup =
      setup_world(config, options.work_dir / "cache");
  outcome.end_to_end["setup_s"] = setup.setup_s;
  outcome.per_layer["core.scenario_build_s"] = setup.build_s;
  outcome.per_layer["io.snapshot_write_s"] = setup.write_s;

  const double load_t0 = now_s();
  std::optional<rp::core::Scenario> world;
  {
    Span span("io.snapshot_load");
    world.emplace(load_cached(config, setup.cache_dir));
  }
  outcome.per_layer["io.snapshot_load_s"] = now_s() - load_t0;

  // One untimed warm-up run: the first run in a process pays for growing
  // the allocator's arenas, which later runs reuse, and it was the slowest
  // run in most invocations.
  {
    Span span("measure.warmup");
    rp::core::SpreadStudy::run(*world);
  }

  std::vector<double> run_s, reanalyze_s;
  double cpu_total = 0.0;
  std::optional<std::uint64_t> first_digest;
  double measured_s = 0.0;
  while (run_s.empty() || measured_s < options.seconds) {
    const std::uint64_t op = run_s.size() + 1;
    ++outcome.attempted;
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    std::optional<rp::core::SpreadStudy> study;
    try {
      Span span("measure.spread", op);
      study.emplace(rp::core::SpreadStudy::run(*world));
    } catch (const std::exception& e) {
      ++outcome.failed;
      outcome.fail(std::string("SpreadStudy::run threw: ") + e.what());
      break;
    }
    const double elapsed = now_s() - t0;
    cpu_total += cpu_s() - cpu0;
    run_s.push_back(elapsed);
    measured_s += elapsed;

    // Off the clock: the report is identical across passes and equal to
    // the filters + classifier re-run over the pass's own raw data.
    std::ostringstream os;
    render_spread(os, study->report());
    const std::uint64_t digest = fnv1a(os.str());
    const double r0 = now_s();
    std::ostringstream again;
    {
      Span span("measure.reanalyze");
      render_spread(again, rp::core::SpreadStudy::reanalyze(
                               study->raw_measurements(),
                               study->study_config())
                               .report());
    }
    reanalyze_s.push_back(now_s() - r0);
    if (options.inject_wrong && op == 1) again << "tampered\n";
    bool ok = true;
    if (fnv1a(again.str()) != digest) {
      outcome.fail("pass " + std::to_string(op) +
                   " report differs from SpreadStudy::reanalyze of its raw data");
      ok = false;
    }
    if (!first_digest) first_digest = digest;
    if (digest != *first_digest) {
      outcome.fail("pass " + std::to_string(op) +
                   " report differs from pass 1");
      ok = false;
    }
    if (!ok) ++outcome.failed;
    if (op == 1) add_campaign_counts(*study, outcome);
  }
  finish_ops(run_s, outcome);

  const double spread_s = median(run_s);
  outcome.per_layer["measure.spread_s"] = spread_s;
  outcome.per_layer["measure.reanalyze_s"] = median(reanalyze_s);
  if (spread_s > 0.0)
    outcome.per_layer["sim.events_per_s"] =
        outcome.per_layer["sim.events"] / spread_s;
  double total_s = 0.0;
  for (double s : run_s) total_s += s;
  outcome.per_layer["util.cpu_utilization"] =
      total_s > 0.0 ? cpu_total / (total_s * workers()) : 0.0;
  add_layer_self_times(Tracer::global().spans(), run_s.size(), outcome);
  return outcome;
}

}  // namespace perfbench
