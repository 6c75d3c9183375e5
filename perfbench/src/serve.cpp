// The daemon workload, serve_light.
//
// An in-process rp::serve daemon on loopback serves the paper-scale world.
// Load is a closed loop (rpq callers block on each answer): one client
// connection, no think time, looping over seeded draws of a 16-slot request
// cycle of read-only queries. With one client every request is a batch of
// its own, so its latency is its own service time, not that of whatever
// another client's request was batched with; on a 4-core box three clients
// made the median swing with batch composition and scheduling.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/viability_study.hpp"
#include "econ/cost_model.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace perfbench {

namespace {

using rp::serve::Request;
using rp::serve::RequestType;
using rp::serve::Response;
using rp::serve::Status;

constexpr std::size_t kVariants = 8;

enum Kind : std::size_t {
  kOffloadCurve,
  kViability,
  kWhatIfPeering,
  kWhatIfEcon,
  kSpread,
  kWorldInfo,
  kStats,
  kKinds,
};

constexpr std::array<const char*, kKinds> kKindNames = {
    "offload_curve", "viability", "whatif_peering", "whatif_econ",
    "spread",        "world_info", "stats"};
constexpr std::array<const char*, kKinds> kSpanNames = {
    "serve.offload_curve", "serve.viability",  "serve.whatif_peering",
    "serve.whatif_econ",    "serve.spread",     "serve.world_info",
    "serve.stats"};

/// The request cycle's composition; each draw of it shuffles the order.
constexpr std::array<Kind, 16> kCycle = {
    kOffloadCurve,  kOffloadCurve,  kViability,     kViability,
    kWhatIfPeering, kWhatIfPeering, kWhatIfPeering, kWhatIfPeering,
    kWhatIfEcon,    kWhatIfEcon,    kSpread,        kSpread,
    kWorldInfo,     kWorldInfo,     kStats,         kStats};

/// §5 prices inside ineqs. 7-8 (h < g, u < v < p).
rp::serve::EconPrices draw_prices(Draw& draw) {
  rp::serve::EconPrices prices;
  prices.p = draw.uniform(0.8, 1.2);
  prices.u = draw.uniform(0.1, 0.3) * prices.p;
  prices.v = draw.uniform(prices.u + 0.05 * prices.p, 0.9 * prices.p);
  prices.g = draw.uniform(0.01, 0.04);
  prices.h = draw.uniform(0.2, 0.8) * prices.g;
  return prices;
}

rp::econ::CostParameters to_params(const rp::serve::EconPrices& prices,
                                   double decay) {
  rp::econ::CostParameters params;
  params.transit_price = prices.p;
  params.direct_fixed = prices.g;
  params.direct_unit = prices.u;
  params.remote_fixed = prices.h;
  params.remote_unit = prices.v;
  params.decay = decay;
  return params;
}

/// `count` distinct IXP acronyms not in `exclude`.
std::vector<std::string> draw_ixps(Draw& draw,
                                   const std::vector<std::string>& acronyms,
                                   std::size_t count,
                                   const std::vector<std::string>& exclude) {
  std::vector<std::string> picked;
  while (picked.size() < count) {
    const std::string& a = acronyms[draw.below(acronyms.size())];
    if (std::find(picked.begin(), picked.end(), a) != picked.end() ||
        std::find(exclude.begin(), exclude.end(), a) != exclude.end())
      continue;
    picked.push_back(a);
  }
  return picked;
}

struct Slot {
  Kind kind = kStats;
  Request request;
  /// The first answer's payload: later answers must match it byte for byte
  /// (stats excepted, which reports live counters).
  std::vector<std::uint8_t> reference;
};

/// One request of `kind` with seeded parameters. Peer groups rotate
/// instead of being drawn: a group-4 greedy costs several times a group-1
/// one, and the mix should not depend on the seed.
Request draw_request(Kind kind, Draw& draw, std::size_t& rotation,
                     const std::vector<std::string>& acronyms) {
  Request r;
  switch (kind) {
    case kOffloadCurve:
      r.type = RequestType::kOffloadCurve;
      r.group = static_cast<std::uint8_t>(1 + rotation++ % 4);
      r.max_steps = 8 + draw.below(5);
      break;
    case kViability:
      r.type = RequestType::kViability;
      r.prices = draw_prices(draw);
      break;
    case kWhatIfPeering:
      r.type = RequestType::kWhatIf;
      r.whatif_mode = 2;
      r.group = static_cast<std::uint8_t>(1 + rotation++ % 4);
      r.reached_ixps = draw_ixps(draw, acronyms, 2 + draw.below(2), {});
      r.added_ixps =
          draw_ixps(draw, acronyms, 1 + draw.below(2), r.reached_ixps);
      break;
    case kWhatIfEcon:
      r.type = RequestType::kWhatIf;
      r.whatif_mode = 1;
      r.prices = draw_prices(draw);
      r.variant = draw_prices(draw);
      break;
    case kSpread:
      r.type = RequestType::kSpread;
      break;
    case kWorldInfo:
      r.type = RequestType::kWorldInfo;
      break;
    case kStats:
      r.type = RequestType::kStats;
      break;
    case kKinds:
      break;
  }
  return r;
}

/// The client's request loop: kVariants seeded draws of the 16-slot cycle
/// (same composition, fresh parameters and order), sent back to back.
/// Sampling many parameter draws per run keeps the load of one run close to
/// that of another seed's.
std::vector<Slot> draw_loop(Draw& draw, const rp::serve::WorldSpec& world,
                            const std::vector<std::string>& acronyms) {
  std::vector<Slot> loop;
  std::size_t rotation = 0;
  for (std::size_t v = 0; v < kVariants; ++v) {
    std::array<Kind, kCycle.size()> kinds = kCycle;
    for (std::size_t i = kinds.size(); i > 1; --i)
      std::swap(kinds[i - 1], kinds[draw.below(i)]);
    for (Kind kind : kinds) {
      Slot slot;
      slot.kind = kind;
      slot.request = draw_request(kind, draw, rotation, acronyms);
      slot.request.id = 1000000 + loop.size();
      slot.request.world = world;
      loop.push_back(std::move(slot));
    }
  }
  return loop;
}

/// What the client saw.
struct ClientLog {
  std::array<std::vector<double>, kKinds> latency_us;
  /// (completion time, latency in ms) of every answer, in send order.
  std::vector<std::pair<double, double>> done;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t busy = 0;
  std::vector<std::string> problems;
};

/// Sends one request, records its latency and checks its answer.
void ask(rp::serve::Client& client, Slot& slot, std::uint64_t op,
         ClientLog& log) {
  ++log.attempted;
  std::vector<std::uint8_t> payload;
  Response response;
  const double t0 = now_s();
  double t1 = t0;
  try {
    {
      Span span(kSpanNames[slot.kind], op);
      payload = client.call_raw(slot.request);
    }
    t1 = now_s();
    response = rp::serve::decode_response(payload);
  } catch (const std::exception& e) {
    ++log.failed;
    log.problems.push_back(std::string("client error: ") + e.what());
    throw;
  }
  log.latency_us[slot.kind].push_back((t1 - t0) * 1e6);
  log.done.emplace_back(t1, (t1 - t0) * 1e3);
  if (response.status != Status::kOk || response.id != slot.request.id) {
    ++log.failed;
    if (response.status == Status::kBusy) ++log.busy;
    if (log.problems.size() < 8)
      log.problems.push_back(std::string(kKindNames[slot.kind]) +
                             " answered status " +
                             std::to_string(static_cast<int>(response.status)) +
                             ": " + response.message);
    return;
  }
  if (slot.kind == kStats) return;
  if (slot.reference.empty()) {
    slot.reference = std::move(payload);
  } else if (payload != slot.reference) {
    ++log.failed;
    if (log.problems.size() < 8)
      log.problems.push_back(std::string(kKindNames[slot.kind]) +
                             " answer differs from the first identical request");
  }
}

std::string render_fields(const Response& response) {
  std::ostringstream os;
  for (const auto& [key, value] : response.fields)
    os << key << '=' << value << '\n';
  return os.str();
}

/// The in-process oracle for offload-curve and viability answers, over the
/// daemon's resident world: the greedy and the §5 study run afresh here and
/// their fields are rendered as the executor renders them.
std::string expected_answer(const Slot& slot, const rp::serve::World& world) {
  using rp::serve::format_double;
  const auto& analyzer = world.offload().analyzer();
  const double initial =
      analyzer.transit_inbound_bps() + analyzer.transit_outbound_bps();
  std::ostringstream os;
  auto emit = [&os](const std::string& key, const std::string& value) {
    os << key << '=' << value << '\n';
  };
  if (slot.kind == kOffloadCurve) {
    const auto steps = analyzer.greedy_by_traffic(
        static_cast<rp::offload::PeerGroup>(slot.request.group),
        static_cast<std::size_t>(slot.request.max_steps));
    emit("offload.initial_bps", format_double(initial));
    emit("offload.steps", std::to_string(steps.size()));
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const std::string prefix = "step." + std::to_string(i);
      emit(prefix + ".acronym", steps[i].acronym);
      emit(prefix + ".gained_bps", format_double(steps[i].gained));
      emit(prefix + ".remaining_bps", format_double(steps[i].remaining));
    }
  } else {
    const auto study = rp::core::ViabilityStudy::from_greedy_curve(
        analyzer.greedy_by_traffic(rp::offload::PeerGroup::kAll, 20), initial,
        to_params(slot.request.prices, 0.0));
    const auto& model = study.model();
    emit("viability.decay", format_double(study.fitted_decay()));
    emit("viability.viable", study.remote_viable() ? "1" : "0");
    emit("viability.optimal_n", format_double(study.optimal_direct_n()));
    emit("viability.optimal_m", format_double(study.optimal_remote_m()));
    emit("viability.cost_without_remote",
         format_double(model.cost_without_remote(study.optimal_direct_n())));
    emit("viability.cost_with_remote",
         format_double(model.total_cost(study.optimal_direct_n(),
                                        study.optimal_remote_m())));
    emit("viability.critical_decay", format_double(model.critical_decay()));
  }
  return os.str();
}

}  // namespace

Outcome run_serve_light(const Options& options) {
  Outcome outcome;
  rp::serve::WorldSpec spec;
  spec.fast = options.fast;
  spec.fields = {{"seed", std::to_string(options.seed)}};
  const rp::core::ScenarioConfig config = spec.resolve();
  const SetupResult setup =
      setup_world(config, options.work_dir / "cache");
  outcome.per_layer["core.scenario_build_s"] = setup.build_s;
  outcome.per_layer["io.snapshot_write_s"] = setup.write_s;

  // The generator reads the world's IXPs; the daemon sees only the requests.
  std::vector<std::string> acronyms;
  {
    const double t0 = now_s();
    Span span("io.snapshot_load");
    const rp::core::Scenario world = load_cached(config, setup.cache_dir);
    for (const auto& ixp : world.ecosystem().ixps())
      acronyms.push_back(ixp.acronym());
    outcome.per_layer["io.snapshot_load_s"] = now_s() - t0;
  }
  Draw draw(options.seed * 0x2545f4914f6cdd1dull + 1);
  std::vector<Slot> loop = draw_loop(draw, spec, acronyms);
  ClientLog log, setup_log;

  rp::obs::set_metrics_enabled(true);
  rp::serve::DaemonConfig daemon_config;
  daemon_config.port = 0;
  daemon_config.worlds = 2;
  daemon_config.cache_dir = setup.cache_dir;
  rp::serve::Daemon daemon(std::move(daemon_config));
  daemon.start();
  const std::uint16_t port = daemon.port();

  try {
    rp::serve::Client client = rp::serve::Client::connect("127.0.0.1", port);
    // A second connection that only asks for stats: during the cold query
    // and at window end.
    rp::serve::Client probe = rp::serve::Client::connect("127.0.0.1", port);

    // Warming the daemon is part of set-up. First the cold query: an offload
    // curve on a world that is in the snapshot cache but not resident (world
    // load plus the whole §4 study), while the probe asks for stats.
    std::size_t cold_slot = 0;
    while (loop[cold_slot].kind != kOffloadCurve) ++cold_slot;
    std::atomic<bool> cold_done{false};
    double cold_s = 0.0;
    std::thread cold([&] {
      const double t0 = now_s();
      try {
        ask(client, loop[cold_slot], 0, setup_log);
      } catch (const std::exception&) {
      }
      cold_s = now_s() - t0;
      cold_done = true;
    });
    const double wait_until = now_s() + 0.2;
    while (!cold_done && now_s() < wait_until)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
      Slot stats;
      stats.request.type = RequestType::kStats;
      const double t0 = now_s();
      ask(probe, stats, 0, setup_log);
      outcome.per_layer["serve.stats_during_cold_ms"] = (now_s() - t0) * 1e3;
    } catch (const std::exception&) {
      cold.join();
      throw;
    }
    cold.join();
    outcome.per_layer["serve.cold_query_s"] = cold_s;

    // Then every request of the loop once, so each artifact is resident
    // before the window (the first answers become the references).
    const double warm_t0 = now_s();
    for (Slot& slot : loop) ask(client, slot, 0, setup_log);
    outcome.per_layer["serve.warmup_s"] = now_s() - warm_t0;
    outcome.end_to_end["setup_s"] =
        setup.setup_s + cold_s + outcome.per_layer["serve.warmup_s"];

    // The window: the closed loop until the clock runs out.
    const double window_start = now_s();
    const double deadline = window_start + options.seconds;
    std::uint64_t op = 0;
    try {
      while (now_s() < deadline)
        for (std::size_t s = 0; s < loop.size() && now_s() < deadline; ++s)
          ask(client, loop[s], ++op, log);
    } catch (const std::exception&) {
      // Recorded by ask(); the connection is gone, so the window ends.
    }
    const double window_s = now_s() - window_start;

    for (std::size_t k = 0; k < kKinds; ++k) {
      outcome.per_layer[std::string("serve.") + kKindNames[k] + ".p50_us"] =
          median(log.latency_us[k]);
      outcome.per_layer[std::string("serve.") + kKindNames[k] + ".p99_us"] =
          quantile(log.latency_us[k], 0.99);
    }
    // An operation is one pass through a 16-query cycle, the session one
    // scripted rpq user sends; its time is the sum of its queries' latencies.
    // Every cycle holds each kind in the same proportion. The median single
    // query does not: the cheapest 8 of the 16 slots end where what-if-peering
    // begins, so it fell in the gap between the two and jumped with them.
    std::vector<std::pair<double, double>> cycles;  // (end time, ms)
    for (std::size_t i = 0; i + kCycle.size() <= log.done.size();
         i += kCycle.size()) {
      double ms = 0.0;
      for (std::size_t j = i; j < i + kCycle.size(); ++j)
        ms += log.done[j].second;
      cycles.emplace_back(log.done[i + kCycle.size() - 1].first, ms);
    }
    // The window is cut into one-second slices and each figure is the median
    // over the slices, so a burst of outside interference moves one slice,
    // not the result.
    const std::size_t slices =
        std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds));
    std::vector<std::vector<double>> slice_ms(slices);
    for (const auto& [t, ms] : cycles)
      slice_ms[std::min(slices - 1,
                        static_cast<std::size_t>((t - window_start) /
                                                 window_s *
                                                 static_cast<double>(slices)))]
          .push_back(ms);
    std::vector<double> p50, rate;
    std::vector<double> all_ms;
    for (const auto& ms : slice_ms) {
      p50.push_back(median(ms));
      rate.push_back(static_cast<double>(ms.size()) *
                     static_cast<double>(slices) / window_s);
      all_ms.insert(all_ms.end(), ms.begin(), ms.end());
    }
    outcome.end_to_end["op_p50_ms"] = median(p50);
    outcome.per_layer["run.op_p99_ms"] = quantile(all_ms, 0.99);
    outcome.per_layer["run.ops_per_s"] = median(rate);
    add_layer_self_times(Tracer::global().spans(), cycles.size(), outcome);

    // Window-end daemon state: queue high water from a stats answer, batch
    // occupancy from the daemon's metrics registry.
    {
      Request stats;
      stats.type = RequestType::kStats;
      const Response response = probe.call(stats);
      outcome.per_layer["serve.queue_high_water"] =
          std::stod(std::string(response.field("queue.high_water")));
      for (const auto& metric : rp::obs::MetricsRegistry::global().snapshot())
        if (metric.name == "rp.serve.batch.occupancy")
          outcome.per_layer["serve.batch_occupancy_mean"] = metric.mean();
    }

    // Off the clock: offload-curve and viability answers against the
    // in-process oracle on the daemon's own resident world.
    const std::shared_ptr<const rp::serve::World> world =
        const_cast<rp::serve::WorldPool&>(daemon.pool()).acquire(config);
    bool injected = false;
    for (const Slot& slot : loop) {
      if (slot.kind != kOffloadCurve && slot.kind != kViability) continue;
      ++setup_log.attempted;
      if (slot.reference.empty()) {
        ++setup_log.failed;
        setup_log.problems.push_back("no answer recorded for a " +
                                     std::string(kKindNames[slot.kind]));
        continue;
      }
      std::string answer =
          render_fields(rp::serve::decode_response(slot.reference));
      if (options.inject_wrong && !injected) {
        answer += "tampered=1\n";
        injected = true;
      }
      if (answer != expected_answer(slot, *world)) {
        ++setup_log.failed;
        setup_log.problems.push_back(
            std::string(kKindNames[slot.kind]) +
            " answer differs from the in-process oracle");
      }
    }
  } catch (const std::exception& e) {
    ++setup_log.failed;
    setup_log.problems.push_back(std::string("serve workload: ") + e.what());
  }
  daemon.stop();

  for (const ClientLog* l : {&log, &setup_log}) {
    outcome.attempted += l->attempted;
    outcome.failed += l->failed;
    outcome.per_layer["serve.busy"] += static_cast<double>(l->busy);
    for (const std::string& problem : l->problems) outcome.fail(problem);
  }
  return outcome;
}

}  // namespace perfbench
