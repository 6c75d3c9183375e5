// perf_evolve — the epoch-overlay perf gate (DESIGN.md §17).
//
// Replays a programmatic 24-epoch growth timeline over the paper-scale world
// two ways and times both arms:
//
//   overlay arm  — one base Scenario::build, then EpochTimeline walks every
//                  epoch as a copy-on-write ecosystem overlay (the engine
//                  rpevolve/rpsweep/rpserve all use);
//   rebuild arm  — evolve::rebuild_state_at on a sample of epochs (each one
//                  pays a fresh world build), extrapolated to all epochs.
//
// Output: a human summary on stdout and BENCH_perf_evolve.json in
// $RP_BENCH_JSON_DIR (or the cwd) with flat keys:
//   epochs, events, base_build_ms, overlay_ms (base build + full walk),
//   rebuild_ms (extrapolated), epochs_per_sec, overlay_speedup
// The gate (scripts/check_bench.py) holds epochs_per_sec and
// overlay_speedup to the committed baseline; the binary itself fails when
// the overlay is not at least 5x faster than per-epoch rebuilds — the
// ISSUE's acceptance floor. RP_BENCH_FAST=1 shrinks the world, not the
// timeline.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scenario.hpp"
#include "evolve/engine.hpp"
#include "evolve/timeline.hpp"
#include "obs/json.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// A decade-and-change of churn: every epoch joins members at a rotating
// Table 1 exchange and grows traffic; every few epochs prices decay or a
// port generation upgrades — the same event mix examples/timelines uses.
std::string timeline_text(bool fast, std::size_t epochs) {
  static const char* kIxps[] = {"AMS-IX", "DE-CIX", "LINX",      "HKIX",
                                "NYIIX",  "MSK-IX", "France-IX", "PLIX"};
  constexpr std::size_t kIxpCount = sizeof(kIxps) / sizeof(kIxps[0]);
  std::ostringstream out;
  out << "name perf-evolve\n";
  if (fast) out << "fast 1\n";
  for (std::size_t e = 0; e < epochs; ++e) {
    out << "epoch y" << e << "\n";
    out << "join " << kIxps[e % kIxpCount] << " 3 0.5\n";
    out << "traffic 1.02\n";
    if (e % 5 == 2) out << "price-decay 0.97\n";
    if (e % 7 == 3) out << "capacity " << kIxps[(e + 1) % kIxpCount] << " 1.1\n";
  }
  return out.str();
}

}  // namespace

int main() {
  const std::size_t epochs = 24;
  const std::string text = timeline_text(rp::bench::fast_mode(), epochs);
  const rp::evolve::Timeline timeline = rp::evolve::parse_timeline(text);

  auto t0 = std::chrono::steady_clock::now();
  const rp::core::Scenario base =
      rp::core::Scenario::build(timeline.base_config());
  const double base_build_ms = ms_since(t0);

  // Overlay arm: the walk is cumulative, so touching the last epoch applies
  // every event once; touching them all in order is the replay access
  // pattern. The interface tally keeps the loop observable.
  t0 = std::chrono::steady_clock::now();
  rp::evolve::EpochTimeline engine(timeline, base);
  std::size_t interfaces = 0;
  for (std::size_t k = 0; k < engine.epoch_count(); ++k)
    for (const rp::ixp::Ixp& ixp : engine.state_at(k).ecosystem.ixps())
      interfaces += ixp.interfaces().size();
  const double walk_ms = ms_since(t0);
  const double overlay_ms = base_build_ms + walk_ms;

  // Rebuild arm: each sampled epoch pays a full Scenario::build plus the
  // event replay from scratch; the per-epoch cost is build-dominated and
  // flat, so a 3-epoch sample extrapolates faithfully.
  const std::size_t samples = epochs < 3 ? epochs : 3;
  const std::vector<std::size_t> sample_ks = {0, epochs / 2, epochs - 1};
  t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < samples; ++s)
    interfaces += rp::evolve::rebuild_state_at(timeline, sample_ks[s])
                      .ecosystem.ixps()
                      .size();
  const double rebuild_ms =
      ms_since(t0) / static_cast<double>(samples) * static_cast<double>(epochs);

  const double epochs_per_sec =
      overlay_ms > 0.0 ? static_cast<double>(epochs) / (overlay_ms / 1e3) : 0.0;
  const double overlay_speedup = overlay_ms > 0.0 ? rebuild_ms / overlay_ms : 0.0;

  std::printf("perf_evolve: %zu epochs, %zu events%s (tally %zu)\n", epochs,
              timeline.event_count(), rp::bench::fast_mode() ? " [fast]" : "",
              interfaces);
  std::printf("  base build      %.1f ms\n", base_build_ms);
  std::printf("  overlay walk    %.1f ms (%.1f ms with base build)\n", walk_ms,
              overlay_ms);
  std::printf("  rebuild (extrap) %.1f ms over %zu sampled epochs\n",
              rebuild_ms, samples);
  std::printf("  epochs/sec      %.1f\n", epochs_per_sec);
  std::printf("  overlay speedup %.1fx\n", overlay_speedup);

  std::vector<rp::obs::json::Entry> entries;
  entries.emplace_back(
      "epochs", rp::obs::json::number(static_cast<std::uint64_t>(epochs)));
  entries.emplace_back("events",
                       rp::obs::json::number(static_cast<std::uint64_t>(
                           timeline.event_count())));
  entries.emplace_back("base_build_ms", rp::obs::json::number(base_build_ms));
  entries.emplace_back("overlay_ms", rp::obs::json::number(overlay_ms));
  entries.emplace_back("rebuild_ms", rp::obs::json::number(rebuild_ms));
  entries.emplace_back("epochs_per_sec",
                       rp::obs::json::number(epochs_per_sec));
  entries.emplace_back("overlay_speedup",
                       rp::obs::json::number(overlay_speedup));

  if (!rp::bench::write_bench_json("perf_evolve", entries)) return 1;

  if (overlay_speedup < 5.0) {
    std::fprintf(stderr,
                 "perf_evolve: overlay speedup %.2fx below the 5x floor\n",
                 overlay_speedup);
    return 1;
  }
  return 0;
}
