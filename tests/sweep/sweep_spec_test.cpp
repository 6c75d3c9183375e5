#include "sweep/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rp::sweep {
namespace {

// The CI sweep smoke's grid. Its digest names every
// manifest, record header and results table, so a change to canonical text
// or to the digest shows up here first.
constexpr const char* kCiGridSpec =
    "name ci-grid\n"
    "group 4\n"
    "steps 20\n"
    "fast 1\n"
    "base seed 11\n"
    "axis econ.b lin:0.2:1.2:6\n"
    "axis econ.h 0.002 0.006 0.01 0.016\n";

TEST(SweepSpec, CiGridDigestIsPinned) {
  EXPECT_EQ(spec_digest_hex(parse_sweep_spec(kCiGridSpec)), "6b752129ec7722bc");
}

TEST(SweepSpec, EconFieldRegistryCoversThePaperSymbols) {
  const auto fields = econ_fields();
  ASSERT_EQ(fields.size(), 6u);
  for (std::size_t i = 1; i < fields.size(); ++i)
    EXPECT_LT(fields[i - 1].name, fields[i].name);
  for (const char* name :
       {"econ.b", "econ.g", "econ.h", "econ.p", "econ.u", "econ.v"}) {
    const EconField* field = find_econ_field(name);
    ASSERT_NE(field, nullptr) << name;
    EXPECT_EQ(field->name, name);
    EXPECT_FALSE(field->description.empty());
  }
  EXPECT_EQ(find_econ_field("econ.x"), nullptr);
  EXPECT_TRUE(is_sweepable_field("econ.h"));
  EXPECT_TRUE(is_sweepable_field("seed"));
  EXPECT_TRUE(is_sweepable_field("topology.access_count"));
  EXPECT_FALSE(is_sweepable_field("econ"));
  EXPECT_FALSE(is_sweepable_field("bogus"));
}

TEST(SweepSpec, ParsesKnobsBaseAndAxes) {
  const SweepSpec spec = parse_sweep_spec(
      "# a comment\n"
      "name my-grid\n"
      "group 2\n"
      "steps 12\n"
      "days 7\n"
      "fast 1\n"
      "\n"
      "base seed 9\n"
      "base econ.p 1.5\n"
      "axis econ.b 0.2 0.4\n"
      "axis membership_scale 0.05 0.10 0.20\n");
  EXPECT_EQ(spec.name, "my-grid");
  EXPECT_EQ(spec.group, 2);
  EXPECT_EQ(spec.steps, 12u);
  EXPECT_EQ(spec.days, 7u);
  EXPECT_TRUE(spec.fast);
  ASSERT_EQ(spec.base.size(), 2u);
  EXPECT_EQ(spec.base[0].first, "seed");
  EXPECT_EQ(spec.base[1].second, "1.5");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].field, "econ.b");
  // "0.10" and "0.20" canonicalize to the shortest spelling.
  EXPECT_EQ(spec.axes[1].values,
            (std::vector<std::string>{"0.05", "0.1", "0.2"}));
  EXPECT_EQ(spec.run_count(), 6u);
}

TEST(SweepSpec, LinShorthandExpandsEvenlySpacedValues) {
  const SweepSpec spec = parse_sweep_spec("axis econ.b lin:0.2:1.2:6\n");
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"0.2", "0.4", "0.6", "0.8", "1", "1.2"}));
  // A single-point lin: is the degenerate lo==hi case.
  const SweepSpec one = parse_sweep_spec("axis econ.b lin:0.5:0.5:1\n");
  EXPECT_EQ(one.axes[0].values, (std::vector<std::string>{"0.5"}));
}

TEST(SweepSpec, EquivalentSpellingsDigestIdentically) {
  const SweepSpec a = parse_sweep_spec(
      "name g\naxis econ.b 0.10 0.20\naxis econ.h 0.0060\n");
  const SweepSpec b = parse_sweep_spec(
      "# same grid, different spelling\n"
      "name g\n\n"
      "axis   econ.b   0.1 0.2\n"
      "axis econ.h 6e-3\n");
  EXPECT_EQ(canonical_spec_text(a), canonical_spec_text(b));
  EXPECT_EQ(spec_digest_hex(a), spec_digest_hex(b));
  EXPECT_EQ(spec_digest_hex(a).size(), 16u);
  // The canonical text re-parses to the same digest (fixed point).
  EXPECT_EQ(spec_digest_hex(parse_sweep_spec(canonical_spec_text(a))),
            spec_digest_hex(a));
}

TEST(SweepSpec, ErrorsCarryLineNumbers) {
  const auto expect_line = [](const char* text, const char* line_tag) {
    try {
      parse_sweep_spec(text);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(line_tag), std::string::npos)
          << error.what();
    }
  };
  expect_line("bogus-key 1\n", "line 1");
  expect_line("name ok\naxis no.such.field 1 2\n", "line 2");
  expect_line("axis econ.b 0.1\n\naxis econ.b 0.2\n", "line 3");
  expect_line("axis econ.b\n", "line 1");             // Empty value list.
  expect_line("axis econ.b 0.1 oops\n", "line 1");    // Bad value token.
  expect_line("axis econ.b lin:0.1:0.5:1\n", "line 1");  // 1 point, lo < hi.
  expect_line("axis econ.b lin:0.1:0.5:0\n", "line 1");  // Empty range.
  expect_line("axis econ.b lin:0.1:0.5\n", "line 1");    // Missing <n>.
  expect_line("group 9\n", "line 1");                 // PeerGroup is 1..4.
  expect_line("base seed\n", "line 1");               // Missing value.
  expect_line("fast 2\n", "line 1");
}

TEST(SweepSpec, ExpansionIsLastAxisFastest) {
  const SweepSpec spec = parse_sweep_spec(
      "axis econ.b 0.2 0.4 0.6\naxis econ.h 0.002 0.006\n");
  const auto runs = expand_runs(spec);
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    ASSERT_EQ(runs[i].values.size(), 2u);
  }
  EXPECT_EQ(runs[0].values, (std::vector<std::string>{"0.2", "0.002"}));
  EXPECT_EQ(runs[1].values, (std::vector<std::string>{"0.2", "0.006"}));
  EXPECT_EQ(runs[2].values, (std::vector<std::string>{"0.4", "0.002"}));
  EXPECT_EQ(runs[5].values, (std::vector<std::string>{"0.6", "0.006"}));
  // No axes: the single base run.
  EXPECT_EQ(expand_runs(parse_sweep_spec("name solo\n")).size(), 1u);
}

TEST(SweepSpec, MaterializeAppliesFastBaseThenAxes) {
  const SweepSpec spec = parse_sweep_spec(
      "fast 1\n"
      "base seed 7\n"
      "base topology.access_count 99\n"  // Overrides the fast-mode shrink.
      "axis membership_scale 0.05 0.2\n"
      "axis econ.h 0.002 0.01\n");
  const auto runs = expand_runs(spec);
  ASSERT_EQ(runs.size(), 4u);
  const MaterializedRun first = materialize_run(spec, runs[0]);
  EXPECT_EQ(first.config.seed, 7u);
  EXPECT_EQ(first.config.topology.access_count, 99u);
  EXPECT_DOUBLE_EQ(first.config.membership_scale, 0.05);
  EXPECT_DOUBLE_EQ(first.prices.remote_fixed, 0.002);
  EXPECT_FALSE(first.decay_pinned);
  const MaterializedRun last = materialize_run(spec, runs[3]);
  EXPECT_DOUBLE_EQ(last.config.membership_scale, 0.2);
  EXPECT_DOUBLE_EQ(last.prices.remote_fixed, 0.01);
  // Fast mode still shrank the fields no base line overrode.
  EXPECT_LE(first.config.topology.tier2_count, 30u);
}

// --- Timeline specs (the evolve.epoch axis, DESIGN.md §17) -----------------

constexpr const char* kTimelineSpec =
    "name evo\n"
    "steps 6\n"
    "timeline-begin\n"
    "name tl\n"
    "fast 1\n"
    "base seed 7\n"
    "epoch a\n"
    "join CATNIX 2 0.5\n"
    "epoch b\n"
    "traffic 1.3\n"
    "timeline-end\n"
    "axis evolve.epoch 0 1\n"
    "axis econ.h 0.002 0.01\n";

TEST(SweepSpec, TimelineSpecEmbedsCanonicallyAndRoundTrips) {
  const SweepSpec spec = parse_sweep_spec(kTimelineSpec);
  EXPECT_EQ(spec.run_count(), 4u);
  EXPECT_NE(spec.timeline.find("join CATNIX 2 0.5\n"), std::string::npos);
  const std::string canonical = canonical_spec_text(spec);
  EXPECT_NE(canonical.find("timeline-begin\n"), std::string::npos);
  EXPECT_EQ(spec_digest_hex(parse_sweep_spec(canonical)),
            spec_digest_hex(spec));
  // Respelling the embedded timeline does not move the digest: the timeline
  // is canonicalized before it lands in the spec.
  std::string variant = kTimelineSpec;
  const auto at = variant.find("traffic 1.3");
  ASSERT_NE(at, std::string::npos);
  variant.replace(at, 11, "traffic 1.30");
  EXPECT_EQ(spec_digest_hex(parse_sweep_spec(variant)), spec_digest_hex(spec));
}

TEST(SweepSpec, TimelineAndEpochAxisNeedEachOther) {
  // An epoch axis with nothing to index.
  EXPECT_THROW(parse_sweep_spec("axis evolve.epoch 0\n"),
               std::invalid_argument);
  // A timeline with nothing selecting its epochs.
  std::string no_axis = kTimelineSpec;
  const auto axis_at = no_axis.find("axis evolve.epoch 0 1\n");
  ASSERT_NE(axis_at, std::string::npos);
  no_axis.erase(axis_at, 22);
  EXPECT_THROW(parse_sweep_spec(no_axis), std::invalid_argument);
  // Epoch indices past the timeline's two epochs.
  std::string oor = kTimelineSpec;
  oor.replace(oor.find("axis evolve.epoch 0 1"), 21, "axis evolve.epoch 0 2");
  EXPECT_THROW(parse_sweep_spec(oor), std::invalid_argument);
  // World fields conflict with the timeline (its base lines pin the world).
  EXPECT_THROW(parse_sweep_spec(std::string(kTimelineSpec) + "base seed 9\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_sweep_spec(std::string(kTimelineSpec) +
                                "axis membership_scale 0.05 0.1\n"),
               std::invalid_argument);
  // Unterminated and malformed embedded timelines.
  EXPECT_THROW(parse_sweep_spec("timeline-begin\nname t\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_sweep_spec("timeline-begin\nbogus 1\ntimeline-end\n"
                       "axis evolve.epoch 0\n"),
      std::invalid_argument);
}

TEST(SweepSpec, TimelineMaterializeUsesTimelineWorldAndEpochPrices) {
  const SweepSpec spec = parse_sweep_spec(kTimelineSpec);
  const auto runs = expand_runs(spec);
  ASSERT_EQ(runs.size(), 4u);
  const MaterializedRun plain = materialize_run(spec, runs[3]);
  EXPECT_TRUE(plain.has_epoch);
  EXPECT_EQ(plain.epoch, 1u);
  // The world comes from the timeline's base lines, not the spec's.
  EXPECT_EQ(plain.config.seed, 7u);
  // The engine hands in the selected epoch's prices as the baseline; spec
  // econ pins still override symbol by symbol.
  econ::CostParameters epoch_prices;
  epoch_prices.transit_price = 9.0;
  const MaterializedRun priced = materialize_run(spec, runs[0], &epoch_prices);
  EXPECT_DOUBLE_EQ(priced.prices.transit_price, 9.0);
  EXPECT_DOUBLE_EQ(priced.prices.remote_fixed, 0.002);
}

TEST(SweepSpec, EconDecayAxisPinsTheDecay) {
  const SweepSpec spec = parse_sweep_spec("axis econ.b 0.3 0.9\n");
  const auto runs = expand_runs(spec);
  const MaterializedRun run = materialize_run(spec, runs[1]);
  EXPECT_TRUE(run.decay_pinned);
  EXPECT_DOUBLE_EQ(run.prices.decay, 0.9);
  // A base econ.b pins it too.
  const SweepSpec base = parse_sweep_spec("base econ.b 0.5\n");
  EXPECT_TRUE(materialize_run(base, expand_runs(base)[0]).decay_pinned);
}

}  // namespace
}  // namespace rp::sweep
