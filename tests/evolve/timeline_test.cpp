// Timeline grammar tests: parse, canonicalize, digest — the identity layer
// every replay record, manifest, and serve epoch query leans on.
#include "evolve/timeline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rp::evolve {
namespace {

constexpr const char* kSample =
    "# a decade, compressed\n"
    "name   sample\n"
    "fast 1\n"
    "base seed 7\n"
    "epoch y1\n"
    "  join CATNIX 4 0.50   # share canonicalizes to 0.5\n"
    "  prices 1.20 0.030 0.15 0.008 0.5\n"
    "epoch y2\n"
    "  new-ixp NIX CATNIX 0.40\n"
    "  capacity CATNIX 0.90\n"
    "  price-decay 0.85\n"
    "  traffic 1.30\n"
    "epoch y3\n"
    "  leave CATNIX 2\n"
    "  outage ESpanix\n"
    "  restore ESpanix\n"
    "  provider-fail AtratoNet\n"
    "  provider-restore AtratoNet\n"
    "  region-cap CATNIX 0.75\n";

TEST(TimelineParse, ParsesEveryEventKind) {
  const Timeline timeline = parse_timeline(kSample);
  EXPECT_EQ(timeline.name, "sample");
  EXPECT_TRUE(timeline.fast);
  ASSERT_EQ(timeline.base.size(), 1u);
  EXPECT_EQ(timeline.base[0].first, "seed");
  ASSERT_EQ(timeline.epochs.size(), 3u);
  EXPECT_EQ(timeline.epochs[0].label, "y1");
  EXPECT_EQ(timeline.epochs[0].events.size(), 2u);
  EXPECT_EQ(timeline.epochs[2].events.size(), 6u);
  EXPECT_EQ(timeline.event_count(), 12u);
  EXPECT_EQ(timeline.base_config().seed, 7u);
}

TEST(TimelineParse, CanonicalTextRoundTripsAndNormalizesSpelling) {
  const Timeline timeline = parse_timeline(kSample);
  const std::string canonical = canonical_timeline_text(timeline);
  // Comments and spelling variants are gone...
  EXPECT_EQ(canonical.find('#'), std::string::npos);
  EXPECT_NE(canonical.find("join CATNIX 4 0.5\n"), std::string::npos);
  EXPECT_NE(canonical.find("prices 1.2 0.03 0.15 0.008 0.5\n"),
            std::string::npos);
  // ...and the canonical form is a fixed point.
  const Timeline reparsed = parse_timeline(canonical);
  EXPECT_EQ(canonical_timeline_text(reparsed), canonical);
  EXPECT_EQ(timeline_digest_hex(reparsed), timeline_digest_hex(timeline));
}

TEST(TimelineParse, TwoSpellingsOneDigest) {
  const std::string variant =
      "name sample\nfast 1\nbase seed 7\n"
      "epoch y1\njoin   CATNIX   4   0.5\nprices 1.2 3e-2 0.15 8e-3 0.50\n"
      "epoch y2\nnew-ixp NIX CATNIX .4\ncapacity CATNIX .9\n"
      "price-decay .85\ntraffic 1.3\n"
      "epoch y3\nleave CATNIX 2\noutage ESpanix\nrestore ESpanix\n"
      "provider-fail AtratoNet\nprovider-restore AtratoNet\n"
      "region-cap CATNIX 0.750\n";
  EXPECT_EQ(timeline_digest_hex(parse_timeline(variant)),
            timeline_digest_hex(parse_timeline(kSample)));
}

TEST(TimelineParse, DigestIsSensitiveToEveryOperand) {
  const std::string base = canonical_timeline_text(parse_timeline(kSample));
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"join CATNIX 4", "join CATNIX 5"},
        {"traffic 1.3", "traffic 1.4"},
        {"epoch y3", "epoch y3b"},
        {"provider-fail AtratoNet", "provider-fail IXCarrier"}}) {
    std::string mutated = base;
    const auto at = mutated.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    mutated.replace(at, from.size(), to);
    EXPECT_NE(timeline_digest_hex(parse_timeline(mutated)),
              timeline_digest_hex(parse_timeline(base)))
        << from << " -> " << to;
  }
}

TEST(TimelineParse, RejectsStructuralViolations) {
  // Events before the first epoch.
  EXPECT_THROW(parse_timeline("join CATNIX 2\n"), std::invalid_argument);
  // Base lines after an epoch opened.
  EXPECT_THROW(parse_timeline("epoch a\nbase seed 3\n"),
               std::invalid_argument);
  // Duplicate epoch labels.
  EXPECT_THROW(parse_timeline("epoch a\nepoch a\n"), std::invalid_argument);
  // Unknown keyword.
  EXPECT_THROW(parse_timeline("epoch a\nmerge CATNIX ESpanix\n"),
               std::invalid_argument);
  // Unknown base field.
  EXPECT_THROW(parse_timeline("base not_a_field 3\nepoch a\n"),
               std::invalid_argument);
  // Bad operand counts and ranges.
  EXPECT_THROW(parse_timeline("epoch a\njoin CATNIX\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_timeline("epoch a\nprices 1 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_timeline("epoch a\ntraffic -1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_timeline("epoch a\nregion-cap CATNIX 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_timeline("epoch a\njoin CATNIX 2 1.5\n"),
               std::invalid_argument);
}

TEST(TimelineParse, ErrorsNameTheLine) {
  try {
    parse_timeline("name ok\nepoch a\nbogus\n");
    FAIL() << "parsed a bogus keyword";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TimelineParse, LoadTimelineReportsMissingFiles) {
  EXPECT_THROW(load_timeline("/nonexistent/evolve.timeline"),
               std::runtime_error);
}

TEST(TimelineParse, EventKeywordsRoundTrip) {
  for (const EventKind kind :
       {EventKind::kJoin, EventKind::kLeave, EventKind::kNewIxp,
        EventKind::kCapacity, EventKind::kPrices, EventKind::kPriceDecay,
        EventKind::kTraffic, EventKind::kOutage, EventKind::kRestore,
        EventKind::kProviderFail, EventKind::kProviderRestore,
        EventKind::kRegionCap})
    EXPECT_FALSE(event_keyword(kind).empty());
}

// The example decade replayed by the CI smoke: its digest keys every
// manifest, record and serve epoch query built from that file.
TEST(TimelineParse, DecadeDigestIsPinned) {
  const Timeline decade =
      load_timeline(RP_SOURCE_DIR "/examples/timelines/decade.timeline");
  EXPECT_EQ(timeline_digest_hex(decade), "982af52266d72439");
}

}  // namespace
}  // namespace rp::evolve
