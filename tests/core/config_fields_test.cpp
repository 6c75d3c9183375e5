#include "core/config_fields.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace rp::core {
namespace {

TEST(ConfigFields, RegistryIsSortedAndSelfDescribing) {
  const auto fields = scenario_config_fields();
  ASSERT_GT(fields.size(), 10u);
  for (std::size_t i = 1; i < fields.size(); ++i)
    EXPECT_LT(fields[i - 1].name, fields[i].name);
  for (const auto& field : fields) {
    EXPECT_FALSE(field.description.empty()) << field.name;
    EXPECT_EQ(find_config_field(field.name), &field);
  }
  EXPECT_EQ(find_config_field("no.such.field"), nullptr);
}

TEST(ConfigFields, SetGetRoundTripsEveryKind) {
  ScenarioConfig config;
  set_config_field(config, "seed", "123");
  EXPECT_EQ(config.seed, 123u);
  EXPECT_EQ(get_config_field(config, "seed"), "123");

  set_config_field(config, "topology.access_count", "77");
  EXPECT_EQ(config.topology.access_count, 77u);
  EXPECT_EQ(get_config_field(config, "topology.access_count"), "77");

  set_config_field(config, "membership_scale", "0.25");
  EXPECT_DOUBLE_EQ(config.membership_scale, 0.25);
  EXPECT_EQ(get_config_field(config, "membership_scale"), "0.25");

  set_config_field(config, "euroix", "false");
  EXPECT_FALSE(config.euroix);
  // Booleans canonicalize to 0/1 regardless of the accepted spelling.
  EXPECT_EQ(get_config_field(config, "euroix"), "0");
  set_config_field(config, "euroix", "1");
  EXPECT_TRUE(config.euroix);
  EXPECT_EQ(get_config_field(config, "euroix"), "1");
}

TEST(ConfigFields, DoublesCanonicalizeToShortestForm) {
  ScenarioConfig config;
  set_config_field(config, "probe_headroom", "1.0600000");
  EXPECT_EQ(get_config_field(config, "probe_headroom"), "1.06");
  set_config_field(config, "member_pool_size", "2300");
  EXPECT_EQ(get_config_field(config, "member_pool_size"), "2300");
}

TEST(ConfigFields, ErrorsNameTheFieldAndToken) {
  ScenarioConfig config;
  try {
    set_config_field(config, "seed", "12x");
    FAIL() << "accepted trailing garbage";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("seed"), std::string::npos) << what;
    EXPECT_NE(what.find("12x"), std::string::npos) << what;
  }
  EXPECT_THROW(set_config_field(config, "membership_scale", ""),
               std::invalid_argument);
  EXPECT_THROW(set_config_field(config, "euroix", "maybe"),
               std::invalid_argument);
  // Non-finite doubles parse as numbers but name no world.
  for (const char* token : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    for (const char* field : {"membership_scale", "probe_headroom"}) {
      try {
        set_config_field(config, field, token);
        FAIL() << field << " accepted " << token;
      } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(field), std::string::npos) << what;
        EXPECT_NE(what.find(token), std::string::npos) << what;
      }
    }
  }
  EXPECT_EQ(config.membership_scale, ScenarioConfig{}.membership_scale);
  EXPECT_EQ(config.probe_headroom, ScenarioConfig{}.probe_headroom);
  try {
    set_config_field(config, "bogus", "1");
    FAIL() << "accepted unknown field";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
  }
  EXPECT_THROW(get_config_field(config, "bogus"), std::invalid_argument);
  // A failed parse leaves the config untouched.
  EXPECT_EQ(config.seed, ScenarioConfig{}.seed);
}

// One case per field class: a probability, a positive scale or shape, a
// count that must be at least one, and a bounded mean. Each is refused with
// the field and the token named, and leaves the config as it was.
TEST(ConfigFields, OutOfDomainValuesAreRejected) {
  const struct {
    const char* field;
    const char* token;
  } cases[] = {
      {"partner_ixp_share", "7"},        {"partner_ixp_share", "-0.5"},
      {"membership_scale", "-1"},        {"membership_scale", "0"},
      {"probe_headroom", "0"},           {"member_pool_size", "-2300"},
      {"appetite_alpha", "-1.15"},       {"topology.tier1_count", "0"},
      {"topology.nren_count", "0"},      {"topology.multihoming_mean", "0.5"},
      {"topology.multihoming_mean", "5"},
  };
  for (const auto& c : cases) {
    ScenarioConfig config;
    try {
      set_config_field(config, c.field, c.token);
      FAIL() << c.field << " accepted " << c.token;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(c.field), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + c.token + "'"),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(get_config_field(config, c.field),
              get_config_field(ScenarioConfig{}, c.field));
  }
}

TEST(ConfigFields, DomainBoundsAreInclusiveWhereTheBuildAllowsThem) {
  ScenarioConfig config;
  for (const char* share : {"0", "1"}) {
    set_config_field(config, "partner_ixp_share", share);
    EXPECT_EQ(get_config_field(config, "partner_ixp_share"), share);
  }
  for (const char* mean : {"1", "4"}) {
    set_config_field(config, "topology.multihoming_mean", mean);
    EXPECT_EQ(get_config_field(config, "topology.multihoming_mean"), mean);
  }
  set_config_field(config, "topology.tier1_count", "1");
  set_config_field(config, "topology.tier2_count", "0");
  set_config_field(config, "membership_scale", "0.001");
  EXPECT_NO_THROW(validate_config(config));
}

// Configs assembled field by field in code (decoded snapshots, --scale)
// are checked as a whole; the error names the offending field.
TEST(ConfigFields, ValidateConfigNamesTheOffendingField) {
  ScenarioConfig share;
  share.partner_ixp_share = 7.0;
  ScenarioConfig scale;
  scale.membership_scale = -1.0;
  ScenarioConfig tier1;
  tier1.topology.tier1_count = 0;
  ScenarioConfig infinite;
  infinite.appetite_alpha = std::numeric_limits<double>::infinity();
  for (const auto& [config, field] :
       {std::pair{share, "partner_ixp_share"},
        std::pair{scale, "membership_scale"},
        std::pair{tier1, "topology.tier1_count"},
        std::pair{infinite, "appetite_alpha"}}) {
    try {
      validate_config(config);
      FAIL() << field << " out of domain was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  }
}

// The paper world, its fast shrink, the Table 1 universe and every field's
// committed default all sit inside the domains.
TEST(ConfigFields, CommittedConfigsAreInDomain) {
  const ScenarioConfig paper;
  EXPECT_NO_THROW(validate_config(paper));
  ScenarioConfig fast = paper;
  apply_fast_mode(fast);
  EXPECT_NO_THROW(validate_config(fast));
  ScenarioConfig table1 = fast;
  table1.euroix = false;
  table1.measure_all_ixps = true;
  EXPECT_NO_THROW(validate_config(table1));
  for (const auto& field : scenario_config_fields()) {
    ScenarioConfig config;
    EXPECT_NO_THROW(set_config_field(config, field.name, field.get(paper)))
        << field.name;
  }
}

TEST(ConfigFields, FastModeShrinksButPreservesSeedAndUniverse) {
  ScenarioConfig config;
  config.seed = 99;
  config.euroix = false;
  config.membership_scale = 0.5;
  apply_fast_mode(config);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_FALSE(config.euroix);
  EXPECT_DOUBLE_EQ(config.membership_scale, 0.10);
  EXPECT_LE(config.topology.access_count, 150u);
  // Already-small scales are not inflated.
  config.membership_scale = 0.05;
  apply_fast_mode(config);
  EXPECT_DOUBLE_EQ(config.membership_scale, 0.05);
}

}  // namespace
}  // namespace rp::core
