// Round-trip fidelity and corruption handling for rp::io snapshots.
//
// Fidelity is held to the repo's strictest bar: the studies that run on a
// loaded world must produce byte-identical outputs to the same studies on
// the freshly built world, at any thread count.
#include "io/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/offload_study.hpp"
#include "core/scenario.hpp"
#include "core/spread_study.hpp"
#include "measure/dataset_io.hpp"
#include "util/thread_pool.hpp"

namespace rp::io {
namespace {

core::ScenarioConfig small_config() {
  core::ScenarioConfig config;
  config.seed = 23;
  config.euroix = false;
  config.membership_scale = 0.05;
  config.topology.tier2_count = 20;
  config.topology.access_count = 80;
  config.topology.content_count = 20;
  config.topology.cdn_count = 6;
  config.topology.nren_count = 5;
  config.topology.enterprise_count = 40;
  return config;
}

const core::Scenario& small_world() {
  static const core::Scenario scenario =
      core::Scenario::build(small_config());
  return scenario;
}

/// Structural equality of two scenarios, down to adjacency span order.
void expect_same_world(const core::Scenario& a, const core::Scenario& b) {
  ASSERT_EQ(a.graph().as_count(), b.graph().as_count());
  EXPECT_EQ(a.graph().transit_link_count(), b.graph().transit_link_count());
  EXPECT_EQ(a.graph().peering_link_count(), b.graph().peering_link_count());
  for (std::size_t i = 0; i < a.graph().nodes().size(); ++i) {
    const auto& na = a.graph().nodes()[i];
    const auto& nb = b.graph().nodes()[i];
    ASSERT_EQ(na.asn, nb.asn);
    EXPECT_EQ(na.name, nb.name);
    EXPECT_EQ(na.cls, nb.cls);
    EXPECT_EQ(na.policy, nb.policy);
    EXPECT_EQ(na.home_city.name, nb.home_city.name);
    EXPECT_EQ(na.traffic_scale, nb.traffic_scale);
    ASSERT_EQ(na.prefixes.size(), nb.prefixes.size());
    for (std::size_t p = 0; p < na.prefixes.size(); ++p)
      EXPECT_EQ(na.prefixes[p], nb.prefixes[p]);
    auto same_span = [](std::span<const net::Asn> x,
                        std::span<const net::Asn> y) {
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t k = 0; k < x.size(); ++k) EXPECT_EQ(x[k], y[k]);
    };
    same_span(a.graph().providers_of(na.asn), b.graph().providers_of(nb.asn));
    same_span(a.graph().customers_of(na.asn), b.graph().customers_of(nb.asn));
    same_span(a.graph().peers_of(na.asn), b.graph().peers_of(nb.asn));
  }
  ASSERT_EQ(a.ecosystem().ixps().size(), b.ecosystem().ixps().size());
  ASSERT_EQ(a.ecosystem().providers().size(), b.ecosystem().providers().size());
  for (std::size_t i = 0; i < a.ecosystem().ixps().size(); ++i) {
    const auto& xa = a.ecosystem().ixps()[i];
    const auto& xb = b.ecosystem().ixps()[i];
    EXPECT_EQ(xa.acronym(), xb.acronym());
    EXPECT_EQ(xa.peering_lan(), xb.peering_lan());
    ASSERT_EQ(xa.interfaces().size(), xb.interfaces().size());
    for (std::size_t k = 0; k < xa.interfaces().size(); ++k) {
      const auto& ia = xa.interfaces()[k];
      const auto& ib = xb.interfaces()[k];
      EXPECT_EQ(ia.asn, ib.asn);
      EXPECT_EQ(ia.addr, ib.addr);
      EXPECT_EQ(ia.mac, ib.mac);
      EXPECT_EQ(ia.kind, ib.kind);
      EXPECT_EQ(ia.circuit_one_way, ib.circuit_one_way);
    }
    ASSERT_EQ(xa.looking_glasses().size(), xb.looking_glasses().size());
  }
  EXPECT_EQ(a.vantage(), b.vantage());
  EXPECT_EQ(a.measured_ixps(), b.measured_ixps());
  EXPECT_EQ(a.config().seed, b.config().seed);
}

TEST(Snapshot, RoundTripReproducesTheWorldExactly) {
  const core::Scenario& original = small_world();
  const std::vector<std::uint8_t> image = encode_scenario(original);
  expect_same_world(original, decode_scenario(image));
}

TEST(Snapshot, EncodeIsByteIdenticalAcrossThreadCounts) {
  const core::Scenario& world = small_world();
  util::ThreadPool::set_global_threads(1);
  const auto serial = encode_scenario(world);
  util::ThreadPool::set_global_threads(8);
  const auto parallel = encode_scenario(world);
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(serial, parallel);
}

/// SpreadStudy fingerprint: raw campaign datasets + aggregated report.
std::string spread_fingerprint(const core::Scenario& scenario) {
  core::SpreadStudyConfig config;
  config.campaign.length = util::SimDuration::days(3);
  config.campaign.queries_per_pch_lg = 3;
  config.campaign.queries_per_ripe_lg = 2;
  const auto study = core::SpreadStudy::run(scenario, config);
  std::ostringstream out;
  for (const auto& measurement : study.raw_measurements())
    measure::write_dataset(measurement, out);
  const auto& report = study.report();
  out << report.total_probed() << ' ' << report.total_analyzed() << '\n';
  for (const auto& row : report.rows()) {
    out << row.acronym << ' ' << row.probed << ' ' << row.analyzed << ' '
        << row.remote_interfaces << '\n';
  }
  return std::move(out).str();
}

/// OffloadAnalyzer fingerprint: exact traffic figures and greedy order.
std::string offload_fingerprint(const core::Scenario& scenario) {
  core::OffloadStudyConfig config;
  config.rate_model.span = util::SimDuration::days(3);
  const auto study = core::OffloadStudy::run(scenario, config);
  std::ostringstream out;
  out.precision(17);
  const auto& analyzer = study.analyzer();
  out << analyzer.transit_inbound_bps() << ' '
      << analyzer.transit_outbound_bps() << '\n';
  for (net::Asn asn : analyzer.eligible_peers()) out << asn.value() << ' ';
  out << '\n';
  for (const auto& step :
       analyzer.greedy_by_traffic(offload::PeerGroup::kAll, 6))
    out << step.acronym << ' ' << step.gained << ' ' << step.remaining << '\n';
  return std::move(out).str();
}

TEST(Snapshot, StudiesOnLoadedWorldMatchByteForByte) {
  const core::Scenario& original = small_world();
  const core::Scenario loaded = decode_scenario(encode_scenario(original));
  EXPECT_EQ(spread_fingerprint(original), spread_fingerprint(loaded));
  EXPECT_EQ(offload_fingerprint(original), offload_fingerprint(loaded));
}

// Older writers also stored the cone memo and the vantage RIB, as sections 6
// and 7. The decoder ignores both, so such files still load: the world is the
// saved one, and its cones come from the graph, not from the file.
TEST(Snapshot, ExtraSectionsAreIgnored) {
  const core::Scenario& original = small_world();
  const auto image = encode_scenario(original);
  const ContainerReader reader = ContainerReader::from_bytes(image);
  ContainerWriter writer;
  for (const auto& entry : reader.sections()) {
    const auto body = reader.section(entry.id);
    writer.add_section(entry.id, {body.begin(), body.end()});
  }
  // Section 6 in the old cone-memo layout, with every mask empty: a decoder
  // that adopted it would report wrong cones.
  const std::size_t n = original.graph().as_count();
  ByteWriter cones;
  cones.varint(n);
  for (std::size_t i = 0; i < n; ++i) {
    cones.varint(n);
    for (std::size_t w = 0; w < (n + 63) / 64; ++w) cones.varint(0);
  }
  for (std::size_t i = 0; i < 2 * n; ++i) cones.varint(0);
  writer.add_section(6, cones.take());
  // Section 7 in the old RIB layout: the vantage and no routes.
  ByteWriter rib;
  rib.varint(original.vantage().value());
  rib.varint(0);
  writer.add_section(7, rib.take());

  const core::Scenario loaded = decode_scenario(writer.serialize());
  expect_same_world(original, loaded);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(loaded.graph().cone_mask(i), original.graph().cone_mask(i))
        << "node " << i;
    const net::Asn asn = original.graph().nodes()[i].asn;
    EXPECT_EQ(loaded.graph().cone_address_count(asn),
              original.graph().cone_address_count(asn));
  }
}

// Checksums prove only that the bytes are the ones written. A hand-edited
// image whose config no world build accepts (a probability of 7) is refused
// at decode, naming the field, instead of loading as a plausible world.
TEST(Snapshot, OutOfDomainConfigIsRejected) {
  const auto f64_bytes = [](double v) {
    ByteWriter out;
    out.f64(v);
    return out.take();
  };
  const auto share = f64_bytes(small_config().partner_ixp_share);
  const auto seven = f64_bytes(7.0);
  const auto image = encode_scenario(small_world());
  const ContainerReader reader = ContainerReader::from_bytes(image);
  ContainerWriter writer;
  for (const auto& entry : reader.sections()) {
    const auto body = reader.section(entry.id);
    std::vector<std::uint8_t> bytes(body.begin(), body.end());
    if (entry.id == kConfigSection) {
      const auto at =
          std::search(bytes.begin(), bytes.end(), share.begin(), share.end());
      ASSERT_NE(at, bytes.end());
      ASSERT_EQ(std::search(at + 1, bytes.end(), share.begin(), share.end()),
                bytes.end());
      std::copy(seven.begin(), seven.end(), at);
    }
    writer.add_section(entry.id, std::move(bytes));
  }
  try {
    decode_scenario(writer.serialize());
    FAIL() << "decoded a world with partner_ixp_share = 7";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.error_class(), SnapshotErrorClass::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("partner_ixp_share"),
              std::string::npos)
        << e.what();
  }
}

// The default world's cache key: every snapshot cache and sweep world column
// is named by it.
TEST(Snapshot, DefaultConfigDigestIsPinned) {
  EXPECT_EQ(config_digest_hex(core::ScenarioConfig{}), "63147c81e97d64df");
}

TEST(Snapshot, ConfigDigestCoversEveryKnob) {
  const core::ScenarioConfig base = small_config();
  const std::uint64_t digest = config_digest(base);
  EXPECT_EQ(config_digest(base), digest);  // Stable.

  core::ScenarioConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(config_digest(seed), digest);

  core::ScenarioConfig knob = base;
  knob.membership_scale += 0.001;
  EXPECT_NE(config_digest(knob), digest);

  core::ScenarioConfig nested = base;
  nested.topology.cdn_count += 1;
  EXPECT_NE(config_digest(nested), digest);

  core::ScenarioConfig universe = base;
  universe.euroix = !universe.euroix;
  EXPECT_NE(config_digest(universe), digest);
}

class SnapshotFileTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("rpsnap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "world.rpsnap";
    save_scenario(small_world(), path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::uint8_t> read_file() const {
    std::ifstream is(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }
  void write_file(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
  std::filesystem::path path_;
};

TEST_F(SnapshotFileTest, LoadsWhatWasSaved) {
  expect_same_world(small_world(), load_scenario(path_));
  EXPECT_FALSE(verify_snapshot(path_).has_value());
}

TEST_F(SnapshotFileTest, InfoSummarizesTheWorld) {
  const SnapshotInfo info = snapshot_info(path_);
  EXPECT_EQ(info.format_version, kFormatVersion);
  EXPECT_EQ(info.file_size, std::filesystem::file_size(path_));
  EXPECT_EQ(info.config_digest, config_digest(small_world().config()));
  EXPECT_EQ(info.seed, small_world().config().seed);
  EXPECT_EQ(info.as_count, small_world().graph().as_count());
  EXPECT_EQ(info.ixp_count, small_world().ecosystem().ixps().size());
  EXPECT_EQ(info.vantage_asn, small_world().vantage().value());
  EXPECT_EQ(info.sections.size(), 5u);
}

TEST_F(SnapshotFileTest, BitFlipIsDetectedNotLoaded) {
  auto bytes = read_file();
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(bytes);
  EXPECT_THROW(load_scenario(path_), SnapshotError);
  const auto error = verify_snapshot(path_);
  ASSERT_TRUE(error.has_value());
}

TEST_F(SnapshotFileTest, TruncationIsDetected) {
  auto bytes = read_file();
  bytes.resize(bytes.size() * 3 / 4);
  write_file(bytes);
  EXPECT_THROW(load_scenario(path_), SnapshotError);
}

TEST_F(SnapshotFileTest, FutureVersionIsRejected) {
  auto bytes = read_file();
  bytes[8] += 1;  // Version field sits right after the 8-byte magic.
  write_file(bytes);
  try {
    load_scenario(path_);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("newer than supported"),
              std::string::npos);
  }
}

TEST_F(SnapshotFileTest, VerifyClassifiesFailuresWithDistinctExitCodes) {
  // Healthy file: no failure, exit code 0 by construction.
  EXPECT_FALSE(verify_snapshot(path_).has_value());

  // Corrupt payload -> kCorrupt (rpworld exit 4).
  {
    auto bytes = read_file();
    bytes[bytes.size() / 2] ^= 0x40;
    write_file(bytes);
    const auto failure = verify_snapshot(path_);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->error_class, SnapshotErrorClass::kCorrupt);
    EXPECT_EQ(failure->exit_code(), 4);
  }

  // Truncated file -> kTruncated (exit 5).
  {
    save_scenario(small_world(), path_);
    auto bytes = read_file();
    bytes.resize(bytes.size() * 3 / 4);
    write_file(bytes);
    const auto failure = verify_snapshot(path_);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->error_class, SnapshotErrorClass::kTruncated);
    EXPECT_EQ(failure->exit_code(), 5);
  }

  // Future format version -> kVersion (exit 6).
  {
    save_scenario(small_world(), path_);
    auto bytes = read_file();
    bytes[8] += 1;
    write_file(bytes);
    const auto failure = verify_snapshot(path_);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->error_class, SnapshotErrorClass::kVersion);
    EXPECT_EQ(failure->exit_code(), 6);
  }

  // Unreadable path -> kIo (exit 3).
  {
    const auto failure = verify_snapshot(dir_ / "does_not_exist.rpsnap");
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->error_class, SnapshotErrorClass::kIo);
    EXPECT_EQ(failure->exit_code(), 3);
  }
}

TEST_F(SnapshotFileTest, BuildCachedHitsMissesAndFallsBack) {
  const core::ScenarioConfig config = small_config();
  const std::filesystem::path cache_dir = dir_ / "cache";

  core::SnapshotCacheResult result;
  const core::Scenario built =
      core::Scenario::build_cached(config, cache_dir, &result);
  EXPECT_EQ(result.outcome, core::SnapshotCacheResult::Outcome::kMiss);
  EXPECT_TRUE(std::filesystem::exists(result.path));
  expect_same_world(small_world(), built);

  const core::Scenario hit =
      core::Scenario::build_cached(config, cache_dir, &result);
  EXPECT_EQ(result.outcome, core::SnapshotCacheResult::Outcome::kHit);
  expect_same_world(small_world(), hit);

  // Corrupt the cached snapshot: build_cached must fall back to a clean
  // rebuild and rewrite the cache.
  {
    std::fstream f(result.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }
  const core::Scenario fallback =
      core::Scenario::build_cached(config, cache_dir, &result);
  EXPECT_EQ(result.outcome, core::SnapshotCacheResult::Outcome::kFallback);
  EXPECT_FALSE(result.message.empty());
  expect_same_world(small_world(), fallback);

  // The rewrite healed the cache.
  core::Scenario::build_cached(config, cache_dir, &result);
  EXPECT_EQ(result.outcome, core::SnapshotCacheResult::Outcome::kHit);

  // A different config never matches this cache entry.
  core::ScenarioConfig other = config;
  other.seed += 99;
  core::Scenario::build_cached(other, cache_dir, &result);
  EXPECT_EQ(result.outcome, core::SnapshotCacheResult::Outcome::kMiss);
}

TEST_F(SnapshotFileTest, MissingSectionIsRejected) {
  // Rebuild an image that drops the vantage section: decode must refuse.
  const auto image = encode_scenario(small_world());
  const ContainerReader reader = ContainerReader::from_bytes(image);
  ContainerWriter writer;
  for (const auto& entry : reader.sections()) {
    if (entry.id == kVantageSection) continue;
    const auto body = reader.section(entry.id);
    writer.add_section(entry.id, {body.begin(), body.end()});
  }
  try {
    decode_scenario(writer.serialize());
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("missing required section"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rp::io
