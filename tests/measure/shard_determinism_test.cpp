// CampaignRunner's determinism contract: an all-IXP campaign batch is
// byte-identical at any RP_THREADS and invariant under IXP submission order,
// because every campaign's RNG is a pure function of the IXP alone and the
// pool only decides *where* each campaign runs.
#include "measure/campaign.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "geo/cities.hpp"
#include "measure/dataset_io.hpp"
#include "net/subnet_allocator.hpp"
#include "util/thread_pool.hpp"

namespace rp::measure {
namespace {

const geo::City& city(const char* name) {
  return geo::CityRegistry::world().at(name);
}

/// A small but non-trivial world: 56 IXPs (the acceptance bar is >= 50),
/// each with both LG kinds and a local/remote member mix.
std::vector<ixp::Ixp> build_world() {
  const char* const cities[] = {"Amsterdam", "London",   "Frankfurt",
                                "Budapest",  "New York", "Hong Kong",
                                "Tokyo"};
  std::vector<ixp::Ixp> ixps;
  for (std::uint32_t i = 0; i < 56; ++i) {
    const char* home = cities[i % 5];  // IXPs sit in the first five cities.
    ixp::Ixp ixp{i, "IX" + std::to_string(i), "Exchange " + std::to_string(i),
                 city(home), 0.5,
                 net::Ipv4Prefix::make(net::Ipv4Addr(198, 18, i, 0), 24)};
    net::HostAllocator addrs{ixp.peering_lan()};
    ixp.add_looking_glass(ixp::LookingGlass::pch(addrs.allocate()));
    ixp.add_looking_glass(ixp::LookingGlass::ripe(addrs.allocate()));
    std::uint32_t serial = 1;
    for (std::uint32_t m = 0; m < 3 + i % 3; ++m) {
      ixp::MemberInterface iface;
      iface.asn = net::Asn{64500 + 100 * i + m};
      iface.addr = addrs.allocate();
      iface.mac = net::MacAddr::from_id(1000 * i + serial++);
      if (m % 3 == 2) {
        iface.kind = ixp::AttachmentKind::kRemoteViaProvider;
        iface.equipment_city = city(cities[(i + m) % 7]);
        iface.circuit_one_way = geo::propagation_delay(
            iface.equipment_city.position, ixp.city().position, 1.5);
      } else {
        iface.kind = ixp::AttachmentKind::kDirectColo;
        iface.equipment_city = ixp.city();
      }
      ixp.add_interface(iface);
    }
    ixps.push_back(std::move(ixp));
  }
  return ixps;
}

CampaignConfig short_campaign() {
  CampaignConfig config;
  config.length = util::SimDuration::days(1);
  config.queries_per_pch_lg = 2;
  config.queries_per_ripe_lg = 2;
  return config;
}

util::Rng rng_for_ixp(const ixp::Ixp& ixp) {
  return util::Rng(0xC0FFEE00 + ixp.id());
}

/// Serializes one measurement to the exact on-disk dataset bytes.
std::string fingerprint(const IxpMeasurement& measurement) {
  std::ostringstream os;
  write_dataset(measurement, os);
  return os.str();
}

std::string run_fingerprint(const std::vector<const ixp::Ixp*>& ixps) {
  const auto results = CampaignRunner::run(ixps, short_campaign(), rng_for_ixp);
  std::string all;
  for (const auto& measurement : results) all += fingerprint(measurement);
  return all;
}

class ShardDeterminismTest : public testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_global_threads(0); }
};

TEST_F(ShardDeterminismTest, AllIxpBatchIsByteIdenticalAcrossThreads) {
  const std::vector<ixp::Ixp> world = build_world();
  std::vector<const ixp::Ixp*> ixps;
  for (const auto& ixp : world) ixps.push_back(&ixp);
  ASSERT_GE(ixps.size(), 50u);

  util::ThreadPool::set_global_threads(1);
  const std::string reference = run_fingerprint(ixps);
  ASSERT_FALSE(reference.empty());
  util::ThreadPool::set_global_threads(8);
  EXPECT_EQ(run_fingerprint(ixps), reference) << "diverged at RP_THREADS=8";
}

TEST_F(ShardDeterminismTest, SubmissionOrderOnlyPermutesTheOutput) {
  const std::vector<ixp::Ixp> world = build_world();
  std::vector<const ixp::Ixp*> forward;
  for (const auto& ixp : world) forward.push_back(&ixp);
  std::vector<const ixp::Ixp*> reversed(forward.rbegin(), forward.rend());

  util::ThreadPool::set_global_threads(8);
  const auto a = CampaignRunner::run(forward, short_campaign(), rng_for_ixp);
  const auto b = CampaignRunner::run(reversed, short_campaign(), rng_for_ixp);
  ASSERT_EQ(a.size(), b.size());

  // Results land in submission order; each IXP's bytes are identical no
  // matter where in the batch it was submitted.
  std::map<std::string, std::string> by_acronym;
  for (const auto& measurement : a)
    by_acronym[measurement.ixp_acronym] = fingerprint(measurement);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].ixp_acronym, forward[forward.size() - 1 - i]->acronym());
    EXPECT_EQ(fingerprint(b[i]), by_acronym.at(b[i].ixp_acronym));
  }
}

}  // namespace
}  // namespace rp::measure
