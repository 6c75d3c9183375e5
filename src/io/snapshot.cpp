#include "io/snapshot.hpp"

#include <array>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/config_fields.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rp::io {
namespace {

// Shared by every per-section decode below; the per-thread shards keep the
// two concurrent decode tasks from contending.
obs::Histogram& section_decode_hist() {
  static obs::Histogram hist("rp.io.section.decode_ns");
  return hist;
}

// --- Shared field codecs -----------------------------------------------------

void encode_city(ByteWriter& out, const geo::City& city) {
  out.str(city.name);
  out.str(city.country);
  out.u8(static_cast<std::uint8_t>(city.continent));
  out.f64(city.position.latitude_deg);
  out.f64(city.position.longitude_deg);
}

geo::City decode_city(ByteReader& in) {
  geo::City city;
  city.name = in.str();
  city.country = in.str();
  const std::uint8_t continent = in.u8();
  if (continent > static_cast<std::uint8_t>(geo::Continent::kSouthAmerica))
    throw SnapshotError("snapshot: invalid continent code " +
                        std::to_string(continent));
  city.continent = static_cast<geo::Continent>(continent);
  city.position.latitude_deg = in.f64();
  city.position.longitude_deg = in.f64();
  return city;
}

void encode_prefix(ByteWriter& out, const net::Ipv4Prefix& prefix) {
  out.u32_fixed(prefix.network().to_u32());
  out.u8(static_cast<std::uint8_t>(prefix.length()));
}

net::Ipv4Prefix decode_prefix(ByteReader& in) {
  const net::Ipv4Addr network{in.u32_fixed()};
  const std::uint8_t length = in.u8();
  if (length > 32)
    throw SnapshotError("snapshot: invalid prefix length " +
                        std::to_string(length));
  const auto prefix = net::Ipv4Prefix::make(network, length);
  if (prefix.network() != network)
    throw SnapshotError("snapshot: prefix " + network.to_string() + "/" +
                        std::to_string(length) + " has host bits set");
  return prefix;
}

/// Reads a count that prefixes a list whose elements occupy at least
/// `min_element_bytes` each; bounds it by the remaining payload so corrupt
/// counts cannot trigger absurd allocations before the decode loop fails.
std::size_t checked_count(ByteReader& in, std::size_t min_element_bytes = 1) {
  const std::uint64_t count = in.varint();
  if (count * min_element_bytes > in.remaining())
    throw SnapshotError("snapshot: list count " + std::to_string(count) +
                        " exceeds section size");
  return static_cast<std::size_t>(count);
}

// --- kConfigSection ----------------------------------------------------------
// Field order here is the canonical encoding: config_digest hashes these
// bytes, so changing the order or adding a knob deliberately changes every
// cache key (stale snapshots for older configs simply stop matching).

std::vector<std::uint8_t> encode_config(const core::ScenarioConfig& config) {
  ByteWriter out;
  const topology::GeneratorConfig& topo = config.topology;
  out.varint(topo.tier1_count);
  out.varint(topo.tier2_count);
  out.varint(topo.access_count);
  out.varint(topo.content_count);
  out.varint(topo.cdn_count);
  out.varint(topo.nren_count);
  out.varint(topo.enterprise_count);
  out.f64(topo.multihoming_mean);
  out.f64(topo.tier2_peering_prob);
  out.f64(topo.content_access_peering_prob);
  out.u8(topo.nren_backbone ? 1 : 0);
  out.varint(topo.first_asn);
  out.f64(topo.popularity_zipf_exponent);

  out.u8(config.euroix ? 1 : 0);
  out.f64(config.probe_headroom);
  out.f64(config.membership_scale);
  out.f64(config.appetite_alpha);
  out.f64(config.member_pool_size);
  out.f64(config.partner_ixp_share);
  out.f64(config.ip_transport_share);
  out.varint(config.vantage_cdn_peerings);
  out.varint(config.seed);
  // Trailing optional field: written only when set, so every pre-existing
  // config keeps its digest (and cached snapshot) unchanged.
  if (config.measure_all_ixps) out.u8(1);
  return std::move(out).take();
}

core::ScenarioConfig decode_config(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, "config section");
  core::ScenarioConfig config;
  topology::GeneratorConfig& topo = config.topology;
  topo.tier1_count = static_cast<std::size_t>(in.varint());
  topo.tier2_count = static_cast<std::size_t>(in.varint());
  topo.access_count = static_cast<std::size_t>(in.varint());
  topo.content_count = static_cast<std::size_t>(in.varint());
  topo.cdn_count = static_cast<std::size_t>(in.varint());
  topo.nren_count = static_cast<std::size_t>(in.varint());
  topo.enterprise_count = static_cast<std::size_t>(in.varint());
  topo.multihoming_mean = in.f64();
  topo.tier2_peering_prob = in.f64();
  topo.content_access_peering_prob = in.f64();
  topo.nren_backbone = in.u8() != 0;
  topo.first_asn = static_cast<std::uint32_t>(in.varint());
  topo.popularity_zipf_exponent = in.f64();

  config.euroix = in.u8() != 0;
  config.probe_headroom = in.f64();
  config.membership_scale = in.f64();
  config.appetite_alpha = in.f64();
  config.member_pool_size = in.f64();
  config.partner_ixp_share = in.f64();
  config.ip_transport_share = in.f64();
  config.vantage_cdn_peerings = static_cast<std::size_t>(in.varint());
  config.seed = in.varint();
  if (!in.at_end()) config.measure_all_ixps = in.u8() != 0;
  in.expect_end();
  // Checksums only prove the bytes are the ones written; a hand-made image
  // can still carry a config no world build accepts.
  try {
    core::validate_config(config);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(std::string("snapshot: ") + e.what());
  }
  return config;
}

// --- kNodesSection -----------------------------------------------------------

std::vector<std::uint8_t> encode_nodes(const topology::AsGraph& graph) {
  ByteWriter out;
  out.varint(graph.as_count());
  for (const topology::AsNode& node : graph.nodes()) {
    out.varint(node.asn.value());
    out.str(node.name);
    out.u8(static_cast<std::uint8_t>(node.cls));
    out.u8(static_cast<std::uint8_t>(node.policy));
    encode_city(out, node.home_city);
    out.varint(node.prefixes.size());
    for (const auto& prefix : node.prefixes) encode_prefix(out, prefix);
    out.f64(node.traffic_scale);
  }
  return std::move(out).take();
}

std::vector<topology::AsNode> decode_nodes(
    std::span<const std::uint8_t> payload) {
  ByteReader in(payload, "nodes section");
  const std::size_t count = checked_count(in);
  std::vector<topology::AsNode> nodes;
  nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    topology::AsNode node;
    node.asn = net::Asn{static_cast<std::uint32_t>(in.varint())};
    node.name = in.str();
    const std::uint8_t cls = in.u8();
    if (cls > static_cast<std::uint8_t>(topology::AsClass::kEnterprise))
      throw SnapshotError("snapshot: invalid AS class code " +
                          std::to_string(cls));
    node.cls = static_cast<topology::AsClass>(cls);
    const std::uint8_t policy = in.u8();
    if (policy >
        static_cast<std::uint8_t>(topology::PeeringPolicy::kRestrictive))
      throw SnapshotError("snapshot: invalid peering policy code " +
                          std::to_string(policy));
    node.policy = static_cast<topology::PeeringPolicy>(policy);
    node.home_city = decode_city(in);
    const std::size_t prefixes = checked_count(in, 5);
    node.prefixes.reserve(prefixes);
    for (std::size_t p = 0; p < prefixes; ++p)
      node.prefixes.push_back(decode_prefix(in));
    node.traffic_scale = in.f64();
    nodes.push_back(std::move(node));
  }
  in.expect_end();
  return nodes;
}

// --- kEdgesSection -----------------------------------------------------------
// Adjacency as node-index varints, per node, in exact insertion order. Node
// indices (not ASNs) keep the payload small and make dangling references
// detectable by a simple range check.

std::vector<std::uint8_t> encode_edges(const topology::AsGraph& graph) {
  ByteWriter out;
  out.varint(graph.as_count());
  auto write_list = [&graph, &out](std::span<const net::Asn> list) {
    out.varint(list.size());
    for (net::Asn asn : list) out.varint(graph.index_of(asn));
  };
  for (const topology::AsNode& node : graph.nodes()) {
    write_list(graph.providers_of(node.asn));
    write_list(graph.customers_of(node.asn));
    write_list(graph.peers_of(node.asn));
  }
  return std::move(out).take();
}

topology::AsGraph decode_graph(std::span<const std::uint8_t> edges_payload,
                               std::vector<topology::AsNode> nodes) {
  ByteReader in(edges_payload, "edges section");
  const std::size_t count = checked_count(in);
  if (count != nodes.size())
    throw SnapshotError("snapshot: edges section covers " +
                        std::to_string(count) + " nodes but nodes section has " +
                        std::to_string(nodes.size()));
  topology::AsGraph::SnapshotParts parts;
  parts.nodes = std::move(nodes);
  auto read_list = [&in, &parts](std::vector<net::Asn>& list) {
    const std::size_t n = checked_count(in);
    list.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t index = in.varint();
      if (index >= parts.nodes.size())
        throw SnapshotError("snapshot: edge references node index " +
                            std::to_string(index) + " out of range");
      list.push_back(parts.nodes[index].asn);
    }
  };
  parts.providers.resize(parts.nodes.size());
  parts.customers.resize(parts.nodes.size());
  parts.peers.resize(parts.nodes.size());
  for (std::size_t i = 0; i < parts.nodes.size(); ++i) {
    read_list(parts.providers[i]);
    read_list(parts.customers[i]);
    read_list(parts.peers[i]);
  }
  in.expect_end();
  try {
    return topology::AsGraph::restore(std::move(parts));
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(std::string("snapshot: inconsistent graph: ") +
                        e.what());
  }
}

// --- kEcosystemSection -------------------------------------------------------

std::vector<std::uint8_t> encode_ecosystem(const ixp::IxpEcosystem& ecosystem) {
  ByteWriter out;
  out.varint(ecosystem.providers().size());
  for (const ixp::RemotePeeringProvider& provider : ecosystem.providers()) {
    out.str(provider.name);
    out.f64(provider.path_stretch);
    out.varint(provider.pops.size());
    for (const geo::City& pop : provider.pops) encode_city(out, pop);
  }
  out.varint(ecosystem.ixps().size());
  for (const ixp::Ixp& ixp : ecosystem.ixps()) {
    out.str(ixp.acronym());
    out.str(ixp.full_name());
    encode_city(out, ixp.city());
    out.f64(ixp.peak_traffic_tbps());
    encode_prefix(out, ixp.peering_lan());
    out.varint(static_cast<std::uint64_t>(ixp.site_count()));
    out.varint(ixp.looking_glasses().size());
    for (const ixp::LookingGlass& lg : ixp.looking_glasses()) {
      out.u8(lg.op == ixp::LgOperator::kPch ? 0 : 1);
      out.varint(static_cast<std::uint64_t>(lg.pings_per_query));
      out.u32_fixed(lg.addr.to_u32());
    }
    out.varint(ixp.interfaces().size());
    for (const ixp::MemberInterface& iface : ixp.interfaces()) {
      out.varint(iface.asn.value());
      out.u32_fixed(iface.addr.to_u32());
      for (std::uint8_t octet : iface.mac.octets()) out.u8(octet);
      out.u8(static_cast<std::uint8_t>(iface.kind));
      encode_city(out, iface.equipment_city);
      out.u8(iface.provider_index.has_value() ? 1 : 0);
      if (iface.provider_index) out.varint(*iface.provider_index);
      out.svarint(iface.circuit_one_way.count_nanos());
      out.u8(static_cast<std::uint8_t>((iface.uses_route_server ? 1 : 0) |
                                       (iface.discoverable ? 2 : 0)));
    }
  }
  return std::move(out).take();
}

ixp::IxpEcosystem decode_ecosystem(std::span<const std::uint8_t> payload) {
  ByteReader in(payload, "ecosystem section");
  ixp::IxpEcosystem ecosystem;
  const std::size_t providers = checked_count(in);
  for (std::size_t p = 0; p < providers; ++p) {
    ixp::RemotePeeringProvider provider;
    provider.name = in.str();
    provider.path_stretch = in.f64();
    const std::size_t pops = checked_count(in);
    provider.pops.reserve(pops);
    for (std::size_t c = 0; c < pops; ++c)
      provider.pops.push_back(decode_city(in));
    ecosystem.add_provider(std::move(provider));
  }
  const std::size_t ixps = checked_count(in);
  for (std::size_t x = 0; x < ixps; ++x) {
    std::string acronym = in.str();
    std::string full_name = in.str();
    geo::City city = decode_city(in);
    const double peak = in.f64();
    const net::Ipv4Prefix lan = decode_prefix(in);
    try {
      const ixp::IxpId id =
          ecosystem.add_ixp(std::move(acronym), std::move(full_name),
                            std::move(city), peak, lan);
      ixp::Ixp& ixp = ecosystem.ixp(id);
      ixp.set_site_count(static_cast<int>(in.varint()));
      const std::size_t lgs = checked_count(in);
      for (std::size_t g = 0; g < lgs; ++g) {
        ixp::LookingGlass lg;
        const std::uint8_t op = in.u8();
        if (op > 1)
          throw SnapshotError("snapshot: invalid looking-glass operator " +
                              std::to_string(op));
        lg.op = op == 0 ? ixp::LgOperator::kPch : ixp::LgOperator::kRipeNcc;
        lg.pings_per_query = static_cast<int>(in.varint());
        lg.addr = net::Ipv4Addr{in.u32_fixed()};
        ixp.add_looking_glass(lg);
      }
      const std::size_t ifaces = checked_count(in);
      for (std::size_t i = 0; i < ifaces; ++i) {
        ixp::MemberInterface iface;
        iface.asn = net::Asn{static_cast<std::uint32_t>(in.varint())};
        iface.addr = net::Ipv4Addr{in.u32_fixed()};
        std::array<std::uint8_t, 6> mac;
        for (std::uint8_t& octet : mac) octet = in.u8();
        iface.mac = net::MacAddr{mac};
        const std::uint8_t kind = in.u8();
        if (kind > static_cast<std::uint8_t>(ixp::AttachmentKind::kPartnerIxp))
          throw SnapshotError("snapshot: invalid attachment kind " +
                              std::to_string(kind));
        iface.kind = static_cast<ixp::AttachmentKind>(kind);
        iface.equipment_city = decode_city(in);
        if (in.u8() != 0)
          iface.provider_index = static_cast<std::size_t>(in.varint());
        iface.circuit_one_way = util::SimDuration::nanos(in.svarint());
        const std::uint8_t flags = in.u8();
        iface.uses_route_server = (flags & 1) != 0;
        iface.discoverable = (flags & 2) != 0;
        if (iface.provider_index &&
            *iface.provider_index >= ecosystem.providers().size())
          throw SnapshotError("snapshot: interface references provider " +
                              std::to_string(*iface.provider_index) +
                              " out of range");
        ixp.add_interface(std::move(iface));
      }
    } catch (const std::invalid_argument& e) {
      // add_ixp/set_site_count/add_interface invariant violations become
      // snapshot errors (duplicate acronym, address outside LAN, ...).
      throw SnapshotError(std::string("snapshot: inconsistent ecosystem: ") +
                          e.what());
    }
  }
  in.expect_end();
  return ecosystem;
}

// --- kVantageSection ---------------------------------------------------------

std::vector<std::uint8_t> encode_vantage(const core::WorldView& world) {
  ByteWriter out;
  out.varint(world.vantage.value());
  out.varint(world.measured_ixps.size());
  for (ixp::IxpId id : world.measured_ixps) out.varint(id);
  return std::move(out).take();
}

}  // namespace

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kConfigSection: return "config";
    case kNodesSection: return "nodes";
    case kEdgesSection: return "edges";
    case kEcosystemSection: return "ecosystem";
    case kVantageSection: return "vantage";
  }
  return "?";
}

std::vector<std::uint8_t> encode_scenario(const core::WorldView& world) {
  obs::Span span("io.encode_scenario");
  const topology::AsGraph& graph = *world.graph;

  // One encoder per section; parallel_transform keeps results in slot order,
  // so the assembled bytes are identical at any thread count.
  struct Job {
    std::uint32_t id;
    std::function<std::vector<std::uint8_t>()> encode;
  };
  std::vector<Job> jobs;
  jobs.push_back(
      {kConfigSection, [&world] { return encode_config(*world.config); }});
  jobs.push_back({kNodesSection, [&graph] { return encode_nodes(graph); }});
  jobs.push_back({kEdgesSection, [&graph] { return encode_edges(graph); }});
  jobs.push_back({kEcosystemSection, [&world] {
                    return encode_ecosystem(*world.ecosystem);
                  }});
  jobs.push_back(
      {kVantageSection, [&world] { return encode_vantage(world); }});

  std::vector<std::vector<std::uint8_t>> payloads =
      util::ThreadPool::global().parallel_transform(
          jobs.size(), [&jobs](std::size_t i) { return jobs[i].encode(); });

  static obs::Counter encoded("rp.io.sections.encoded");
  encoded.add(jobs.size());
  ContainerWriter writer;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    writer.add_section(jobs[i].id, std::move(payloads[i]));
  return writer.serialize();
}

void save_scenario(const core::WorldView& world,
                   const std::filesystem::path& path) {
  write_bytes_atomic(encode_scenario(world), path);
}

namespace {

std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw SnapshotError("cannot open " + path.string(),
                        SnapshotErrorClass::kIo);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  // The same logical site as ContainerReader::from_file — every snapshot
  // byte stream entering the process passes one io.read checkpoint.
  static fault::Site read_site(fault::kSiteIoRead);
  read_site.maybe_corrupt(bytes);
  static obs::Counter read("rp.io.bytes_read");
  read.add(bytes.size());
  return bytes;
}

}  // namespace

core::Scenario decode_scenario(std::span<const std::uint8_t> bytes) {
  obs::Span span("io.decode_scenario");
  ContainerReader container =
      ContainerReader::from_bytes({bytes.begin(), bytes.end()});
  static obs::Counter decoded("rp.io.sections.decoded");
  decoded.add(container.sections().size());

  for (std::uint32_t id : {kConfigSection, kNodesSection, kEdgesSection,
                           kEcosystemSection, kVantageSection})
    if (!container.has(id))
      throw SnapshotError(std::string("snapshot: missing required section '") +
                          section_name(id) + "'");

  const core::ScenarioConfig config =
      decode_config(container.section(kConfigSection));

  // The graph chain (nodes -> edges) and the ecosystem decode are
  // independent; run them as two pool tasks.
  topology::AsGraph graph;
  ixp::IxpEcosystem ecosystem;
  util::ThreadPool::global().parallel_for(2, [&](std::size_t task) {
    if (task == 0) {
      obs::ScopedTimer timer(section_decode_hist());
      std::vector<topology::AsNode> nodes =
          decode_nodes(container.section(kNodesSection));
      graph = decode_graph(container.section(kEdgesSection), std::move(nodes));
    } else {
      obs::ScopedTimer timer(section_decode_hist());
      ecosystem = decode_ecosystem(container.section(kEcosystemSection));
    }
  });

  // Cross-section consistency: interfaces must reference known ASes and the
  // vantage/measured ids must resolve.
  for (const ixp::Ixp& ixp : ecosystem.ixps())
    for (const ixp::MemberInterface& iface : ixp.interfaces())
      if (!graph.contains(iface.asn))
        throw SnapshotError("snapshot: " + ixp.acronym() +
                            " interface references unknown " +
                            iface.asn.to_string());

  ByteReader vantage_in(container.section(kVantageSection), "vantage section");
  const net::Asn vantage{static_cast<std::uint32_t>(vantage_in.varint())};
  if (!graph.contains(vantage))
    throw SnapshotError("snapshot: vantage " + vantage.to_string() +
                        " is not in the graph");
  const std::size_t measured = checked_count(vantage_in);
  std::vector<ixp::IxpId> measured_ixps;
  measured_ixps.reserve(measured);
  for (std::size_t i = 0; i < measured; ++i) {
    const std::uint64_t id = vantage_in.varint();
    if (id >= ecosystem.ixps().size())
      throw SnapshotError("snapshot: measured IXP id " + std::to_string(id) +
                          " out of range");
    measured_ixps.push_back(static_cast<ixp::IxpId>(id));
  }
  vantage_in.expect_end();

  return core::Scenario::from_parts(config, std::move(graph),
                                    std::move(ecosystem), vantage,
                                    std::move(measured_ixps));
}

core::Scenario load_scenario(const std::filesystem::path& path) {
  return decode_scenario(read_file_bytes(path));
}

std::uint64_t config_digest(const core::ScenarioConfig& config) {
  return fnv1a64(encode_config(config));
}

std::string config_digest_hex(const core::ScenarioConfig& config) {
  return digest_hex(config_digest(config));
}

std::filesystem::path cache_path(const core::ScenarioConfig& config,
                                 const std::filesystem::path& cache_dir) {
  return cache_dir / ("world-" + config_digest_hex(config) + ".rpsnap");
}

std::filesystem::path default_cache_dir() {
  if (const char* dir = std::getenv("RP_SNAPSHOT_CACHE");
      dir != nullptr && dir[0] != '\0')
    return dir;
  return ".rpsnap-cache";
}

SnapshotInfo snapshot_info(const std::filesystem::path& path) {
  SnapshotInfo info;
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  info.file_size = bytes.size();
  ContainerReader container = ContainerReader::from_bytes(bytes);
  info.format_version = container.version();
  info.sections = container.sections();

  const core::Scenario scenario = decode_scenario(bytes);
  info.config_digest = config_digest(scenario.config());
  info.seed = scenario.config().seed;
  info.as_count = scenario.graph().as_count();
  info.transit_links = scenario.graph().transit_link_count();
  info.peering_links = scenario.graph().peering_link_count();
  info.ixp_count = scenario.ecosystem().ixps().size();
  info.provider_count = scenario.ecosystem().providers().size();
  for (const ixp::Ixp& ixp : scenario.ecosystem().ixps())
    info.interface_count += ixp.interfaces().size();
  info.measured_ixp_count = scenario.measured_ixps().size();
  info.vantage_asn = scenario.vantage().value();
  return info;
}

std::optional<VerifyFailure> verify_snapshot(
    const std::filesystem::path& path) {
  try {
    const core::Scenario scenario = load_scenario(path);
    if (auto violation = scenario.graph().validate())
      return VerifyFailure{"graph invariant violated: " + *violation,
                           SnapshotErrorClass::kInvariant};
  } catch (const SnapshotError& e) {
    return VerifyFailure{e.what(), e.error_class()};
  } catch (const std::exception& e) {
    return VerifyFailure{e.what(), SnapshotErrorClass::kIo};
  }
  return std::nullopt;
}

}  // namespace rp::io
