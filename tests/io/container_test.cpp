#include "io/container.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

namespace rp::io {
namespace {

TEST(ByteCodec, RoundTripsPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32_fixed(0xDEADBEEF);
  w.u64_fixed(0x0123456789ABCDEFull);
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(std::numeric_limits<std::uint64_t>::max());
  w.svarint(0);
  w.svarint(-1);
  w.svarint(std::numeric_limits<std::int64_t>::min());
  w.svarint(std::numeric_limits<std::int64_t>::max());
  w.f64(-273.15);
  w.str("peering lan");
  w.str("");

  const std::vector<std::uint8_t> bytes = std::move(w).take();
  ByteReader r(bytes, "test");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32_fixed(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64_fixed(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.svarint(), 0);
  EXPECT_EQ(r.svarint(), -1);
  EXPECT_EQ(r.svarint(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.svarint(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(r.f64(), -273.15);
  EXPECT_EQ(r.str(), "peering lan");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(ByteCodec, SmallVarintsAreOneByte) {
  ByteWriter w;
  w.varint(42);
  EXPECT_EQ(w.bytes().size(), 1u);
}

TEST(ByteCodec, ReaderRejectsTruncation) {
  ByteWriter w;
  w.u32_fixed(7);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  bytes.pop_back();
  ByteReader r(bytes, "nodes");
  try {
    r.u32_fixed();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(ByteCodec, ReaderRejectsOverlongVarint) {
  const std::vector<std::uint8_t> bytes(11, 0x80);
  ByteReader r(bytes, "test");
  EXPECT_THROW(r.varint(), SnapshotError);
}

TEST(ByteCodec, ReaderRejectsStringPastEnd) {
  ByteWriter w;
  w.varint(100);  // Claims 100 bytes of string data, provides none.
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  ByteReader r(bytes, "test");
  EXPECT_THROW(r.str(), SnapshotError);
}

TEST(ByteCodec, ExpectEndFlagsTrailingBytes) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  ByteReader r(bytes, "test");
  r.u8();
  EXPECT_THROW(r.expect_end(), SnapshotError);
}

TEST(Checksum, MatchesKnownFnv1aVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(std::span<const std::uint8_t>{}), 14695981039346656037ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cull);
  // The text overload hashes the same bytes.
  EXPECT_EQ(fnv1a64(std::string_view{}), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cull);
}

TEST(Checksum, DigestHexIsSixteenLowerCaseDigits) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
}

std::vector<std::uint8_t> payload(std::string_view s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> two_section_image() {
  ContainerWriter writer;
  writer.add_section(1, payload("first section"));
  writer.add_section(7, payload("second"));
  return writer.serialize();
}

TEST(Container, RoundTripsSections) {
  const auto image = two_section_image();
  const ContainerReader reader = ContainerReader::from_bytes(image);
  EXPECT_EQ(reader.version(), kFormatVersion);
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_TRUE(reader.has(1));
  EXPECT_TRUE(reader.has(7));
  EXPECT_FALSE(reader.has(2));
  const auto first = reader.section(1);
  EXPECT_EQ(std::string(first.begin(), first.end()), "first section");
  const auto second = reader.section(7);
  EXPECT_EQ(std::string(second.begin(), second.end()), "second");
  EXPECT_THROW(reader.section(3), SnapshotError);
}

TEST(Container, WriterRejectsDuplicateSectionIds) {
  ContainerWriter writer;
  writer.add_section(1, payload("x"));
  EXPECT_THROW(writer.add_section(1, payload("y")), SnapshotError);
}

TEST(Container, RejectsBadMagic) {
  auto image = two_section_image();
  image[0] = 'X';
  try {
    ContainerReader::from_bytes(image);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(Container, RejectsFutureFormatVersion) {
  auto image = two_section_image();
  image[8] += 1;  // The format-version field follows the 8-byte magic.
  try {
    ContainerReader::from_bytes(image);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("newer than supported"),
              std::string::npos);
  }
}

TEST(Container, DetectsSingleBitFlipInPayload) {
  auto image = two_section_image();
  image.back() ^= 0x01;  // Last payload byte.
  try {
    ContainerReader::from_bytes(image);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
  }
}

TEST(Container, DetectsTruncatedFile) {
  auto image = two_section_image();
  image.resize(image.size() - 3);
  EXPECT_THROW(ContainerReader::from_bytes(image), SnapshotError);
}

TEST(Container, RejectsTinyFile) {
  const std::vector<std::uint8_t> tiny = {'R', 'P'};
  EXPECT_THROW(ContainerReader::from_bytes(tiny), SnapshotError);
}

TEST(Container, AtomicWriteLeavesNoTempFile) {
  const std::filesystem::path dir = testing::TempDir();
  const std::filesystem::path path = dir / "container_test.rpsnap";
  ContainerWriter writer;
  writer.add_section(2, payload("hello"));
  writer.write_file_atomic(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));

  const ContainerReader reader = ContainerReader::from_file(path);
  const auto body = reader.section(2);
  EXPECT_EQ(std::string(body.begin(), body.end()), "hello");
  std::filesystem::remove(path);
}

TEST(Container, MissingFileThrows) {
  EXPECT_THROW(
      ContainerReader::from_file("/nonexistent/dir/nothing.rpsnap"),
      SnapshotError);
}

}  // namespace
}  // namespace rp::io
