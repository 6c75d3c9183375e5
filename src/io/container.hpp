// The rp-snapshot binary container: a chunked, versioned, checksummed file
// format for world snapshots.
//
// Layout (all fixed-width fields little-endian):
//   magic[8]      "RPSNAP\r\n"   (the CRLF catches text-mode mangling)
//   u32           format version (kFormatVersion)
//   u32           section count
//   entry[count]  { u32 id, u32 reserved, u64 offset, u64 size, u64 fnv1a64 }
//   payloads...   (concatenated, at the offsets recorded in the table)
//
// Section payloads are opaque byte strings; higher layers (snapshot.cpp)
// encode them with the varint ByteWriter below. Every section carries its own
// 64-bit FNV-1a checksum, verified (in parallel) when a file is opened, so a
// truncated or bit-flipped snapshot is rejected before any decoding starts.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rp::io {

/// The failure classes a snapshot operation can report. The enumerator
/// values are the documented process exit codes of `rpworld verify` /
/// `rpworld diff`, so tools and CI can branch on *why* a snapshot was
/// rejected without parsing messages:
///   3  kIo         cannot open / short read / cannot rename
///   4  kCorrupt    bad magic, checksum mismatch, malformed or inconsistent
///                  payload (bit flips land here)
///   5  kTruncated  file or section shorter than its declared size
///   6  kVersion    format version newer than this build supports
///   7  kInvariant  decoded world fails graph structural validation
/// (0 = OK, 1 = worlds differ in `diff`, 2 = usage / unclassified error.)
enum class SnapshotErrorClass : int {
  kIo = 3,
  kCorrupt = 4,
  kTruncated = 5,
  kVersion = 6,
  kInvariant = 7,
};

/// Raised for every malformed-snapshot condition: bad magic, future format
/// version, truncated table or payload, checksum mismatch, decode underrun.
/// Carries the failure class so callers can map it to a distinct exit code.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(
      const std::string& what,
      SnapshotErrorClass error_class = SnapshotErrorClass::kCorrupt)
      : std::runtime_error(what), class_(error_class) {}

  SnapshotErrorClass error_class() const { return class_; }
  /// The documented rpworld exit code for this failure class.
  int exit_code() const { return static_cast<int>(class_); }

 private:
  SnapshotErrorClass class_;
};

/// Current container format version. Readers reject files with a greater
/// version outright (no forward compatibility); older versions may be
/// accepted once the format evolves.
inline constexpr std::uint32_t kFormatVersion = 1;

/// The 8-byte file magic.
inline constexpr std::array<std::uint8_t, 8> kMagic = {'R', 'P', 'S', 'N',
                                                       'A', 'P', '\r', '\n'};

/// The one atomic writer. `content` lands in a sibling ".tmp" file, which is
/// fsynced and renamed over `path`; then the parent directory is fsynced.
/// Readers never observe a half-written file, and once this returns the new
/// file survives a power loss. Any failure removes the temp file and throws
/// SnapshotError(kIo). Ledger records and manifests write through it.
void write_file_atomic(std::string_view content,
                       const std::filesystem::path& path);

/// The snapshot path: write_file_atomic behind the "io.write" fault site. A
/// corruption action writes a complete but corrupt image; a throw action
/// simulates a crash after half the bytes reach the temp file, before the
/// rename. Counts rp.io.bytes_written.
void write_bytes_atomic(std::span<const std::uint8_t> bytes,
                        const std::filesystem::path& path);

/// 64-bit FNV-1a over a byte range.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);
/// 64-bit FNV-1a over text (the bytes of `text`, no terminator).
std::uint64_t fnv1a64(std::string_view text);
/// Continues an FNV-1a stream from a prior state (seed with kFnvOffset).
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
std::uint64_t fnv1a64_accumulate(std::uint64_t state,
                                 std::span<const std::uint8_t> data);

/// The printed form of a 64-bit digest: 16 lower-case hex digits.
std::string digest_hex(std::uint64_t digest);

/// An append-only byte buffer with varint integer packing.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32_fixed(std::uint32_t v);
  void u64_fixed(std::uint64_t v);
  /// Unsigned LEB128.
  void varint(std::uint64_t v);
  /// Zigzag-coded signed LEB128.
  void svarint(std::int64_t v);
  /// IEEE-754 bit pattern, 8 bytes LE (exact round trip).
  void f64(double v);
  /// Length-prefixed (varint) byte string.
  void str(std::string_view s);

  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::span<const std::uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// A bounds-checked reader over a byte span; throws SnapshotError (naming
/// `context`) on any read past the end or malformed varint.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data,
                      std::string context = "payload")
      : data_(data), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint32_t u32_fixed();
  std::uint64_t u64_fixed();
  std::uint64_t varint();
  std::int64_t svarint();
  double f64();
  std::string str();
  /// Reads a count that prefixes a list whose elements occupy at least
  /// `min_element_bytes` (>= 1) each, and rejects one the remaining payload
  /// cannot hold, so a corrupt count cannot trigger an absurd allocation
  /// before the decode loop underruns.
  std::size_t count(std::size_t min_element_bytes = 1);

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Requires the reader to be fully consumed (catches trailing garbage).
  void expect_end() const;

 private:
  [[noreturn]] void underrun() const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// One section of a container file.
struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;  ///< Payload offset from the start of the file.
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// Assembles a container. Sections appear in the file in add order.
class ContainerWriter {
 public:
  void add_section(std::uint32_t id, std::vector<std::uint8_t> payload);

  /// The full file image (header + table + payloads).
  std::vector<std::uint8_t> serialize() const;

  /// Writes the image through write_bytes_atomic: a crashed writer never
  /// leaves a half-written snapshot, and concurrent readers see either the
  /// old file or the new one.
  void write_file_atomic(const std::filesystem::path& path) const;

 private:
  struct Pending {
    std::uint32_t id;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Pending> sections_;
};

/// Parses and verifies a container image. Construction validates the magic,
/// version, and table geometry, then verifies every section checksum (fanned
/// out across rp::util::ThreadPool::global()); any failure throws
/// SnapshotError with a message naming the offending part.
class ContainerReader {
 public:
  static ContainerReader from_bytes(std::vector<std::uint8_t> bytes);
  static ContainerReader from_file(const std::filesystem::path& path);

  std::uint32_t version() const { return version_; }
  /// Size of the whole image in bytes.
  std::size_t size() const { return bytes_.size(); }
  const std::vector<SectionEntry>& sections() const { return entries_; }
  bool has(std::uint32_t id) const;
  /// Payload of a section; throws SnapshotError if absent.
  std::span<const std::uint8_t> section(std::uint32_t id) const;

 private:
  ContainerReader() = default;
  std::vector<std::uint8_t> bytes_;
  std::vector<SectionEntry> entries_;
  std::uint32_t version_ = 0;
};

}  // namespace rp::io
