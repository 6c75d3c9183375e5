#include "io/container.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <limits>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace rp::io {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// Bytes per section-table entry: id, reserved, offset, size, checksum.
constexpr std::size_t kEntryBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kHeaderBytes = kMagic.size() + 4 + 4;

/// The one temp-file-plus-rename behind write_file_atomic and
/// write_bytes_atomic. `crash` is the io.write site when its throw action
/// fired: only half of `data` reaches the temp file, and the site raises
/// before the rename.
void commit_atomic(std::string_view data, const std::filesystem::path& path,
                   fault::Site* crash) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  try {
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr)
      throw SnapshotError("cannot open " + tmp.string() + " for writing",
                          SnapshotErrorClass::kIo);
    const std::size_t size = crash != nullptr ? data.size() / 2 : data.size();
    const bool written = std::fwrite(data.data(), 1, size, file) == size &&
                         std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    if (std::fclose(file) != 0 || !written)
      throw SnapshotError("short write to " + tmp.string(),
                          SnapshotErrorClass::kIo);
    if (crash != nullptr) crash->raise();
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
      throw SnapshotError("cannot rename " + tmp.string() + " over " +
                              path.string() + ": " + ec.message(),
                          SnapshotErrorClass::kIo);
  } catch (...) {
    // Whatever failed, never leave a partial temp file next to the target.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  // Make the rename itself durable. Filesystems that cannot sync a
  // directory report EINVAL; there is nothing more to do on those.
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = fd >= 0 && (::fsync(fd) == 0 || errno == EINVAL);
  if (fd >= 0) ::close(fd);
  if (!synced)
    throw SnapshotError("cannot fsync directory " + dir.string(),
                        SnapshotErrorClass::kIo);
}

}  // namespace

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::uint64_t fnv1a64_accumulate(std::uint64_t state,
                                 std::span<const std::uint8_t> data) {
  for (std::uint8_t b : data) {
    state ^= b;
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  return fnv1a64_accumulate(kFnvOffset, data);
}

std::uint64_t fnv1a64(std::string_view text) {
  return fnv1a64(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()));
}

// --- ByteWriter --------------------------------------------------------------

void ByteWriter::u32_fixed(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::u64_fixed(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::varint(std::uint64_t v) {
  util::varint_encode(bytes_, v);
}

void ByteWriter::svarint(std::int64_t v) { varint(util::zigzag_encode(v)); }

void ByteWriter::f64(double v) { u64_fixed(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

// --- ByteReader --------------------------------------------------------------

void ByteReader::underrun() const {
  throw SnapshotError(
      "snapshot " + context_ + ": truncated (read past end of section)",
      SnapshotErrorClass::kTruncated);
}

std::uint8_t ByteReader::u8() {
  if (pos_ >= data_.size()) underrun();
  return data_[pos_++];
}

std::uint32_t ByteReader::u32_fixed() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8)
    v |= static_cast<std::uint32_t>(u8()) << shift;
  return v;
}

std::uint64_t ByteReader::u64_fixed() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(u8()) << shift;
  return v;
}

std::uint64_t ByteReader::varint() {
  const util::VarintResult r = util::varint_decode(data_.subspan(pos_));
  switch (r.status) {
    case util::VarintStatus::kTruncated:
      underrun();
    case util::VarintStatus::kOverflow:
      throw SnapshotError("snapshot " + context_ +
                          ": varint overflows (or exceeds 10 bytes)");
    case util::VarintStatus::kOk:
      break;
  }
  pos_ += r.consumed;
  return r.value;
}

std::int64_t ByteReader::svarint() { return util::zigzag_decode(varint()); }

double ByteReader::f64() { return std::bit_cast<double>(u64_fixed()); }

std::string ByteReader::str() {
  const std::uint64_t n = varint();
  if (n > remaining()) underrun();
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::size_t ByteReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = varint();
  // Divide rather than multiply: n * min_element_bytes can overflow.
  if (n > remaining() / min_element_bytes)
    throw SnapshotError("snapshot " + context_ + ": list count " +
                        std::to_string(n) + " exceeds section size");
  return static_cast<std::size_t>(n);
}

void ByteReader::expect_end() const {
  if (pos_ != data_.size())
    throw SnapshotError("snapshot " + context_ + ": " +
                        std::to_string(data_.size() - pos_) +
                        " trailing bytes after decode");
}

// --- ContainerWriter ---------------------------------------------------------

void ContainerWriter::add_section(std::uint32_t id,
                                  std::vector<std::uint8_t> payload) {
  for (const auto& s : sections_)
    if (s.id == id)
      throw SnapshotError("container: duplicate section id " +
                          std::to_string(id));
  sections_.push_back(Pending{id, std::move(payload)});
}

std::vector<std::uint8_t> ContainerWriter::serialize() const {
  ByteWriter out;
  for (std::uint8_t b : kMagic) out.u8(b);
  out.u32_fixed(kFormatVersion);
  out.u32_fixed(static_cast<std::uint32_t>(sections_.size()));
  std::uint64_t offset = kHeaderBytes + kEntryBytes * sections_.size();
  for (const auto& s : sections_) {
    out.u32_fixed(s.id);
    out.u32_fixed(0);  // Reserved.
    out.u64_fixed(offset);
    out.u64_fixed(s.payload.size());
    out.u64_fixed(fnv1a64(s.payload));
    offset += s.payload.size();
  }
  std::vector<std::uint8_t> bytes = std::move(out).take();
  bytes.reserve(offset);
  for (const auto& s : sections_)
    bytes.insert(bytes.end(), s.payload.begin(), s.payload.end());
  return bytes;
}

void write_file_atomic(std::string_view content,
                       const std::filesystem::path& path) {
  commit_atomic(content, path, nullptr);
}

void write_bytes_atomic(std::span<const std::uint8_t> bytes,
                        const std::filesystem::path& path) {
  // io.write decides up front: a corruption action writes a complete-but-
  // corrupt image (the read side must catch it via checksums), while a throw
  // action simulates a crash after half the bytes hit the temp file — the
  // rename must never happen and the temp file must not linger.
  static fault::Site site(fault::kSiteIoWrite);
  std::span<const std::uint8_t> to_write = bytes;
  std::vector<std::uint8_t> corrupted;
  fault::Site* crash = nullptr;
  if (auto action = site.fire()) {
    if (*action == fault::Action::kThrow) {
      crash = &site;
    } else {
      corrupted.assign(bytes.begin(), bytes.end());
      site.apply(*action, corrupted);
      to_write = corrupted;
    }
  }
  commit_atomic(std::string_view(reinterpret_cast<const char*>(to_write.data()),
                                 to_write.size()),
                path, crash);
  static obs::Counter written("rp.io.bytes_written");
  written.add(to_write.size());
}

void ContainerWriter::write_file_atomic(
    const std::filesystem::path& path) const {
  write_bytes_atomic(serialize(), path);
}

// --- ContainerReader ---------------------------------------------------------

ContainerReader ContainerReader::from_bytes(std::vector<std::uint8_t> bytes) {
  ContainerReader reader;
  reader.bytes_ = std::move(bytes);
  const auto& data = reader.bytes_;
  if (data.size() < kHeaderBytes)
    throw SnapshotError("snapshot header: file too small (" +
                            std::to_string(data.size()) + " bytes)",
                        SnapshotErrorClass::kTruncated);
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (data[i] != kMagic[i])
      throw SnapshotError("snapshot header: bad magic (not a snapshot file)");
  const std::span<const std::uint8_t> whole(data);
  ByteReader header(whole.subspan(kMagic.size()), "header");
  reader.version_ = header.u32_fixed();
  if (reader.version_ > kFormatVersion)
    throw SnapshotError(
        "snapshot header: format version " + std::to_string(reader.version_) +
            " is newer than supported version " +
            std::to_string(kFormatVersion),
        SnapshotErrorClass::kVersion);
  const std::uint32_t count = header.u32_fixed();
  if (data.size() < kHeaderBytes + kEntryBytes * std::uint64_t{count})
    throw SnapshotError("snapshot header: section table truncated",
                        SnapshotErrorClass::kTruncated);
  ByteReader table(
      whole.subspan(kHeaderBytes, kEntryBytes * std::size_t{count}),
      "section table");
  reader.entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionEntry entry;
    entry.id = table.u32_fixed();
    table.u32_fixed();  // Reserved.
    entry.offset = table.u64_fixed();
    entry.size = table.u64_fixed();
    entry.checksum = table.u64_fixed();
    if (entry.offset > data.size() || entry.size > data.size() - entry.offset)
      throw SnapshotError("snapshot section " + std::to_string(entry.id) +
                              ": payload extends past end of file (truncated?)",
                          SnapshotErrorClass::kTruncated);
    for (const auto& prior : reader.entries_)
      if (prior.id == entry.id)
        throw SnapshotError("snapshot section table: duplicate section id " +
                            std::to_string(entry.id));
    reader.entries_.push_back(entry);
  }

  // Verify every checksum up front (in parallel) so no decoder ever touches
  // corrupt bytes. parallel_for rethrows the first failure. The io.verify
  // fault site fires per section and always throws (the payload span is
  // read-only here), which doubles as coverage for an exception escaping a
  // pool task mid-verification.
  static fault::Site verify_site(fault::kSiteIoVerify);
  util::ThreadPool::global().parallel_for(
      reader.entries_.size(), [&reader](std::size_t i) {
        verify_site.maybe_throw();
        const SectionEntry& entry = reader.entries_[i];
        const auto payload = std::span(reader.bytes_)
                                 .subspan(entry.offset, entry.size);
        const std::uint64_t actual = fnv1a64(payload);
        if (actual != entry.checksum)
          throw SnapshotError(
              "snapshot section " + std::to_string(entry.id) +
              ": checksum mismatch (stored " + digest_hex(entry.checksum) +
              ", computed " + digest_hex(actual) + ") — file is corrupt");
      });
  static obs::Counter verifies("rp.io.checksum.verifies");
  verifies.add(reader.entries_.size());
  return reader;
}

ContainerReader ContainerReader::from_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw SnapshotError("cannot open " + path.string(),
                        SnapshotErrorClass::kIo);
  std::vector<std::uint8_t> bytes;
  is.seekg(0, std::ios::end);
  const auto size = is.tellg();
  if (size < 0)
    throw SnapshotError("cannot stat " + path.string(),
                        SnapshotErrorClass::kIo);
  bytes.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!is)
    throw SnapshotError("short read from " + path.string(),
                        SnapshotErrorClass::kIo);
  static fault::Site read_site(fault::kSiteIoRead);
  read_site.maybe_corrupt(bytes);
  static obs::Counter read("rp.io.bytes_read");
  read.add(bytes.size());
  return from_bytes(std::move(bytes));
}

bool ContainerReader::has(std::uint32_t id) const {
  for (const auto& entry : entries_)
    if (entry.id == id) return true;
  return false;
}

std::span<const std::uint8_t> ContainerReader::section(std::uint32_t id) const {
  for (const auto& entry : entries_)
    if (entry.id == id)
      return std::span(bytes_).subspan(entry.offset, entry.size);
  throw SnapshotError("snapshot: missing required section " +
                      std::to_string(id));
}

}  // namespace rp::io
