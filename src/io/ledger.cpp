#include "io/ledger.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/container.hpp"
#include "obs/json.hpp"
#include "util/strings.hpp"

namespace rp::io {

LedgerRow& LedgerRow::count(std::string_view name, std::uint64_t value) {
  const std::string v = std::to_string(value);
  return add(name, v, v);
}

LedgerRow& LedgerRow::number(std::string_view name, double value) {
  const std::string v = util::format_double(value);
  return add(name, v, v);
}

LedgerRow& LedgerRow::text(std::string_view name, std::string_view value) {
  return add(name, value, "\"" + obs::json::escape(value) + "\"");
}

LedgerRow& LedgerRow::flag(std::string_view name, bool value) {
  return add(name, value ? "1" : "0", value ? "true" : "false");
}

LedgerRow& LedgerRow::begin_object(std::string_view name) {
  key(name);
  json_ += '{';
  first_member_ = true;
  return *this;
}

LedgerRow& LedgerRow::end_object() {
  json_ += '}';
  first_member_ = false;
  return *this;
}

LedgerRow& LedgerRow::add(std::string_view name, std::string_view csv,
                          std::string_view json) {
  if (!header_.empty()) {
    header_ += ',';
    csv_ += ',';
  }
  header_ += name;
  csv_ += csv;
  key(name);
  json_ += json;
  return *this;
}

void LedgerRow::key(std::string_view name) {
  if (!first_member_) json_ += ',';
  first_member_ = false;
  json_ += "\"" + obs::json::escape(name) + "\":";
}

RunLedger::RunLedger(const LedgerFormat& format, std::filesystem::path dir)
    : format_(format), dir_(std::move(dir)) {}

std::filesystem::path RunLedger::records_dir() const {
  return dir_ / (std::string(format_.unit) + "s");
}

std::filesystem::path RunLedger::record(std::size_t index) const {
  char name[64];
  std::snprintf(name, sizeof name, "%s-%0*zu.rec", format_.unit,
                format_.record_digits, index);
  return records_dir() / name;
}

std::string RunLedger::record_header(std::string_view digest,
                                     std::size_t index) const {
  return format_.tool + std::string("-record v1 ") + std::string(digest) +
         " " + std::to_string(index);
}

void RunLedger::write_manifest(std::string_view digest, std::size_t count,
                               std::string_view block) const {
  std::filesystem::create_directories(dir_);
  std::ostringstream out;
  out << format_.tool << "-manifest v1\ndigest " << digest << "\n"
      << format_.unit << "s " << count << "\n"
      << format_.block << "\n"
      << block;
  write_file_atomic(out.str(), manifest());
}

LedgerManifest RunLedger::read_manifest() const {
  const std::string path = manifest().string();
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("no " + std::string(format_.study) +
                             " manifest at " + path + " (run " +
                             format_.start_hint + " first)");
  std::string line;
  if (!std::getline(in, line) ||
      line != format_.tool + std::string("-manifest v1"))
    throw std::runtime_error("unsupported manifest header in " + path);
  LedgerManifest out;
  if (!std::getline(in, line) || line.rfind("digest ", 0) != 0)
    throw std::runtime_error("manifest missing digest line: " + path);
  out.digest = line.substr(7);
  const std::string count_key = format_.unit + std::string("s ");
  if (!std::getline(in, line) || line.rfind(count_key, 0) != 0)
    throw std::runtime_error("manifest missing " + count_key + "line: " +
                             path);
  const auto count = util::parse_exact<std::size_t>(
      std::string_view(line).substr(count_key.size()));
  if (!count)
    throw std::runtime_error("manifest has a bad " + count_key + "count: " +
                             path);
  out.count = *count;
  if (!std::getline(in, line) || line != format_.block)
    throw std::runtime_error("manifest missing " +
                             std::string(format_.block) + " block: " + path);
  std::ostringstream block;
  block << in.rdbuf();
  out.block = block.str();
  return out;
}

void RunLedger::check_manifest(const LedgerManifest& declared,
                               std::string_view digest,
                               std::size_t count) const {
  if (declared.digest != digest)
    throw std::runtime_error("manifest digest mismatch in " +
                             manifest().string() + " (hand-edited " +
                             format_.block + " block?)");
  if (declared.count != count)
    throw std::runtime_error("manifest " + std::string(format_.unit) +
                             " count mismatch in " + manifest().string());
}

void RunLedger::write_record(std::string_view digest, std::size_t index,
                             std::string_view csv,
                             std::string_view json) const {
  write_file_atomic(record_header(digest, index) + "\n" + std::string(csv) +
                        "\n" + std::string(json) + "\n",
                    record(index));
}

std::optional<LedgerRecord> RunLedger::read_record(std::string_view digest,
                                                   std::size_t index) const {
  std::ifstream in(record(index), std::ios::binary);
  std::string header;
  LedgerRecord out;
  if (!std::getline(in, header) || !std::getline(in, out.csv) ||
      !std::getline(in, out.json) || header != record_header(digest, index) ||
      out.csv.empty() || out.json.empty())
    return std::nullopt;
  return out;
}

std::size_t RunLedger::completed(std::string_view digest,
                                 std::size_t count) const {
  std::size_t done = 0;
  for (std::size_t i = 0; i < count; ++i)
    done += read_record(digest, i) ? 1 : 0;
  return done;
}

std::size_t RunLedger::collate(std::string_view digest, std::size_t count,
                               std::string_view name,
                               std::string_view csv_header) const {
  const std::string schema = format_.tool + std::string("-results");
  const std::string version = std::to_string(format_.schema);
  const std::string id(digest);
  std::string csv = "#" + schema + " v" + version + " name=" +
                    std::string(name) + " " + format_.block + "=" + id +
                    " " + format_.unit + "s=" + std::to_string(count) +
                    "\n" + std::string(csv_header) + "\n";
  std::string json = "{\"schema\":\"" + schema + "-v" + version +
                     "\",\"name\":\"" + obs::json::escape(name) + "\",\"" +
                     format_.block + "\":\"" + id + "\",\"rows\":[";
  for (std::size_t i = 0; i < count; ++i) {
    const auto row = read_record(digest, i);
    if (!row)
      throw std::runtime_error(
          format_.study + std::string(" incomplete: ") + format_.unit +
          " " + std::to_string(i) + " has no completion record (" +
          std::to_string(i) + " of " + std::to_string(count) +
          " recorded) — " + format_.finish_hint + " finishes it");
    csv += row->csv + "\n";
    json += (i != 0 ? "," : "") + row->json;
  }
  json += "]}\n";
  write_file_atomic(csv, results_csv());
  write_file_atomic(json, results_json());
  return count;
}

}  // namespace rp::io
