// The run ledger: the on-disk bookkeeping that makes a multi-item study
// resumable. rpsweep (one item per grid run) and rpevolve (one item per
// epoch) keep their directories through it and differ only in the names of
// a LedgerFormat and in the rows they record. With tool "rpsweep" and unit
// "run":
//
//   <dir>/manifest.txt         "rpsweep-manifest v1", "digest <hex>",
//                              "runs <count>", "spec", then the canonical
//                              study text (enough to resume on its own)
//   <dir>/runs/run-<i>.rec     "rpsweep-record v1 <digest> <i>", the item's
//                              CSV row, the item's JSON row
//   <dir>/results.csv, .json   the rows collated in index order
//
// Every file goes through io::write_file_atomic, so a killed study leaves
// only whole files behind. A record counts only when its header names the
// current digest and index: a stale or damaged record reads as missing and
// its item is redone, never collated.
//
// A study's results table declares its columns once, in the function that
// fills a LedgerRow: the row renders the CSV line, the JSON object and the
// CSV header from that one list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace rp::io {

/// The names that set one kind of study directory apart (string literals).
struct LedgerFormat {
  const char* tool;         ///< "rpsweep": manifest/record/results tag.
  const char* study;        ///< "sweep": the noun in error messages.
  const char* unit;         ///< "run": one recorded item.
  const char* block;        ///< "spec": the manifest's study-text block.
  int record_digits;        ///< Zero-padded width of record indices.
  int schema;               ///< Results-table schema version.
  const char* start_hint;   ///< How to create the manifest.
  const char* finish_hint;  ///< How to finish an incomplete study.
};

/// A manifest as read back: its declared identity and the study text.
struct LedgerManifest {
  std::string digest;
  std::size_t count = 0;
  std::string block;
};

/// One results-table row, rendered as the record's CSV line and JSON object
/// at once, plus the CSV header that names its columns. Doubles print through
/// util::format_double (%.10g), so rows are byte-stable; text is written to
/// the CSV as is and JSON-escaped in the object.
class LedgerRow {
 public:
  LedgerRow& count(std::string_view name, std::uint64_t value);
  LedgerRow& number(std::string_view name, double value);
  LedgerRow& text(std::string_view name, std::string_view value);
  /// "1"/"0" in the CSV, true/false in the JSON.
  LedgerRow& flag(std::string_view name, bool value);
  /// Columns added until end_object() stay flat in the CSV and nest in the
  /// JSON as one object under `key`.
  LedgerRow& begin_object(std::string_view key);
  LedgerRow& end_object();

  const std::string& header() const { return header_; }
  const std::string& csv() const { return csv_; }
  std::string json() const { return json_ + "}"; }

 private:
  LedgerRow& add(std::string_view name, std::string_view csv,
                 std::string_view json);
  void key(std::string_view name);

  std::string header_;
  std::string csv_;
  std::string json_ = "{";
  bool first_member_ = true;
};

/// One completion record's rows.
struct LedgerRecord {
  std::string csv;
  std::string json;
};

class RunLedger {
 public:
  RunLedger(const LedgerFormat& format, std::filesystem::path dir);

  std::filesystem::path manifest() const { return dir_ / "manifest.txt"; }
  std::filesystem::path records_dir() const;
  std::filesystem::path record(std::size_t index) const;
  std::filesystem::path results_csv() const { return dir_ / "results.csv"; }
  std::filesystem::path results_json() const { return dir_ / "results.json"; }

  /// Writes the manifest, creating the directory.
  void write_manifest(std::string_view digest, std::size_t count,
                      std::string_view block) const;
  /// Throws std::runtime_error when the manifest is missing or a header line
  /// is malformed (a count must be all digits).
  LedgerManifest read_manifest() const;
  /// Throws std::runtime_error unless the study parsed from `declared.block`
  /// has the declared digest and count: a hand-edited block must not
  /// silently redefine a study.
  void check_manifest(const LedgerManifest& declared, std::string_view digest,
                      std::size_t count) const;

  void write_record(std::string_view digest, std::size_t index,
                    std::string_view csv, std::string_view json) const;
  /// nullopt when the record is missing, malformed, or written for another
  /// digest or index.
  std::optional<LedgerRecord> read_record(std::string_view digest,
                                          std::size_t index) const;
  /// Items in [0, count) with a valid record.
  std::size_t completed(std::string_view digest, std::size_t count) const;

  /// Collates the records of items [0, count) into results.csv (under
  /// `csv_header`, a LedgerRow's header()) and results.json and returns
  /// `count`. Throws std::runtime_error naming the first item without a
  /// record.
  std::size_t collate(std::string_view digest, std::size_t count,
                      std::string_view name,
                      std::string_view csv_header) const;

 private:
  std::string record_header(std::string_view digest, std::size_t index) const;

  LedgerFormat format_;
  std::filesystem::path dir_;
};

}  // namespace rp::io
