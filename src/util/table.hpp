// Plain-text table rendering for the bench harnesses.
//
// Every bench binary regenerates one of the paper's tables or figures as rows
// of text; this renderer keeps the output aligned.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace rp::util {

/// A simple text table: set headers, append rows of strings, render aligned.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }

  /// Renders with a header rule, the first column left-aligned and the rest
  /// right-aligned (the "name, numbers..." layout), e.g.
  ///   IXP      | members | remote
  ///   ---------+---------+-------
  ///   AMS-IX   |     638 |     41
  void render(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
std::string fmt_double(double v, int digits = 2);

/// Formats a traffic rate in adaptive units (bps/Kbps/Mbps/Gbps).
std::string fmt_rate_bps(double bps);

/// Formats a fraction as a percentage with one decimal, e.g. "27.3%".
std::string fmt_percent(double fraction);

}  // namespace rp::util
