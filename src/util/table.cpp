#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace rp::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("TextTable: row width mismatch");
  rows_.push_back(std::move(cells));
}

void TextTable::render(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_cell = [&](const std::string& s, std::size_t c) {
    const std::size_t pad = widths[c] - s.size();
    if (c > 0) os << std::string(pad, ' ') << s;
    else os << s << std::string(pad, ' ');
  };
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << " | ";
      emit_cell(row[c], c);
    }
    os << '\n';
  };

  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) os << "-+-";
    os << std::string(widths[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string fmt_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_rate_bps(double bps) {
  char buf[64];
  if (bps >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f Gbps", bps / 1e9);
  } else if (bps >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f Mbps", bps / 1e6);
  } else if (bps >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2f Kbps", bps / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f bps", bps);
  }
  return buf;
}

std::string fmt_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace rp::util
