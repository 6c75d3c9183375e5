#include "util/strings.hpp"

#include <cctype>
#include <cstdio>

namespace rp::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool is_all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s)
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  return true;
}

bool parse_u32(std::string_view s, unsigned long& out) {
  if (!is_all_digits(s)) return false;
  unsigned long value = 0;
  for (char c : s) {
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (value > (0xFFFFFFFFUL - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

std::vector<std::string> split_tokens(std::string_view text) {
  std::vector<std::string> tokens;
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) tokens.emplace_back(text.substr(start, i - start));
  }
  return tokens;
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", v);
  return buffer;
}

}  // namespace rp::util
