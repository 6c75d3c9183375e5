// Small string helpers shared across modules (parsing of dotted-quad
// addresses, rendering of identifiers, etc.) and the canonical text the
// digests are computed over.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rp::util {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// True if `s` consists only of decimal digits (and is non-empty).
bool is_all_digits(std::string_view s);

/// Parses a non-negative decimal integer; returns false on overflow or
/// non-digit input.
bool parse_u32(std::string_view s, unsigned long& out);

/// Parses all of `s` as a T with std::from_chars: no whitespace, no '+', no
/// trailing text, no out-of-range value. nullopt otherwise.
template <class T>
std::optional<T> parse_exact(std::string_view s) {
  T out{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return out;
}

/// Splits on runs of ASCII whitespace, dropping empty tokens: the tokenizer
/// of the line grammars (sweep specs, timelines).
std::vector<std::string> split_tokens(std::string_view text);

/// The canonical spelling of a double: "%.10g". Config fields, sweep and
/// timeline values, result rows and wire responses all print through it, so
/// one value has one spelling and the digests over that text are stable.
std::string format_double(double v);

}  // namespace rp::util
