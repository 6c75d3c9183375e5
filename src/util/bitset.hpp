// A compact dynamic bitset.
//
// The offload analysis works with coverage sets — "which transit endpoints
// does peering at IXP X cover?" — over a few thousand networks, unioned and
// differenced repeatedly inside a greedy loop. A word-packed bitset keeps
// that loop cache-friendly.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace rp::util {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }

  // The per-bit accessors sit inside the greedy loop's innermost scans, so
  // bounds are asserted in debug builds only; callers own the range.
  void set(std::size_t i) {
    assert(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  bool test(std::size_t i) const {
    assert(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }
  bool any() const {
    for (std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }
  bool none() const { return !any(); }

  DynamicBitset& operator|=(const DynamicBitset& other) {
    check_same(other);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }
  DynamicBitset& operator&=(const DynamicBitset& other) {
    check_same(other);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }
  /// Removes the bits set in `other` (set difference).
  DynamicBitset& subtract(const DynamicBitset& other) {
    check_same(other);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] &= ~other.words_[i];
    return *this;
  }

  /// Number of bits set in (*this & other) without materializing it.
  std::size_t intersection_count(const DynamicBitset& other) const {
    check_same(other);
    std::size_t n = 0;
    for (std::size_t i = 0; i < words_.size(); ++i)
      n += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
    return n;
  }

  /// Calls fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Calls fn(index) for every bit set in (*this & other), ascending,
  /// without materializing the intersection.
  template <typename Fn>
  void for_each_intersection(const DynamicBitset& other, Fn&& fn) const {
    check_same(other);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w] & other.words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  bool operator==(const DynamicBitset&) const = default;

  /// The packed word storage, for serialization (rp::io snapshots).
  std::span<const std::uint64_t> words() const { return words_; }

  /// Rebuilds a bitset from packed words (the inverse of words()). Throws
  /// std::invalid_argument if the word count does not match `bits` or any
  /// bit beyond `bits` is set.
  static DynamicBitset from_words(std::size_t bits,
                                  std::vector<std::uint64_t> words) {
    if (words.size() != (bits + 63) / 64)
      throw std::invalid_argument("DynamicBitset::from_words: word count");
    if (bits % 64 != 0 && !words.empty() &&
        (words.back() >> (bits % 64)) != 0)
      throw std::invalid_argument(
          "DynamicBitset::from_words: stray bits beyond size");
    DynamicBitset out;
    out.bits_ = bits;
    out.words_ = std::move(words);
    return out;
  }

 private:
  void check_same(const DynamicBitset& other) const {
    if (bits_ != other.bits_)
      throw std::invalid_argument("DynamicBitset: size mismatch");
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rp::util
