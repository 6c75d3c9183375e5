// A binary (radix-1) trie over IPv4 prefixes with longest-prefix matching.
//
// The BGP substrate stores the vantage's routing table in this structure,
// keyed by originated prefix, so an address resolves to its origin AS by
// longest-prefix match.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "net/ip.hpp"

namespace rp::net {

/// Maps IPv4 prefixes to values of type T with exact and longest-prefix
/// lookups. Not thread-safe; wrap externally if shared.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or overwrites the value at `prefix`. Returns true if the prefix
  /// was newly inserted, false if an existing value was replaced.
  bool insert(const Ipv4Prefix& prefix, T value) {
    Node* node = descend_create(prefix);
    const bool fresh = !node->value.has_value();
    node->value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  /// Removes the value at exactly `prefix`. Returns true if present.
  bool erase(const Ipv4Prefix& prefix) {
    Node* node = descend_find(prefix);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Exact-match lookup.
  const T* find(const Ipv4Prefix& prefix) const {
    const Node* node = descend_find(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value
                                                        : nullptr;
  }
  T* find(const Ipv4Prefix& prefix) {
    return const_cast<T*>(std::as_const(*this).find(prefix));
  }

  /// Longest-prefix match for an address; nullptr if no covering prefix.
  const T* lookup(Ipv4Addr addr) const {
    const Node* node = root_.get();
    const T* best = node->value ? &*node->value : nullptr;
    const std::uint32_t bits = addr.to_u32();
    for (unsigned depth = 0; depth < 32 && node != nullptr; ++depth) {
      const unsigned bit = (bits >> (31 - depth)) & 1;
      node = node->child[bit].get();
      if (node != nullptr && node->value) best = &*node->value;
    }
    return best;
  }

  /// As `lookup`, but also reports the matching prefix.
  struct Match {
    Ipv4Prefix prefix;
    const T* value;
  };
  std::optional<Match> lookup_match(Ipv4Addr addr) const {
    const Node* node = root_.get();
    std::optional<Match> best;
    if (node->value) best = Match{Ipv4Prefix::make(Ipv4Addr{0}, 0), &*node->value};
    const std::uint32_t bits = addr.to_u32();
    std::uint32_t accum = 0;
    for (unsigned depth = 0; depth < 32 && node != nullptr; ++depth) {
      const unsigned bit = (bits >> (31 - depth)) & 1;
      accum |= static_cast<std::uint32_t>(bit) << (31 - depth);
      node = node->child[bit].get();
      if (node != nullptr && node->value) {
        best = Match{Ipv4Prefix::make(Ipv4Addr{accum}, depth + 1),
                     &*node->value};
      }
    }
    return best;
  }

  /// Visits every (prefix, value) pair in lexicographic prefix order.
  void for_each(
      const std::function<void(const Ipv4Prefix&, const T&)>& fn) const {
    walk(root_.get(), 0, 0, fn);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Node {
    std::optional<T> value;
    std::array<std::unique_ptr<Node>, 2> child;
  };

  Node* descend_create(const Ipv4Prefix& prefix) {
    Node* node = root_.get();
    const std::uint32_t bits = prefix.network().to_u32();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const unsigned bit = (bits >> (31 - depth)) & 1;
      if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
      node = node->child[bit].get();
    }
    return node;
  }

  const Node* descend_find(const Ipv4Prefix& prefix) const {
    const Node* node = root_.get();
    const std::uint32_t bits = prefix.network().to_u32();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const unsigned bit = (bits >> (31 - depth)) & 1;
      node = node->child[bit].get();
      if (node == nullptr) return nullptr;
    }
    return node;
  }
  Node* descend_find(const Ipv4Prefix& prefix) {
    return const_cast<Node*>(std::as_const(*this).descend_find(prefix));
  }

  void walk(const Node* node, std::uint32_t accum, unsigned depth,
            const std::function<void(const Ipv4Prefix&, const T&)>& fn) const {
    if (node == nullptr) return;
    if (node->value)
      fn(Ipv4Prefix::make(Ipv4Addr{accum}, depth), *node->value);
    if (depth == 32) return;
    walk(node->child[0].get(), accum, depth + 1, fn);
    walk(node->child[1].get(),
         accum | (std::uint32_t{1} << (31 - depth)), depth + 1, fn);
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace rp::net
