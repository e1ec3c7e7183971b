// Flat per-node AODV state: the RREQ duplicate cache and the route table.
//
// Every node keeps a few hundred entries in each, and flooding touches both
// on every RREQ heard, so they are the hottest per-node state in large
// worlds. Both live in one contiguous allocation each instead of a
// node-based tree. Neither changes what the protocol observes: the seen set
// answers membership only (it has no iteration, so its hash layout cannot
// reach any output), and the route table iterates in ascending NodeId order
// exactly as the std::map it replaced did (DESIGN.md §9, §11).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace icc::aodv {

/// Set of (originator, rreq_id) pairs already processed — AODV's RREQ
/// duplicate suppression. Open addressing with linear probing over the
/// packed key `orig << 32 | rreq_id` in a power-of-two table kept at most
/// half full. The all-ones key doubles as the empty-slot marker; a forged
/// RREQ can carry it, so it is tracked by a flag instead of a slot.
// icc:affinity(node)
class RreqSeenSet {
 public:
  /// Adds (orig, rreq_id). Returns false if it was already present.
  bool insert(sim::NodeId orig, std::uint32_t rreq_id) {
    const std::uint64_t key = pack(orig, rreq_id);
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      ++size_;
      return true;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = slot_of(key);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Forgets every entry; the table keeps its capacity.
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
    has_empty_key_ = false;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  static std::uint64_t pack(sim::NodeId orig, std::uint32_t rreq_id) noexcept {
    return (std::uint64_t{orig} << 32) | rreq_id;
  }

  /// Fibonacci hashing: the top bits of key * 2^64/phi index the table.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? kMinCapacity : 2 * old.size();
    slots_.assign(capacity, kEmpty);
    shift_ = 64 - std::countr_zero(capacity);
    for (const std::uint64_t key : old) {
      if (key == kEmpty) continue;
      std::size_t i = slot_of(key);
      while (slots_[i] != kEmpty) i = (i + 1) & (capacity - 1);
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_{0};  ///< entries, the flagged all-ones key included
  int shift_{64};        ///< 64 - log2(capacity)
  bool has_empty_key_{false};
};

struct RouteEntry {
  sim::NodeId next_hop{sim::kNoNode};
  std::uint32_t hop_count{0};
  std::uint32_t dest_seq{0};
  bool seq_known{false};
  bool valid{false};
  sim::Time expires{0.0};
};

/// Routing table keyed by destination: a vector of (dest, entry) pairs kept
/// sorted by NodeId. Lookup is a binary search; iteration runs in ascending
/// NodeId order, which RERR payloads rely on for their wire bytes.
///
/// Iterator and reference rule: operator[] inserts in the middle of the
/// vector, which moves later entries and may reallocate. No iterator,
/// pointer or reference into the table may be held across a call that can
/// reach operator[] (in Aodv: update_route). Never write an entry's key.
// icc:affinity(node)
class RouteTable {
 public:
  using value_type = std::pair<sim::NodeId, RouteEntry>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator find(sim::NodeId dest) { return find_in(entries_, dest); }
  [[nodiscard]] const_iterator find(sim::NodeId dest) const { return find_in(entries_, dest); }

  /// The entry for `dest`, default-constructed and inserted if absent.
  RouteEntry& operator[](sim::NodeId dest) {
    auto it = lower_bound_in(entries_, dest);
    if (it == entries_.end() || it->first != dest) it = entries_.emplace(it, dest, RouteEntry{});
    return it->second;
  }

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  template <typename Vec>
  static auto lower_bound_in(Vec& entries, sim::NodeId dest) -> decltype(entries.begin()) {
    return std::lower_bound(entries.begin(), entries.end(), dest,
                            [](const value_type& e, sim::NodeId d) { return e.first < d; });
  }
  template <typename Vec>
  static auto find_in(Vec& entries, sim::NodeId dest) -> decltype(entries.begin()) {
    const auto it = lower_bound_in(entries, dest);
    return it != entries.end() && it->first == dest ? it : entries.end();
  }

  std::vector<value_type> entries_;
};

}  // namespace icc::aodv
