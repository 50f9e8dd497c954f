#ifndef KSP_CORE_VERTEX_MASK_TABLE_H_
#define KSP_CORE_VERTEX_MASK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ksp {

/// Flat open-addressed map VertexId -> uint64_t keyword bitmask — the
/// M_q.ψ lookup of §3 on the BFS hot path (DESIGN.md §13). Linear
/// probing over two parallel arrays replaces the node-based hash map:
/// one probe is typically one cache line, and a miss (the overwhelmingly
/// common case — most visited vertices cover no keyword) terminates on
/// the first empty slot.
///
/// Write phase (PrepareContext) then read-only: Find is const.
class VertexMaskTable {
 public:
  VertexMaskTable() = default;

  /// Drops every entry; Find returns 0 for all keys until the next
  /// OrInsert. Keeps no storage.
  void Clear() {
    keys_.clear();
    masks_.clear();
    present_.clear();
    capacity_mask_ = 0;
    size_ = 0;
  }

  /// Clears and pre-sizes for `expected_keys` distinct keys (load factor
  /// <= 0.5, so inserts up to that count never rehash). When the key
  /// universe is known (`universe` > 0: keys are dense ids
  /// < `universe`), also builds a one-bit-per-key presence filter so
  /// the overwhelmingly common negative Find — most BFS pops cover no
  /// keyword — is answered by a single L1 load instead of a hash probe.
  void Reset(size_t expected_keys, size_t universe = 0) {
    size_t cap = 16;
    while (cap < expected_keys * 2) cap <<= 1;
    keys_.assign(cap, kInvalidVertex);
    masks_.assign(cap, 0);
    present_.assign(universe == 0 ? 0 : (universe + 63) / 64, 0);
    capacity_mask_ = cap - 1;
    size_ = 0;
  }

  /// ORs `bits` into v's mask, inserting v if absent. kInvalidVertex is
  /// the empty-slot sentinel and must never be a key (vertex ids are
  /// dense and < num_vertices, so it cannot appear in a posting list).
  void OrInsert(VertexId v, uint64_t bits) {
    if (keys_.empty() || (size_ + 1) * 2 > keys_.size()) Grow();
    const size_t slot = ProbeFor(v);
    if (keys_[slot] == kInvalidVertex) {
      keys_[slot] = v;
      ++size_;
    }
    masks_[slot] |= bits;
    if (!present_.empty()) present_[v >> 6] |= uint64_t{1} << (v & 63);
  }

  /// v's keyword mask, 0 if v covers no query keyword.
  uint64_t Find(VertexId v) const {
    if (!present_.empty()) {
      if ((present_[v >> 6] & (uint64_t{1} << (v & 63))) == 0) return 0;
    } else if (keys_.empty()) {
      return 0;
    }
    size_t slot = HashOf(v) & capacity_mask_;
    while (true) {
      const VertexId k = keys_[slot];
      if (k == v) return masks_[slot];
      if (k == kInvalidVertex) return 0;
      slot = (slot + 1) & capacity_mask_;
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return keys_.size(); }

 private:
  static size_t HashOf(VertexId v) {
    // Fibonacci multiplicative hash; the high product bits are the
    // well-mixed ones for a power-of-two table.
    return static_cast<size_t>(
        (uint64_t{v} * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// First slot holding v, or the empty slot where v belongs.
  size_t ProbeFor(VertexId v) const {
    size_t slot = HashOf(v) & capacity_mask_;
    while (keys_[slot] != kInvalidVertex && keys_[slot] != v) {
      slot = (slot + 1) & capacity_mask_;
    }
    return slot;
  }

  void Grow() {
    std::vector<VertexId> old_keys = std::move(keys_);
    std::vector<uint64_t> old_masks = std::move(masks_);
    const size_t cap = old_keys.empty() ? 16 : old_keys.size() * 2;
    keys_.assign(cap, kInvalidVertex);
    masks_.assign(cap, 0);
    capacity_mask_ = cap - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kInvalidVertex) {
        const size_t slot = ProbeFor(old_keys[i]);
        keys_[slot] = old_keys[i];
        masks_[slot] = old_masks[i];
        ++size_;
      }
    }
  }

  std::vector<VertexId> keys_;
  std::vector<uint64_t> masks_;
  /// One bit per universe key (empty when the universe was not given):
  /// bit v set iff v is in the table. For query-sized tables this is a
  /// few KB that stay L1-resident across the whole BFS.
  std::vector<uint64_t> present_;
  size_t capacity_mask_ = 0;  // keys_.size() - 1 when non-empty
  size_t size_ = 0;
};

}  // namespace ksp

#endif  // KSP_CORE_VERTEX_MASK_TABLE_H_
