#ifndef LEARNEDSQLGEN_VEXEC_HASH_TABLE_H_
#define LEARNEDSQLGEN_VEXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace lsg {
namespace vexec {

/// Open-addressing hash table for INT64 equi-join build sides. Duplicate
/// keys chain their build rows in insertion order (rows are inserted
/// ascending), so a join emits each probe tuple's matches in build-row
/// order — the reference evaluator's nested-loop order. No engine
/// iterates an unordered container, so no hash or bucket order is part of
/// any result.
///
/// Layout: power-of-two array of 16-byte {key, head, tail} slots, linear
/// probing; duplicates thread through a per-row `next` chain with a tail
/// pointer per slot so append is O(1) and order is preserved. Key and
/// chain head share a cache line, so a probe costs one memory access —
/// with Prefetch() issued a few keys ahead, even that miss overlaps with
/// useful work (the table spans tens of MB at 10⁶-row build sides, far
/// beyond cache).
class Int64JoinHashTable {
 public:
  /// `expected` is the build-side row count (pre-sizes to 2× rounded up to
  /// a power of two, keeping load factor below 0.5).
  explicit Int64JoinHashTable(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, Slot{0, -1, -1});
    chain_row_.reserve(expected);
    chain_next_.reserve(expected);
    mask_ = cap - 1;
  }

  /// Dense-range mode: when the build keys span a range comparable to the
  /// row count (synthetic PK columns are sequential, so every FK edge in
  /// the bundled datasets qualifies) the table degenerates to a
  /// direct-address array — no hashing, no collisions, one bounded-index
  /// load per probe. Chain semantics (insertion order, duplicates) are
  /// identical to the sparse mode. Caller guarantees
  /// `max_key - min_key` fits size_t sanely (see DenseRangeUsable).
  Int64JoinHashTable(int64_t min_key, int64_t max_key, size_t expected)
      : dense_(true), min_key_(min_key), max_key_(max_key) {
    dense_heads_.assign(
        static_cast<size_t>(static_cast<uint64_t>(max_key) -
                            static_cast<uint64_t>(min_key)) + 1,
        -1);
    dense_tails_.assign(dense_heads_.size(), -1);
    chain_row_.reserve(expected);
    chain_next_.reserve(expected);
  }

  /// True when the dense ctor is worth it: keys span at most ~4× the row
  /// count (array stays within 16 bytes/row) and the range arithmetic
  /// cannot overflow.
  static bool DenseRangeUsable(int64_t min_key, int64_t max_key,
                               size_t rows) {
    const uint64_t range = static_cast<uint64_t>(max_key) -
                           static_cast<uint64_t>(min_key);
    return range < (uint64_t{4} * rows + 16);
  }

  /// Inserts one build row and returns its key's chain head, which names
  /// the key's class: rows with equal keys share it. Rows must be inserted
  /// in ascending row order to mirror the reference build loop.
  int32_t Insert(int64_t key, uint32_t row) {
    const int32_t e = static_cast<int32_t>(chain_row_.size());
    chain_row_.push_back(row);
    chain_next_.push_back(-1);
    if (dense_) {
      const size_t i = DenseIndex(key);
      if (dense_heads_[i] < 0) {
        dense_heads_[i] = e;
      } else {
        chain_next_[dense_tails_[i]] = e;
      }
      dense_tails_[i] = e;
      return dense_heads_[i];
    }
    size_t s = Hash(key) & mask_;
    while (slots_[s].head >= 0 && slots_[s].key != key) s = (s + 1) & mask_;
    Slot& slot = slots_[s];
    if (slot.head < 0) {
      slot.key = key;
      slot.head = e;
    } else {
      chain_next_[slot.tail] = e;
    }
    slot.tail = e;
    return slot.head;
  }

  /// Returns the chain head for `key`, or -1 if absent.
  int32_t Find(int64_t key) const {
    if (dense_) {
      if (key < min_key_ || key > max_key_) return -1;
      return dense_heads_[DenseIndex(key)];
    }
    size_t s = Hash(key) & mask_;
    while (slots_[s].head >= 0) {
      if (slots_[s].key == key) return slots_[s].head;
      s = (s + 1) & mask_;
    }
    return -1;
  }

  /// Hints the cache that `key`'s home slot is about to be probed or
  /// inserted. Issued a small distance ahead of the probe loop, this
  /// overlaps the slot fetch with the preceding probes' work.
  void Prefetch(int64_t key) const {
    if (dense_) {
      if (key >= min_key_ && key <= max_key_) {
        __builtin_prefetch(dense_heads_.data() + DenseIndex(key));
      }
      return;
    }
    __builtin_prefetch(slots_.data() + (Hash(key) & mask_));
  }

  /// Chain iteration: row of entry `e`, then the next entry (-1 ends).
  uint32_t Row(int32_t e) const { return chain_row_[e]; }
  int32_t Next(int32_t e) const { return chain_next_[e]; }

  size_t num_entries() const { return chain_row_.size(); }
  bool dense() const { return dense_; }

 private:
  struct Slot {
    int64_t key;
    int32_t head;  ///< first chain entry, -1 = empty slot
    int32_t tail;  ///< last chain entry (build-time append point)
  };

  /// SplitMix64 finalizer — strong enough that linear probing stays short
  /// on sequential PK keys.
  static uint64_t Hash(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t DenseIndex(int64_t key) const {
    return static_cast<size_t>(static_cast<uint64_t>(key) -
                               static_cast<uint64_t>(min_key_));
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> chain_row_;
  std::vector<int32_t> chain_next_;
  size_t mask_ = 0;
  bool dense_ = false;
  int64_t min_key_ = 0;
  int64_t max_key_ = -1;
  std::vector<int32_t> dense_heads_;
  std::vector<int32_t> dense_tails_;
};

}  // namespace vexec
}  // namespace lsg

#endif  // LEARNEDSQLGEN_VEXEC_HASH_TABLE_H_
