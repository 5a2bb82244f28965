// FlatIdMap: a hash map from 32-bit entity ids to small values, laid
// out flat for per-event bookkeeping.
//
// The invariant auditor looks up one record per control point and one
// per device on every protocol event, and scenario::Metrics finds each
// CP's row through one of these. A node-based std::unordered_map
// spends that lookup on a bucket load, a node load and a pointer chase;
// here it is one multiply and, almost always, one cache line:
//
//   * open addressing over a power-of-two slot array, entries stored
//     inline next to their key;
//   * a Fibonacci hash of the id (multiply by 2^64/phi, keep the top
//     bits), so dense ids 1, 2, 3, ... spread over the table and sparse
//     ones (a remote peer's 0xFFFFFFF0) cost one slot, not a dense
//     array up to the id;
//   * linear probing at a load factor of at most 1/2.
//
// Id 0 marks an empty slot, so the entry for id 0 (net::kInvalidNode)
// lives outside the array. Entries are never erased: the auditor's
// tables and the Metrics row index only grow, one record per entity
// seen.
//
// An insert may rehash and move every entry, so a reference from
// operator[] or find() is valid only until the next insert into the
// same map. Every empty slot holds a default-constructed T: keep T
// small and cheap to construct (no allocating members).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace probemon::util {

template <class T>
class FlatIdMap {
 public:
  using Id = std::uint32_t;

  /// The entry for `id`, value-initialized on first use. Invalidates
  /// references to other entries when it inserts.
  T& operator[](Id id) {
    if (id == 0) {
      has_zero_ = true;
      return zero_;
    }
    if (T* found = find(id)) return *found;
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = slots_[slot_of(id)];
    slot.key = id;
    ++size_;
    return slot.value;
  }

  /// The entry for `id`, or null if it was never inserted.
  T* find(Id id) noexcept {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  const T* find(Id id) const noexcept {
    if (id == 0) return has_zero_ ? &zero_ : nullptr;
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[slot_of(id)];
    return slot.key == id ? &slot.value : nullptr;
  }

  /// Entries held, id 0 included.
  std::size_t size() const noexcept { return size_ + (has_zero_ ? 1 : 0); }
  /// Slots in the probe array (a power of two, or 0 before the first
  /// insert); at least twice the entries other than id 0.
  std::size_t slot_count() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    Id key = 0;  ///< 0 = empty
    T value{};
  };

  static constexpr std::size_t kMinSlots = 16;

  /// Index of the slot holding `id`, or of the empty slot where it
  /// would go. The array is never full, so the probe ends.
  std::size_t slot_of(Id id) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].key != id && slots_[i].key != 0) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t count = old.empty() ? kMinSlots : 2 * old.size();
    slots_ = std::vector<Slot>(count);
    shift_ = 64;
    for (std::size_t n = count; n > 1; n >>= 1) --shift_;
    for (Slot& slot : old) {
      if (slot.key != 0) {
        Slot& to = slots_[slot_of(slot.key)];
        to.key = slot.key;
        to.value = std::move(slot.value);
      }
    }
  }

  std::vector<Slot> slots_;
  unsigned shift_ = 64;  ///< 64 - log2(slot count)
  std::size_t size_ = 0;  ///< occupied slots (id 0 excluded)
  bool has_zero_ = false;
  T zero_{};
};

}  // namespace probemon::util
