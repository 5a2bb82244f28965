// LabelInterner: append-only string -> u32 id table with lock-free reads.
//
// Fleet-scale registries hang millions of label sets off a handful of
// distinct strings ("device", "transport", per-entity id values). The
// interner stores each distinct string once and hands out a dense u32
// id; hot-path registration and per-entity label sets then carry ids
// instead of allocating and comparing strings, and the registry keys its
// entries by id sequences (see registry.hpp).
//
// Concurrency contract:
//   * intern() — lock-free fast path when the string is already known
//     (probe a published open-addressed table); takes the writer mutex
//     only on a miss to append. Ids are dense, starting at 0, and never
//     change or disappear.
//   * str(id) / size() — always lock-free: storage is block-based (no
//     reallocation ever moves a published string) and the element count
//     is released after the string is fully constructed.
//
// Id 0 is always the empty string, so "no help text" needs no sentinel.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

class LabelInterner {
 public:
  LabelInterner();

  LabelInterner(const LabelInterner&) = delete;
  LabelInterner& operator=(const LabelInterner&) = delete;

  /// Find-or-append. Throws std::length_error past kMaxStrings distinct
  /// strings (2^22 — a capacity backstop, not a tuning knob).
  std::uint32_t intern(std::string_view s) PROBEMON_EXCLUDES(write_mutex_);

  /// Lock-free id -> string. `id` must have come from intern(); an
  /// out-of-range id returns an empty view.
  std::string_view str(std::uint32_t id) const noexcept;

  /// Distinct strings interned so far (lock-free).
  std::size_t size() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Process-wide interner. Registries default to this one so ids are
  /// comparable across registries (merge, collector, sweep workers).
  static LabelInterner& global();

  static constexpr std::size_t kMaxStrings = std::size_t{1} << 22;

 private:
  static constexpr std::size_t kBlockShift = 10;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::size_t kMaxBlocks = kMaxStrings / kBlockSize;

  struct Block {
    std::string slots[kBlockSize];
  };

  /// Open-addressed id table (slot = id + 1, 0 = empty). Grown by
  /// publishing a rehashed copy; old tables are retired, not freed,
  /// so lock-free readers never race a destructor.
  struct Table {
    explicit Table(std::size_t cap)
        : capacity(cap),
          slots(std::make_unique<std::atomic<std::uint32_t>[]>(cap)) {}
    const std::size_t capacity;  ///< power of two
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
  };

  static std::size_t hash(std::string_view s) noexcept {
    return std::hash<std::string_view>{}(s);
  }

  /// Probe `table` for `s`. Returns id, or UINT32_MAX on miss.
  std::uint32_t find_in(const Table& table, std::string_view s,
                        std::size_t h) const noexcept;
  void insert_slot(Table& table, std::uint32_t id, std::size_t h) noexcept;

  util::Mutex write_mutex_{"telemetry.LabelInterner"};
  // count_/table_/blocks_ are the lock-free publication points (release
  // stores under write_mutex_, acquire loads anywhere) — deliberately
  // not GUARDED_BY; the mutex only serializes writers.
  std::atomic<std::uint32_t> count_{0};
  std::atomic<Table*> table_;
  /// current + retired
  std::vector<std::unique_ptr<Table>> tables_ PROBEMON_GUARDED_BY(write_mutex_);
  std::vector<std::unique_ptr<Block>> block_storage_
      PROBEMON_GUARDED_BY(write_mutex_);
  std::atomic<Block*> blocks_[kMaxBlocks] = {};
};

/// Interned label set: (name id, value id) pairs in registration order.
using LabelIds = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

}  // namespace probemon::telemetry
