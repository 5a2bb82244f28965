// Shared storage behind a fleet of devices and control points.
//
// Every entity keeps its own mutable state inside its object (see
// `DeviceState` in device_base.hpp and `CpState` in
// control_point_base.hpp), right after the vptr, so an event that
// touches an entity pays for one object and not for a wrapper plus a
// record elsewhere. The arena holds what is shared across entities:
//
//   * every device's probe service queue is an intrusive list of
//     `QueueNode`s drawn from ONE shared `util::SlabPool` — an idle
//     device costs a 12-byte `ServiceQueue` (head/tail/len) it owns, not
//     a deque, and the pool stops allocating once the busiest moment of
//     the run has passed;
//   * the protocol constants: one shared, reference-counted copy of each
//     distinct config (core/config.hpp). An entity interns the config it
//     reads and keeps a pointer to the copy, so a fleet built from one
//     config holds it once, not once per entity; the last entity using
//     a copy releases it in its destructor;
//   * entity accounting: live and peak device/CP counts, for the
//     telemetry bridge (`probemon_entity_arena_*`) and the benchmarks.
//
// The arena outlives every entity that uses it, and like the entities it
// is confined to its engine's thread.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "check/contract.hpp"
#include "core/config.hpp"
#include "net/message.hpp"
#include "util/slab_pool.hpp"

namespace probemon::core {

/// A config's bit pattern, one word per field of its fields(): doubles
/// by std::bit_cast, so -0.0 and 0.0, or two NaN payloads, differ.
template <class Config>
auto config_bits(const Config& config) noexcept {
  constexpr auto word = [](const auto& field) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(field)>>) {
      return std::bit_cast<std::uint64_t>(field);
    } else {
      return static_cast<std::uint64_t>(field);
    }
  };
  return std::apply(
      [&](const auto&... field) {
        return std::array<std::uint64_t, sizeof...(field)>{word(field)...};
      },
      config.fields());
}

/// One shared, reference-counted copy of each distinct value of a
/// config type. A model that repeats one value finds it as the most
/// recent copy, without hashing its way to it.
template <class Config>
class SharedConfigs {
 public:
  const Config& acquire(const Config& config) {
    const Key key = config_bits(config);
    if (recent_ == nullptr || !same_key(recent_->first, key)) {
      recent_ = &*copies_.try_emplace(key, Copy{config}).first;
    }
    ++recent_->second.users;
    return recent_->second.value;
  }

  /// Drop one use of `copy`, a reference acquire() returned.
  void release(const Config& copy) noexcept {
    Entry* entry = recent_;
    if (entry == nullptr || &entry->second.value != &copy) {
      const auto it = copies_.find(config_bits(copy));
      PROBEMON_CONTRACT(it != copies_.end() && &it->second.value == &copy,
                        "released a config the arena does not hold");
      entry = &*it;
    }
    if (--entry->second.users > 0) return;
    if (entry == recent_) recent_ = nullptr;
    const Key key = entry->first;
    copies_.erase(key);
  }

  /// Distinct values held.
  std::size_t size() const noexcept { return copies_.size(); }

 private:
  using Key = decltype(config_bits(std::declval<const Config&>()));

  /// Word by word: std::array's == calls memcmp, a library call that
  /// each of a fleet's 10^5 interns of one config would pay for.
  static bool same_key(const Key& a, const Key& b) noexcept {
    bool same = true;
    for (std::size_t i = 0; i < a.size(); ++i) same &= a[i] == b[i];
    return same;
  }

  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the words
      for (const std::uint64_t w : key) h = (h ^ w) * 0x100000001b3ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct Copy {
    Config value;
    std::size_t users = 0;
  };
  using Table = std::unordered_map<Key, Copy, KeyHash>;
  using Entry = typename Table::value_type;

  Table copies_;
  Entry* recent_ = nullptr;  ///< the copy acquire() returned last
};

/// One device's FIFO of probes in the arena's shared node pool. While
/// the device is busy, the head node holds the reply being computed: the
/// probe in service is answered in place.
struct ServiceQueue {
  static constexpr std::uint32_t kNil = 0xffff'ffffu;

  std::uint32_t head = kNil;
  std::uint32_t tail = kNil;
  std::uint32_t len = 0;  ///< nodes, the one in service included
};

class EntityArena {
 public:
  // --- shared protocol constants ----------------------------------------

  /// The shared copy of `config`'s value, which stays valid until the
  /// matching release(). Validate a config before interning it.
  template <class Config>
  const Config& intern(const Config& config) {
    return configs<Config>().acquire(config);
  }

  /// Drop one use of `shared`, a reference intern() returned.
  template <class Config>
  void release(const Config& shared) noexcept {
    configs<Config>().release(shared);
  }

  /// Distinct `Config` values interned and not yet released.
  template <class Config>
  std::size_t interned() const noexcept {
    return std::get<SharedConfigs<Config>>(configs_).size();
  }

  // --- entity accounting -------------------------------------------------

  void add_device() noexcept {
    device_high_water_ = std::max(device_high_water_, ++devices_);
  }
  void remove_device() noexcept {
    PROBEMON_CONTRACT(devices_ > 0, "remove_device with no device live");
    --devices_;
  }
  void add_cp() noexcept { cp_high_water_ = std::max(cp_high_water_, ++cps_); }
  void remove_cp() noexcept {
    PROBEMON_CONTRACT(cps_ > 0, "remove_cp with no control point live");
    --cps_;
  }

  // --- device service queues (one shared node pool) --------------------

  void queue_push(ServiceQueue& q, const net::Message& msg) {
    const std::uint32_t node = queue_pool_.acquire();
    QueueNode& qn = queue_pool_[node];
    qn.msg = msg;
    qn.next = kNil;
    if (q.tail == kNil) {
      q.head = node;
    } else {
      queue_pool_[q.tail].next = node;
    }
    q.tail = node;
    ++q.len;
    queue_high_water_ = std::max(queue_high_water_, queue_pool_.in_use());
  }

  /// The oldest queued message, or nullptr when the queue is empty. It
  /// stays queued — and may be rewritten in place — until queue_pop().
  net::Message* queue_front(const ServiceQueue& q) noexcept {
    return q.head == kNil ? nullptr : &queue_pool_[q.head].msg;
  }

  /// Drop the oldest queued message; the queue must not be empty.
  void queue_pop(ServiceQueue& q) {
    PROBEMON_CONTRACT(q.head != kNil, "queue_pop on an empty queue");
    const std::uint32_t node = q.head;
    q.head = queue_pool_[node].next;
    if (q.head == kNil) q.tail = kNil;
    --q.len;
    queue_pool_.release(node);
  }

  /// Return every node of `q` to the pool.
  void queue_clear(ServiceQueue& q) {
    std::uint32_t node = q.head;
    while (node != kNil) {
      const std::uint32_t next = queue_pool_[node].next;
      queue_pool_.release(node);
      node = next;
    }
    q = ServiceQueue{};
  }

  // --- occupancy / telemetry ------------------------------------------

  std::size_t device_in_use() const noexcept { return devices_; }
  std::size_t device_high_water() const noexcept {
    return device_high_water_;
  }
  /// Entity state lives in the entity objects, so there is no slab to
  /// size: a slot count is the peak number of live entities.
  std::size_t device_slots() const noexcept { return device_high_water_; }
  std::size_t cp_in_use() const noexcept { return cps_; }
  std::size_t cp_high_water() const noexcept { return cp_high_water_; }
  std::size_t cp_slots() const noexcept { return cp_high_water_; }
  std::size_t queue_pool_slots() const noexcept {
    return queue_pool_.capacity();
  }
  std::size_t queue_pool_in_use() const noexcept {
    return queue_pool_.in_use();
  }
  std::size_t queue_pool_high_water() const noexcept {
    return queue_high_water_;
  }

 private:
  static constexpr std::uint32_t kNil = ServiceQueue::kNil;

  struct QueueNode {
    net::Message msg{};
    std::uint32_t next = kNil;
  };

  template <class Config>
  SharedConfigs<Config>& configs() noexcept {
    return std::get<SharedConfigs<Config>>(configs_);
  }

  util::SlabPool<QueueNode> queue_pool_;
  std::tuple<SharedConfigs<TimeoutConfig>, SharedConfigs<ComputeConfig>,
             SharedConfigs<SappCpConfig>, SharedConfigs<DcppCpConfig>,
             SharedConfigs<FixedRateCpConfig>, SharedConfigs<SappDeviceConfig>,
             SharedConfigs<DcppDeviceConfig>>
      configs_;
  std::size_t devices_ = 0;
  std::size_t cps_ = 0;
  std::size_t device_high_water_ = 0;
  std::size_t cp_high_water_ = 0;
  std::size_t queue_high_water_ = 0;
};

}  // namespace probemon::core
