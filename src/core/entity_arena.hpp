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
//   * entity accounting: live and peak device/CP counts, for the
//     telemetry bridge (`probemon_entity_arena_*`) and the benchmarks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "check/contract.hpp"
#include "net/message.hpp"
#include "util/slab_pool.hpp"

namespace probemon::core {

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

  util::SlabPool<QueueNode> queue_pool_;
  std::size_t devices_ = 0;
  std::size_t cps_ = 0;
  std::size_t device_high_water_ = 0;
  std::size_t cp_high_water_ = 0;
  std::size_t queue_high_water_ = 0;
};

}  // namespace probemon::core
