#include "des/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "check/contract.hpp"
#include "util/prefetch.hpp"

namespace probemon::des {

Scheduler::Scheduler(const SchedulerConfig& config) : config_(config) {
  if (config_.tick_bits < 0 || config_.tick_bits > 30) {
    throw std::invalid_argument("Scheduler: tick_bits must be in [0, 30]");
  }
  if (config_.wheel_bits < 6 || config_.wheel_bits > 22) {
    throw std::invalid_argument("Scheduler: wheel_bits must be in [6, 22]");
  }
  if (config_.coarse_bits != 0 &&
      (config_.coarse_bits < 6 || config_.coarse_bits > 22)) {
    throw std::invalid_argument(
        "Scheduler: coarse_bits must be 0 (disabled) or in [6, 22]");
  }
  tick_scale_ = std::ldexp(1.0, config_.tick_bits);
  if (config_.backend == SchedulerBackend::kWheel) {
    const std::size_t slots = std::size_t{1} << config_.wheel_bits;
    wheel_mask_ = slots - 1;
    slot_head_.assign(slots, kNil);
    slot_bits_.assign(slots / 64, 0);
    if (config_.coarse_bits != 0) {
      coarse_shift_ = config_.coarse_tick_bits < 0
                          ? std::min(13, config_.wheel_bits - 1)
                          : config_.coarse_tick_bits;
      // Strictly below wheel_bits: a cascaded coarse slot (2^shift fine
      // ticks) must fit inside the fine window with cur_tick_ parked one
      // tick before the slot's start.
      if (coarse_shift_ < 1 || coarse_shift_ >= config_.wheel_bits) {
        throw std::invalid_argument(
            "Scheduler: coarse_tick_bits must be in [1, wheel_bits - 1]");
      }
      const std::size_t cslots = std::size_t{1} << config_.coarse_bits;
      coarse_mask_ = cslots - 1;
      coarse_head_.assign(cslots, kNil);
      coarse_occ_.assign(cslots / 64, 0);
    }
  }
}

EventId Scheduler::schedule_at(Time t, Callback fn) {
  if (std::isnan(t) || t == kTimeInfinity) {
    throw std::logic_error("schedule_at: non-finite time");
  }
  if (t < now_) {
    throw std::logic_error("schedule_at: time in the past");
  }
  if (!fn) {
    throw std::logic_error("schedule_at: empty callback");
  }
  const std::uint32_t index = pool_.acquire();
  Event& ev = pool_[index];
  ev.time = t;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  place(index);
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  return EventId(make_raw(index, ev.gen));
}

void Scheduler::place(std::uint32_t index) {
  if (config_.backend == SchedulerBackend::kHeap) {
    heap_push(heap_, index, Location::kHeap);
    return;
  }
  const std::int64_t tick = tick_of(pool_[index].time);
  if (tick <= cur_tick_) {
    // The event lands in the tick currently executing; it joins the
    // late-arrival heap, merged against the sorted run at pop time.
    heap_push(bucket_late_, index, Location::kBucketLate);
  } else if (tick < cur_tick_ + wheel_span()) {
    wheel_insert(index);
  } else if (coarse_enabled() &&
             coarse_tick_of(tick) <
                 coarse_tick_of(cur_tick_) + coarse_slot_count()) {
    coarse_insert(index);
  } else {
    heap_push(overflow_, index, Location::kOverflow);
  }
}

bool Scheduler::cancel(EventId id) {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;
  if (!decode(id, index, gen)) return false;
  Event& ev = pool_[index];
  if (ev.gen != gen || ev.loc == Location::kFree) return false;
  switch (ev.loc) {
    case Location::kWheel:
      wheel_remove(index);
      break;
    case Location::kCoarse:
      coarse_remove(index);
      break;
    case Location::kOverflow:
      heap_remove_at(overflow_, ev.pos);
      break;
    case Location::kBucket: {
      // O(run length), but cancelling inside the currently-executing
      // tick is rare; the shift keeps the run free of tombstones.
      const std::size_t pos = ev.pos;
      bucket_run_.erase(bucket_run_.begin() +
                        static_cast<std::ptrdiff_t>(pos));
      for (std::size_t i = pos; i < bucket_run_.size(); ++i) {
        pool_[bucket_run_[i].index].pos = static_cast<std::uint32_t>(i);
      }
      break;
    }
    case Location::kBucketLate:
      heap_remove_at(bucket_late_, ev.pos);
      break;
    case Location::kHeap:
      heap_remove_at(heap_, ev.pos);
      break;
    case Location::kFree:
      return false;
  }
  free_slot(index);
  --live_;
  return true;
}

bool Scheduler::pending(EventId id) const noexcept {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;
  if (!decode(id, index, gen)) return false;
  const Event& ev = pool_[index];
  return ev.gen == gen && ev.loc != Location::kFree;
}

Time Scheduler::next_time() const {
  if (config_.backend == SchedulerBackend::kHeap) {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }
  if (!bucket_empty()) {
    Time best = kTimeInfinity;
    if (bucket_pos_ < bucket_run_.size()) best = bucket_run_[bucket_pos_].time;
    if (!bucket_late_.empty() && bucket_late_.front().time < best) {
      best = bucket_late_.front().time;
    }
    return best;
  }
  // Fine and coarse tick ranges can interleave until a cascade runs, so
  // the earliest pending event is the min over the next occupied fine
  // slot and the first occupied coarse slot. Overflow ticks lie beyond
  // both windows, so the heap root only matters when the wheels are
  // empty.
  Time best = kTimeInfinity;
  if (wheel_count_ > 0) {
    for (std::uint32_t i = slot_head_[next_occupied_slot()]; i != kNil;
         i = pool_[i].next) {
      if (pool_[i].time < best) best = pool_[i].time;
    }
  }
  if (coarse_count_ > 0) {
    // Coarse slots cover disjoint, increasing tick ranges, so the first
    // occupied slot holds the earliest coarse event (its list is
    // unsorted within the slot — scan it).
    for (std::uint32_t i = coarse_head_[next_occupied_coarse_slot()];
         i != kNil; i = pool_[i].next) {
      if (pool_[i].time < best) best = pool_[i].time;
    }
  }
  if (best != kTimeInfinity) return best;
  if (!overflow_.empty()) return overflow_.front().time;
  return kTimeInfinity;
}

bool Scheduler::refill_bucket() {
  while (bucket_empty()) {
    bucket_run_.clear();
    bucket_pos_ = 0;
    if (coarse_count_ > 0) {
      // Cascade-on-advance: when the first occupied coarse slot starts
      // at or before the next occupied fine tick, nothing in the fine
      // wheel precedes it — advance to just before the slot's window
      // and spill its events into the fine wheel (each lands strictly
      // inside the span because 2^coarse_shift < 2^wheel_bits).
      const std::size_t cslot = next_occupied_coarse_slot();
      const std::int64_t cstart =
          coarse_tick_of(tick_of(pool_[coarse_head_[cslot]].time))
          << coarse_shift_;
      const bool fine_first =
          wheel_count_ > 0 &&
          tick_of(pool_[slot_head_[next_occupied_slot()]].time) < cstart;
      if (!fine_first) {
        cur_tick_ = cstart - 1;
        cascade_coarse_slot(cslot);
        promote_overflow();
        continue;
      }
    }
    if (wheel_count_ > 0) {
      const std::size_t slot = next_occupied_slot();
      cur_tick_ = tick_of(pool_[slot_head_[slot]].time);
      drain_slot_into_bucket(slot);
      promote_overflow();
    } else if (!overflow_.empty()) {
      // Window jump: fast-forward straight to the next far-future event.
      cur_tick_ = tick_of(overflow_.front().time);
      promote_overflow();
    } else {
      return false;
    }
  }
  return true;
}

bool Scheduler::fire_next(Time horizon) {
  std::uint32_t index = kNil;
  if (config_.backend == SchedulerBackend::kHeap) {
    if (heap_.empty()) return false;
    if (heap_.front().time > horizon) return false;
    index = heap_.front().index;
    heap_remove_at(heap_, 0);
  } else {
    if (!refill_bucket()) return false;
    bool from_late = bucket_pos_ >= bucket_run_.size();
    if (!from_late && !bucket_late_.empty() &&
        before(bucket_late_.front(), bucket_run_[bucket_pos_])) {
      from_late = true;
    }
    const HeapEntry& top =
        from_late ? bucket_late_.front() : bucket_run_[bucket_pos_];
    if (top.time > horizon) return false;
    index = top.index;
    if (from_late) {
      heap_remove_at(bucket_late_, 0);
    } else {
      ++bucket_pos_;
    }
    prefetch_ahead();
  }
  Event& ev = pool_[index];
  PROBEMON_INVARIANT(ev.time >= now_,
                     "virtual time regressed: event at " << ev.time
                         << " popped while now() = " << now_);
  const Time t = ev.time;
  const std::uint64_t seq = ev.seq;
  Callback fn = std::move(ev.fn);
  free_slot(index);  // reclaim before running: the callback may reschedule
  --live_;
  now_ = t;
  ++executed_;
  if (exec_probe_) exec_probe_(t, seq);
  fn();
  return true;
}

void Scheduler::prefetch_ahead() const noexcept {
  // bucket_pos_ is the next run entry; every entry from there on, and
  // the late heap's root, is a pending event (cancel erases run entries
  // and heap nodes in place).
  const std::size_t run = bucket_run_.size();
  if (bucket_pos_ + 2 * kLookahead < run) {
    util::prefetch(&pool_[bucket_run_[bucket_pos_ + 2 * kLookahead].index]);
  }
  if (bucket_pos_ + kLookahead < run) {
    pool_[bucket_run_[bucket_pos_ + kLookahead].index].fn.prefetch();
  }
  if (!bucket_late_.empty()) pool_[bucket_late_.front().index].fn.prefetch();
}

std::uint64_t Scheduler::run_until(Time horizon) {
  std::uint64_t n = 0;
  while (fire_next(horizon)) ++n;
  if (now_ < horizon && horizon != kTimeInfinity) now_ = horizon;
  return n;
}

std::uint64_t Scheduler::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    if (++n > max_events) {
      throw std::runtime_error("Scheduler::run_all: event cap exceeded");
    }
  }
  return n;
}

void Scheduler::free_slot(std::uint32_t index) {
  Event& ev = pool_[index];
  ev.fn.reset();
  ++ev.gen;  // invalidates every outstanding EventId for this slot
  ev.loc = Location::kFree;
  ev.prev = kNil;
  ev.next = kNil;
  pool_.release(index);
}

// --- indexed-heap primitives -------------------------------------------------

void Scheduler::heap_push(Heap& heap, std::uint32_t index, Location loc) {
  Event& ev = pool_[index];
  ev.loc = loc;
  ev.next = kNil;
  ev.pos = static_cast<std::uint32_t>(heap.size());
  heap.push_back(HeapEntry{ev.time, ev.seq, index});
  sift_up(heap, heap.size() - 1);
}

void Scheduler::heap_remove_at(Heap& heap, std::size_t pos) {
  PROBEMON_CONTRACT(pos < heap.size(),
                    "heap_remove_at: position " << pos << " out of range");
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    heap[pos] = last;
    pool_[last.index].pos = static_cast<std::uint32_t>(pos);
    sift_down(heap, pos);
    sift_up(heap, pos);
  }
}

void Scheduler::sift_up(Heap& heap, std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(heap[pos], heap[parent])) break;
    std::swap(heap[pos], heap[parent]);
    pool_[heap[pos].index].pos = static_cast<std::uint32_t>(pos);
    pool_[heap[parent].index].pos = static_cast<std::uint32_t>(parent);
    pos = parent;
  }
}

void Scheduler::sift_down(Heap& heap, std::size_t pos) {
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t best = pos;
    const std::size_t left = 2 * pos + 1;
    const std::size_t right = left + 1;
    if (left < n && before(heap[left], heap[best])) best = left;
    if (right < n && before(heap[right], heap[best])) best = right;
    if (best == pos) break;
    std::swap(heap[pos], heap[best]);
    pool_[heap[pos].index].pos = static_cast<std::uint32_t>(pos);
    pool_[heap[best].index].pos = static_cast<std::uint32_t>(best);
    pos = best;
  }
}

// --- wheel primitives --------------------------------------------------------

void Scheduler::wheel_insert(std::uint32_t index) {
  Event& ev = pool_[index];
  const std::int64_t tick = tick_of(ev.time);
  const std::size_t slot = slot_of(tick);
  const std::uint32_t head = slot_head_[slot];
  PROBEMON_CONTRACT(head == kNil || tick_of(pool_[head].time) == tick,
                    "wheel slot " << slot << " mixes ticks " << tick
                                  << " and " << tick_of(pool_[head].time));
  ev.loc = Location::kWheel;
  ev.prev = kNil;
  ev.next = head;
  if (head != kNil) pool_[head].prev = index;
  slot_head_[slot] = index;
  slot_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++wheel_count_;
}

void Scheduler::wheel_remove(std::uint32_t index) {
  Event& ev = pool_[index];
  const std::size_t slot = slot_of(tick_of(ev.time));
  if (ev.prev != kNil) {
    pool_[ev.prev].next = ev.next;
  } else {
    slot_head_[slot] = ev.next;
  }
  if (ev.next != kNil) pool_[ev.next].prev = ev.prev;
  if (slot_head_[slot] == kNil) {
    slot_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  --wheel_count_;
}

void Scheduler::drain_slot_into_bucket(std::size_t slot) {
  std::uint32_t i = slot_head_[slot];
  slot_head_[slot] = kNil;
  slot_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  for (; i != kNil; i = pool_[i].next) {
    --wheel_count_;
    bucket_run_.push_back(HeapEntry{pool_[i].time, pool_[i].seq, i});
  }
  // The slot list is LIFO by schedule order, so the reverse is already
  // sorted by seq; a real sort is needed only when distinct times inside
  // the one tick arrived out of time order.
  std::reverse(bucket_run_.begin(), bucket_run_.end());
  if (!std::is_sorted(bucket_run_.begin(), bucket_run_.end(), before)) {
    std::sort(bucket_run_.begin(), bucket_run_.end(), before);
  }
  for (std::size_t pos = 0; pos < bucket_run_.size(); ++pos) {
    Event& ev = pool_[bucket_run_[pos].index];
    ev.loc = Location::kBucket;
    ev.next = kNil;
    ev.pos = static_cast<std::uint32_t>(pos);
  }
}

void Scheduler::promote_overflow() {
  // The overflow heap is keyed (time, seq) and ticks are monotone in
  // time, so once the root's tick is outside the window nothing else
  // can be inside it.
  const std::int64_t fine_end = cur_tick_ + wheel_span();
  const std::int64_t window_end =
      coarse_enabled() ? coarse_window_end() : fine_end;
  while (!overflow_.empty()) {
    const std::uint32_t index = overflow_.front().index;
    const std::int64_t tick = tick_of(overflow_.front().time);
    if (tick >= window_end) break;
    heap_remove_at(overflow_, 0);
    if (tick <= cur_tick_) {
      // Only reachable on a window jump, with the run empty: successive
      // overflow-root pops arrive in ascending (time, seq) order, so
      // appending keeps the run sorted.
      Event& ev = pool_[index];
      ev.loc = Location::kBucket;
      ev.pos = static_cast<std::uint32_t>(bucket_run_.size());
      bucket_run_.push_back(HeapEntry{ev.time, ev.seq, index});
    } else if (tick < fine_end) {
      wheel_insert(index);
    } else {
      coarse_insert(index);
    }
  }
}

std::size_t Scheduler::next_occupied_slot() const {
  PROBEMON_CONTRACT(wheel_count_ > 0, "next_occupied_slot on empty wheel");
  const std::size_t nwords = slot_bits_.size();
  const std::size_t start = slot_of(cur_tick_ + 1);
  const std::size_t start_word = start >> 6;
  // Circular word scan: the wheel holds ticks in (cur_tick_, cur_tick_ +
  // span), so scanning slot positions circularly from cur_tick_ + 1
  // visits them in increasing-tick order.
  const std::uint64_t head_bits = slot_bits_[start_word] >> (start & 63);
  if (head_bits != 0) {
    return start + static_cast<std::size_t>(std::countr_zero(head_bits));
  }
  for (std::size_t step = 1; step <= nwords; ++step) {
    const std::size_t word = (start_word + step) & (nwords - 1);
    const std::uint64_t bits = slot_bits_[word];
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  PROBEMON_CONTRACT(false, "occupancy bitmap inconsistent with wheel_count_");
  return 0;
}

// --- coarse (upper-level) wheel primitives -----------------------------------

void Scheduler::coarse_insert(std::uint32_t index) {
  Event& ev = pool_[index];
  const std::int64_t ctick = coarse_tick_of(tick_of(ev.time));
  const std::size_t slot = coarse_slot_of(ctick);
  const std::uint32_t head = coarse_head_[slot];
  // Residents satisfy coarse_tick_of(cur_tick_) < ctick <
  // coarse_tick_of(cur_tick_) + slot count, so — exactly like the fine
  // wheel — one slot never mixes two coarse ticks.
  PROBEMON_CONTRACT(
      head == kNil || coarse_tick_of(tick_of(pool_[head].time)) == ctick,
      "coarse slot " << slot << " mixes coarse ticks " << ctick << " and "
                     << coarse_tick_of(tick_of(pool_[head].time)));
  ev.loc = Location::kCoarse;
  ev.prev = kNil;
  ev.next = head;
  if (head != kNil) pool_[head].prev = index;
  coarse_head_[slot] = index;
  coarse_occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++coarse_count_;
}

void Scheduler::coarse_remove(std::uint32_t index) {
  Event& ev = pool_[index];
  const std::size_t slot = coarse_slot_of(coarse_tick_of(tick_of(ev.time)));
  if (ev.prev != kNil) {
    pool_[ev.prev].next = ev.next;
  } else {
    coarse_head_[slot] = ev.next;
  }
  if (ev.next != kNil) pool_[ev.next].prev = ev.prev;
  if (coarse_head_[slot] == kNil) {
    coarse_occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  --coarse_count_;
}

void Scheduler::cascade_coarse_slot(std::size_t slot) {
  std::uint32_t i = coarse_head_[slot];
  coarse_head_[slot] = kNil;
  coarse_occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  while (i != kNil) {
    const std::uint32_t next = pool_[i].next;  // wheel_insert rewrites links
    --coarse_count_;
    wheel_insert(i);
    i = next;
  }
}

std::size_t Scheduler::next_occupied_coarse_slot() const {
  PROBEMON_CONTRACT(coarse_count_ > 0,
                    "next_occupied_coarse_slot on empty coarse wheel");
  const std::size_t nwords = coarse_occ_.size();
  // Residents are strictly after cur_tick_'s coarse tick, so a circular
  // scan from the following slot visits them in increasing-tick order.
  const std::size_t start = coarse_slot_of(coarse_tick_of(cur_tick_) + 1);
  const std::size_t start_word = start >> 6;
  const std::uint64_t head_bits = coarse_occ_[start_word] >> (start & 63);
  if (head_bits != 0) {
    return start + static_cast<std::size_t>(std::countr_zero(head_bits));
  }
  for (std::size_t step = 1; step <= nwords; ++step) {
    const std::size_t word = (start_word + step) & (nwords - 1);
    const std::uint64_t bits = coarse_occ_[word];
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  PROBEMON_CONTRACT(false, "occupancy bitmap inconsistent with coarse_count_");
  return 0;
}

}  // namespace probemon::des
