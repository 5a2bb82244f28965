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
  tick_width_ = std::ldexp(1.0, -config_.tick_bits);
  if (config_.backend == SchedulerBackend::kWheel) {
    const std::size_t slots = std::size_t{1} << config_.wheel_bits;
    wheel_mask_ = slots - 1;
    slot_chunk_ = std::make_unique_for_overwrite<std::uint32_t[]>(slots);
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
      coarse_chunk_ = std::make_unique_for_overwrite<std::uint32_t[]>(cslots);
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
  ev.fn = std::move(fn);
  place(Key{t, next_seq_++, index, ev.gen});
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  return EventId(make_raw(index, ev.gen));
}

void Scheduler::place(const Key& key) {
  if (config_.backend == SchedulerBackend::kHeap) {
    heap_push(heap_, key, Where::kHeap);
    return;
  }
  const std::int64_t tick = tick_of(key.time);
  if (tick <= cur_tick_) {
    tick_insert(key);
  } else if (tick < cur_tick_ + wheel_span()) {
    wheel_insert(key);
  } else if (coarse_enabled() &&
             coarse_tick_of(tick) <
                 coarse_tick_of(cur_tick_) + coarse_slot_count()) {
    coarse_insert(key);
  } else {
    heap_push(overflow_, key, Where::kOverflow);
  }
}

bool Scheduler::cancel(EventId id) {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;
  if (!decode(id, index, gen)) return false;
  const Event& ev = pool_[index];
  const std::uint32_t where = ev.where;
  if (ev.gen != gen || where_tag(where) == Where::kFree) return false;
  // Reclaim first: the generation bump is what marks the event's key a
  // tombstone, and a compaction below must already see it as one.
  free_slot(index);
  --live_;
  switch (where_tag(where)) {
    case Where::kFine:
      cancel_in_fine(where_at(where));
      break;
    case Where::kCoarse:
      cancel_in_coarse(where_at(where));
      break;
    case Where::kOverflow:
      heap_remove_at(overflow_, where_at(where));
      break;
    case Where::kHeap:
      heap_remove_at(heap_, where_at(where));
      break;
    case Where::kFree:
      break;
  }
  return true;
}

void Scheduler::cancel_in_fine(std::size_t slot) {
  if (slot == slot_of(cur_tick_)) {
    // No fine resident uses the executing tick's slot: the event is in
    // the tick itself.
    --tick_live_;
    if (tick_live_ == 0) {
      clear_tick();
    } else if (tick_keys_ > kCompactKeys && tick_keys_ - tick_live_ > tick_live_) {
      compact_tick();
    }
    return;
  }
  --wheel_count_;
  if (chain_cancelled(fine_head(slot))) {
    slot_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
}

void Scheduler::cancel_in_coarse(std::size_t slot) {
  --coarse_count_;
  if (chain_cancelled(coarse_head(slot))) {
    coarse_occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
}

bool Scheduler::pending(EventId id) const noexcept {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;
  if (!decode(id, index, gen)) return false;
  const Event& ev = pool_[index];
  return ev.gen == gen && where_tag(ev.where) != Where::kFree;
}

std::size_t Scheduler::key_slots() const noexcept {
  std::size_t keys = firsts_.capacity() * kFirstKeys +
                     chunks_.capacity() * kChunkKeys + run_.capacity() +
                     scratch_.capacity();
  for (const std::vector<Key>& sub : subs_) keys += sub.capacity();
  return keys;
}

Time Scheduler::next_time() const {
  if (config_.backend == SchedulerBackend::kHeap) {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }
  if (tick_live_ > 0) return tick_min_live();
  // Fine and coarse tick ranges can interleave until a cascade runs, so
  // the earliest pending event is the min over the next occupied fine
  // slot and the first occupied coarse slot. An occupied slot holds at
  // least one live key (a slot is released with its last live event).
  // Overflow ticks lie beyond both windows, so the heap root only
  // matters when the wheels are empty.
  Time best = kTimeInfinity;
  if (wheel_count_ > 0) {
    best = chain_min_live(fine_head(next_occupied_slot()));
  }
  if (coarse_count_ > 0) {
    // Coarse slots cover disjoint, increasing tick ranges, so the first
    // occupied slot holds the earliest coarse event (its keys are
    // unsorted within the slot — scan them).
    best = std::min(best,
                    chain_min_live(coarse_head(next_occupied_coarse_slot())));
  }
  if (best != kTimeInfinity) return best;
  if (!overflow_.empty()) return overflow_.front().time;
  return kTimeInfinity;
}

bool Scheduler::refill_tick() {
  clear_tick();
  for (;;) {
    if (coarse_count_ > 0) {
      // Cascade-on-advance: when the first occupied coarse slot starts
      // at or before the next occupied fine tick, nothing in the fine
      // wheel precedes it — advance to just before the slot's window
      // and spill its events into the fine wheel (each lands strictly
      // inside the span because 2^coarse_shift < 2^wheel_bits). Every
      // key of a slot shares its tick, tombstones included.
      const std::size_t cslot = next_occupied_coarse_slot();
      const std::int64_t cstart =
          coarse_tick_of(tick_of(chain_tick_time(coarse_head(cslot))))
          << coarse_shift_;
      const bool fine_first =
          wheel_count_ > 0 &&
          tick_of(chain_tick_time(fine_head(next_occupied_slot()))) < cstart;
      if (!fine_first) {
        cur_tick_ = cstart - 1;
        cascade_coarse_slot(cslot);
        promote_overflow();
        continue;
      }
    }
    if (wheel_count_ > 0) {
      const std::size_t slot = next_occupied_slot();
      cur_tick_ = tick_of(chain_tick_time(fine_head(slot)));
      drain_slot_into_tick(slot);
      promote_overflow();
      return true;
    }
    if (overflow_.empty()) return false;
    // Window jump: fast-forward straight to the next far-future event,
    // which promote_overflow() puts into the tick.
    cur_tick_ = tick_of(overflow_.front().time);
    promote_overflow();
    return true;
  }
}

bool Scheduler::fire_next(Time horizon) {
  Key key;
  if (config_.backend == SchedulerBackend::kHeap) {
    if (heap_.empty()) return false;
    if (heap_.front().time > horizon) return false;
    key = heap_.front();
    heap_remove_at(heap_, 0);
  } else {
    for (;;) {
      if (tick_live_ == 0 && !refill_tick()) return false;
      // A live event remains, so the run or a sub-bucket holds a key.
      if (run_pos_ == run_.size()) top_up(1);
      PROBEMON_CONTRACT(run_pos_ < run_.size(),
                        "tick holds " << tick_live_ << " live events but no key");
      key = run_[run_pos_];
      if (!live(key)) {  // a tombstone: skip it
        ++run_pos_;
        --tick_keys_;
        continue;
      }
      if (key.time > horizon) return false;
      ++run_pos_;
      --tick_keys_;
      --tick_live_;
      if (pipeline_) {
        top_up(2 * kLookahead + 1);
        prefetch_ahead();
      }
      break;
    }
  }
  Event& ev = pool_[key.index];
  PROBEMON_INVARIANT(key.time >= now_,
                     "virtual time regressed: event at " << key.time
                         << " popped while now() = " << now_);
  Callback fn = std::move(ev.fn);
  free_slot(key.index);  // reclaim before running: the callback may reschedule
  --live_;
  now_ = key.time;
  ++executed_;
  if (exec_probe_) exec_probe_(key.time, key.seq);
  fn();
  return true;
}

void Scheduler::prefetch_ahead() const noexcept {
  // The pop's generation check will read the slot 2 * kLookahead ahead
  // whatever its state; only a live entry's callable is asked.
  const std::size_t rest = run_.size() - run_pos_;
  if (rest > 2 * kLookahead) {
    util::prefetch(&pool_[run_[run_pos_ + 2 * kLookahead].index]);
  }
  if (rest > kLookahead) {
    const Key& ahead = run_[run_pos_ + kLookahead];
    const Event& ev = pool_[ahead.index];
    if (ev.gen == ahead.gen) ev.fn.prefetch();
  }
}

std::uint64_t Scheduler::run_until(Time horizon) {
  if (std::isnan(horizon)) {
    // Every comparison with NaN is false, so no event would ever be
    // "past the horizon": the run would drain the model.
    throw std::logic_error("run_until: NaN horizon");
  }
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
  ++ev.gen;  // invalidates every outstanding EventId and key for this slot
  ev.where = make_where(Where::kFree, 0);
  pool_.release(index);
}

// --- indexed-heap primitives -------------------------------------------------

void Scheduler::heap_push(Heap& heap, const Key& key, Where tag) {
  PROBEMON_CONTRACT(heap.size() < kWhereMask,
                    "heap_push: " << heap.size() << " entries overflow Where");
  pool_[key.index].where = make_where(tag, heap.size());
  heap.push_back(key);
  sift_up(heap, heap.size() - 1);
}

void Scheduler::heap_remove_at(Heap& heap, std::size_t pos) {
  PROBEMON_CONTRACT(pos < heap.size(),
                    "heap_remove_at: position " << pos << " out of range");
  const Key last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    heap[pos] = last;
    set_heap_pos(last.index, pos);
    sift_down(heap, pos);
    sift_up(heap, pos);
  }
}

void Scheduler::sift_up(Heap& heap, std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(heap[pos], heap[parent])) break;
    std::swap(heap[pos], heap[parent]);
    set_heap_pos(heap[pos].index, pos);
    set_heap_pos(heap[parent].index, parent);
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
    set_heap_pos(heap[pos].index, pos);
    set_heap_pos(heap[best].index, best);
    pos = best;
  }
}

// --- slot key chains ---------------------------------------------------------

void Scheduler::chain_append(std::uint32_t& chain, const Key& key) {
  if (chain == kNil) {
    chain = firsts_.acquire();
    ChunkHeader& first = firsts_[chain].head;
    first.prev = kNil;
    first.size = 0;
    first.live = 0;
  }
  ChunkHeader* newest = &header(chain);
  std::uint32_t at = newest->size;
  if (at >= kFirstKeys) {
    at = (at - kFirstKeys) % kChunkKeys;
    if (at == 0) {
      // Full: a fresh chunk becomes the newest and takes over the counts.
      const std::uint32_t fresh = chunks_.acquire() | kBigChunk;
      ChunkHeader& next = header(fresh);  // slabs never move
      next.prev = chain;
      next.size = newest->size;
      next.live = newest->live;
      chain = fresh;
      newest = &next;
    }
  }
  chunk_keys(chain)[at] = key;
  ++newest->size;
  ++newest->live;
}

void Scheduler::release_chunk(std::uint32_t ref) {
  if ((ref & kBigChunk) != 0) {
    chunks_.release(ref & ~kBigChunk);
  } else {
    firsts_.release(ref);
  }
}

void Scheduler::chain_release(std::uint32_t chain) {
  while (chain != kNil) {
    const std::uint32_t prev = header(chain).prev;
    release_chunk(chain);
    chain = prev;
  }
}

template <class F>
void Scheduler::for_each_chunk(std::uint32_t chain, F&& f) const {
  if (chain == kNil) return;
  std::uint32_t n = newest_keys(header(chain).size);
  for (std::uint32_t c = chain; c != kNil; c = header(c).prev) {
    f(chunk_keys(c), n);
    if (header(c).prev != kNil) n = full_keys(header(c).prev);
  }
}

template <class F>
void Scheduler::consume_chain(std::uint32_t chain, F&& f) {
  if (chain == kNil) return;
  std::uint32_t n = newest_keys(header(chain).size);
  while (chain != kNil) {
    const std::uint32_t prev = header(chain).prev;
    if (prev != kNil) util::prefetch(&header(prev));
    const Key* keys = chunk_keys(chain);
    for (std::uint32_t i = 0; i < n; ++i) f(keys[i]);
    release_chunk(chain);
    if (prev != kNil) n = full_keys(prev);
    chain = prev;
  }
}

void Scheduler::chain_rebuild(std::uint32_t& chain) {
  // Key order inside a chain does not matter: whoever reads it sorts.
  // Each chunk's event slots are prefetched before their generations
  // are read, so a fleet-sized slot pays its misses ten at a time.
  scratch_.clear();
  for_each_chunk(chain, [this](const Key* keys, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) util::prefetch(&pool_[keys[i].index]);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (live(keys[i])) scratch_.push_back(keys[i]);
    }
  });
  chain_release(chain);  // LIFO: the appends below reuse these chunks
  chain = kNil;
  for (const Key& key : scratch_) chain_append(chain, key);
  scratch_.clear();
}

bool Scheduler::chain_cancelled(std::uint32_t& chain) {
  ChunkHeader& newest = header(chain);
  --newest.live;
  if (newest.live == 0) {
    chain_release(chain);
    return true;
  }
  // A slot that is mostly tombstones is rebuilt from its live keys once
  // it is past its first two chunks (below that a rebuild frees little).
  // The scan costs the slot's size, at most twice the cancels since the
  // last rebuild.
  if (newest.size > kCompactKeys && newest.size - newest.live > newest.live) {
    [[maybe_unused]] const std::uint32_t live_keys = newest.live;
    chain_rebuild(chain);
    PROBEMON_CONTRACT(chain != kNil && header(chain).live == live_keys,
                      "slot rebuild kept " << header(chain).live << " of "
                                           << live_keys << " live keys");
  }
  return false;
}

Time Scheduler::chain_min_live(std::uint32_t chain) const {
  Time best = kTimeInfinity;
  for_each_chunk(chain, [&](const Key* keys, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (keys[i].time < best && live(keys[i])) best = keys[i].time;
    }
  });
  return best;
}

// --- slot heads --------------------------------------------------------------

namespace {

[[maybe_unused]] bool bit_set(const std::vector<std::uint64_t>& bits,
                              std::size_t i) noexcept {
  return ((bits[i >> 6] >> (i & 63)) & 1) != 0;
}

}  // namespace

const std::uint32_t& Scheduler::fine_head(std::size_t slot) const noexcept {
  PROBEMON_INVARIANT(bit_set(slot_bits_, slot),
                     "head of closed fine slot " << slot << " read");
  return slot_chunk_[slot];
}

const std::uint32_t& Scheduler::coarse_head(std::size_t slot) const noexcept {
  PROBEMON_INVARIANT(bit_set(coarse_occ_, slot),
                     "head of closed coarse slot " << slot << " read");
  return coarse_chunk_[slot];
}

// --- wheel primitives --------------------------------------------------------

void Scheduler::wheel_insert(const Key& key) {
  const std::int64_t tick = tick_of(key.time);
  const std::size_t slot = slot_of(tick);
  std::uint64_t& bits = slot_bits_[slot >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
  if ((bits & bit) == 0) {
    bits |= bit;
    slot_chunk_[slot] = kNil;  // opens empty; chain_append gives it a chunk
  }
  std::uint32_t& chain = fine_head(slot);
  PROBEMON_CONTRACT(chain == kNil || tick_of(chain_tick_time(chain)) == tick,
                    "wheel slot " << slot << " mixes ticks " << tick << " and "
                                  << tick_of(chain_tick_time(chain)));
  chain_append(chain, key);
  pool_[key.index].where = make_where(Where::kFine, slot);
  ++wheel_count_;
}

void Scheduler::drain_slot_into_tick(std::size_t slot) {
  const std::uint32_t chain = fine_head(slot);
  slot_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  const std::uint32_t size = header(chain).size;
  const std::uint32_t live_keys = header(chain).live;
  wheel_count_ -= live_keys;

  // Size the calendar from the tick's population: one sorted run for up
  // to kSubKeys events, else about kSubKeys per sub-bucket.
  unsigned bits = 0;
  while (bits < kMaxSubBits && (kSubKeys << bits) < live_keys) ++bits;
  // Over the tick's own span the sub-bucket scale is a power of two.
  set_tick_geometry(bits, static_cast<Time>(cur_tick_) * tick_width_,
                    tick_scale_ * static_cast<double>(std::size_t{1} << bits));
  pipeline_ = live_keys >= kPipelineMinTick;
  tick_keys_ = size;
  tick_live_ = live_keys;

  // The drained events keep Where::kFine with this slot, which now names
  // the executing tick (see Where). Sub-bucket appends may reuse the
  // chunks already read.
  if (bits == 0) {
    consume_chain(chain, [this](const Key& key) { run_.push_back(key); });
    // A chunk holds its keys in schedule order, so a slot of one chunk
    // is usually sorted already; a real sort is needed only when times
    // inside the tick arrived out of order.
    if (!std::is_sorted(run_.begin(), run_.end(), KeyOrder{})) {
      std::sort(run_.begin(), run_.end(), KeyOrder{});
    }
  } else {
    consume_chain(chain, [this](const Key& key) {
      const std::size_t sub = sub_of(key.time);
      subs_[sub].push_back(key);
      sub_occ_[sub >> 6] |= std::uint64_t{1} << (sub & 63);
    });
    top_up(pipeline_ ? 2 * kLookahead + 1 : 1);
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
    const Key key = overflow_.front();
    const std::int64_t tick = tick_of(key.time);
    if (tick >= window_end) break;
    heap_remove_at(overflow_, 0);
    if (tick <= cur_tick_) {
      // Only reachable on a window jump, into an empty tick: successive
      // overflow-root pops arrive in ascending (time, seq) order.
      tick_insert(key);
    } else if (tick < fine_end) {
      wheel_insert(key);
    } else {
      coarse_insert(key);
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

void Scheduler::coarse_insert(const Key& key) {
  const std::int64_t ctick = coarse_tick_of(tick_of(key.time));
  const std::size_t slot = coarse_slot_of(ctick);
  std::uint64_t& bits = coarse_occ_[slot >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
  if ((bits & bit) == 0) {
    bits |= bit;
    coarse_chunk_[slot] = kNil;  // opens empty; chain_append gives it a chunk
  }
  std::uint32_t& chain = coarse_head(slot);
  // Residents satisfy coarse_tick_of(cur_tick_) < ctick <
  // coarse_tick_of(cur_tick_) + slot count, so — exactly like the fine
  // wheel — one slot never mixes two coarse ticks.
  PROBEMON_CONTRACT(
      chain == kNil || coarse_tick_of(tick_of(chain_tick_time(chain))) == ctick,
      "coarse slot " << slot << " mixes coarse ticks " << ctick << " and "
                     << coarse_tick_of(tick_of(chain_tick_time(chain))));
  chain_append(chain, key);
  pool_[key.index].where = make_where(Where::kCoarse, slot);
  ++coarse_count_;
}

void Scheduler::cascade_coarse_slot(std::size_t slot) {
  const std::uint32_t chain = coarse_head(slot);
  coarse_occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  coarse_count_ -= header(chain).live;
  consume_chain(chain, [this](const Key& key) {
    if (live(key)) wheel_insert(key);  // tombstones stay behind
  });
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

// --- the executing tick (calendar queue) -------------------------------------

void Scheduler::set_tick_geometry(unsigned bits, Time base, double scale) {
  sub_bits_ = bits;
  sub_count_ = std::size_t{1} << bits;
  // With one sub-bucket the whole tick is the run (sub_of() is 0 for
  // any time, whatever the base and scale); otherwise no sub-bucket has
  // been merged into it yet.
  next_sub_ = bits == 0 ? 1 : 0;
  sub_base_ = base;
  sub_scale_ = scale;
  if (subs_.size() < sub_count_) subs_.resize(sub_count_);
}

void Scheduler::tick_insert(const Key& key) {
  pool_[key.index].where = make_where(Where::kFine, slot_of(cur_tick_));
  if (tick_live_ == 0) {
    // An empty (or all-tombstone) tick starts over as one sorted run.
    clear_tick();
    set_tick_geometry(0, 0.0, 0.0);
    pipeline_ = false;
  }
  const std::size_t at = tick_place(key);
  ++tick_keys_;
  ++tick_live_;
  if (at == kNotInRun) return;
  // The pipeline asks the entry kLookahead past the cursor; an event
  // that lands closer than that is asked now (its slot was just written).
  if (pipeline_ && at < run_pos_ + kLookahead) pool_[key.index].fn.prefetch();
  if (at + 1 < run_.size() && run_.size() - run_pos_ > kSplitRun &&
      sub_bits_ < kMaxSubBits) {
    resplit_tick();
  }
}

std::size_t Scheduler::tick_place(const Key& key) {
  const std::size_t sub = sub_of(key.time);
  if (sub >= next_sub_) {
    subs_[sub].push_back(key);
    sub_occ_[sub >> 6] |= std::uint64_t{1} << (sub & 63);
    return kNotInRun;
  }
  if (run_pos_ == run_.size() || !before(key, run_.back())) {
    run_.push_back(key);
    return run_.size() - 1;
  }
  // Its seq is the largest yet, so it goes after every entry at or
  // before its time.
  const auto at =
      std::upper_bound(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                       run_.end(), key, KeyOrder{});
  return static_cast<std::size_t>(run_.insert(at, key) - run_.begin());
}

void Scheduler::top_up(std::size_t window) {
  while (run_.size() - run_pos_ < window) {
    std::size_t sub = next_sub_;
    while (sub < sub_count_) {
      const std::uint64_t bits = sub_occ_[sub >> 6] >> (sub & 63);
      if (bits != 0) {
        sub += static_cast<std::size_t>(std::countr_zero(bits));
        break;
      }
      sub = (sub | 63) + 1;
    }
    if (sub >= sub_count_) {
      next_sub_ = sub_count_;
      return;
    }
    // Everything in the run precedes the sub-bucket, so its sorted keys
    // append. The consumed prefix goes first (fewer than `window` keys
    // remain to move).
    run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(run_pos_));
    run_pos_ = 0;
    std::vector<Key>& keys = subs_[sub];
    const std::size_t from = run_.size();
    run_.insert(run_.end(), keys.begin(), keys.end());
    keys.clear();
    sub_occ_[sub >> 6] &= ~(std::uint64_t{1} << (sub & 63));
    next_sub_ = sub + 1;
    const auto first = run_.begin() + static_cast<std::ptrdiff_t>(from);
    if (!std::is_sorted(first, run_.end(), KeyOrder{})) {
      std::sort(first, run_.end(), KeyOrder{});
    }
  }
}

void Scheduler::resplit_tick() {
  // Inserts into the middle of a long run under the cursor: lay what is
  // left of the tick out again, from its earliest key to the tick's
  // end, with more sub-buckets. The count only grows, so a tick
  // re-splits at most kMaxSubBits times.
  scratch_.assign(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                  run_.end());
  for (std::size_t sub = next_sub_; sub < sub_count_; ++sub) {
    scratch_.insert(scratch_.end(), subs_[sub].begin(), subs_[sub].end());
    subs_[sub].clear();
  }
  std::fill(std::begin(sub_occ_), std::end(sub_occ_), 0);
  run_.clear();
  run_pos_ = 0;
  unsigned bits = sub_bits_ + 1;
  while (bits < kMaxSubBits && (kSubKeys << bits) < scratch_.size()) ++bits;
  Time base = kTimeInfinity;
  for (const Key& key : scratch_) base = std::min(base, key.time);
  const Time end = static_cast<Time>(cur_tick_ + 1) * tick_width_;
  set_tick_geometry(bits, base,
                    static_cast<double>(std::size_t{1} << bits) / (end - base));
  pipeline_ = tick_live_ >= kPipelineMinTick;
  for (const Key& key : scratch_) tick_place(key);
  scratch_.clear();
  top_up(pipeline_ ? 2 * kLookahead + 1 : 1);
}

void Scheduler::compact_tick() {
  const auto dead = [this](const Key& key) { return !live(key); };
  run_.erase(std::remove_if(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                            run_.end(), dead),
             run_.end());
  for (std::size_t sub = next_sub_; sub < sub_count_; ++sub) {
    std::vector<Key>& keys = subs_[sub];
    keys.erase(std::remove_if(keys.begin(), keys.end(), dead), keys.end());
    if (keys.empty()) sub_occ_[sub >> 6] &= ~(std::uint64_t{1} << (sub & 63));
  }
  tick_keys_ = tick_live_;
}

void Scheduler::clear_tick() {
  run_.clear();
  run_pos_ = 0;
  for (std::size_t sub = next_sub_; sub < sub_count_; ++sub) subs_[sub].clear();
  std::fill(std::begin(sub_occ_), std::end(sub_occ_), 0);
  next_sub_ = sub_count_;
  tick_keys_ = 0;
  tick_live_ = 0;
}

Time Scheduler::tick_min_live() const {
  // The run is sorted, and every sub-bucket after it is later in time
  // than the one before: the first live key found, in that order, wins.
  for (std::size_t i = run_pos_; i < run_.size(); ++i) {
    if (live(run_[i])) return run_[i].time;
  }
  for (std::size_t sub = next_sub_; sub < sub_count_; ++sub) {
    Time best = kTimeInfinity;
    for (const Key& key : subs_[sub]) {
      if (key.time < best && live(key)) best = key.time;
    }
    if (best != kTimeInfinity) return best;
  }
  return kTimeInfinity;
}

}  // namespace probemon::des
