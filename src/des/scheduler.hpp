// Discrete-event scheduler: the heart of the simulation substrate.
//
// Semantics (identical across both backends, verified bit-for-bit by the
// ordering-equivalence tests in tests/test_scheduler.cpp):
//   * Virtual time is a double in seconds, starting at 0.
//   * Events scheduled for the same instant fire in the order they were
//     scheduled (stable FIFO tie-break via a monotone sequence number).
//     This matters for protocol determinism: a probe and its timeout can
//     coincide, and the outcome must not depend on queue internals.
//   * Scheduling into the past (t < now) is a logic error and throws.
//   * run_until(h) horizon semantics are INCLUSIVE: every event with
//     time <= h fires, including events scheduled at exactly h during
//     the run; afterwards now() == h (for finite h). A NaN horizon
//     throws.
//   * Cancellation is O(1) for wheel-resident events and O(log n) for
//     events beyond the coarse span. Cancel is lazy on the wheel: the
//     event's slot and callable are reclaimed at once (its generation
//     bump invalidates every outstanding EventId), while its 24-byte key
//     stays behind in its wheel slot as a tombstone, skipped wherever a
//     key is read. Tombstones are bounded: a wheel slot whose last live
//     event is cancelled returns its storage at once, and a slot (or the
//     executing tick) whose dead keys outnumber its live ones, past its
//     first two chunks, is compacted — amortised O(1) per
//     cancel — so key storage stays O(live events) even for a timer
//     re-armed forever into one tick. pending_count() and the residency
//     counters count live events only, and next_time() returns the
//     earliest live one.
//
// Implementation: a two-level hashed timer wheel with an indexed
// fallback heap. The protocol's delays are tightly bounded (TOF =
// 0.022 s, TOS = 0.021 s, δ ∈ [δ_min, δ_max] ≤ 10 s — the Varghese &
// Lauck sweet spot), so the overwhelming majority of events land in an
// O(1) fine-wheel slot within the 128 s default span. Longer-horizon
// timers (departure scripts, metrics flushes, δ_max-scale delays across
// fleet-sized models) land in a coarse upper wheel — 32 s slots, ~36 h
// span at the defaults — whose slots *cascade* into the fine wheel as
// the window advances. Only events beyond the coarse span wait in a
// binary min-heap of slot indices, keyed (time, seq), promoted as the
// window slides.
//
// Storage is streamed. An event is a 32-byte slot (its callable, its
// generation and where it waits), two per cache line, in a slab pool.
// Each wheel slot keeps its events' keys {time, seq, event index,
// generation} as one contiguous array in fixed-size chunks — a 64-byte
// first chunk, then 256-byte ones — from slab pools shared by every
// slot, so draining a slot is a sequential read rather than a walk of
// intrusive links.
//
// A wheel level's occupancy bitmap is the only record of which of its
// slots hold a chain. The per-slot chain heads are allocated without
// being initialised: a head is written when its slot opens (the insert
// that sets the slot's bit) and read only while that bit is set, so
// building a scheduler writes its two bitmaps (4.5 KiB at the defaults)
// and none of its 144 KiB of heads.
//
// The tick being executed is a small calendar queue (Brown, CACM 1988):
// its drained keys, and every event scheduled into it while it runs —
// nearly every 50–500 µs network delivery — land by time in
// 2^k sub-buckets, k sized from the tick's population so that a tick
// of a few events is one sorted run. A sub-bucket is sorted only when
// the cursor reaches it; pops are then cursor bumps, and an insert is
// an append (later sub-bucket) or a short sorted insert (the run under
// the cursor). There is no heap on the hot path.
//
// Dispatch is a software pipeline. A fleet-sized model is far larger
// than the caches, so each event's first touch of its slot and of its
// target object (the device, control point or network client it acts
// on) would be a dependent miss. The wheel knows the events to come:
// the rest of the tick's sorted run, which is topped up from the next
// sub-bucket before it runs short, so the lookahead crosses sub-bucket
// boundaries. After taking an event, fire_next() prefetches the slot
// line of the run entry kLookahead * 2 ahead (the pop's generation
// check reads it whether the event is live or not), then asks the
// callable of the entry kLookahead ahead — if that entry is live — to
// prefetch its target (util::InlineFunction's prefetch(); a callable
// without a `prefetch() const` member ignores it). Order is untouched.
// The pipeline runs only for ticks of at least kPipelineMinTick
// events: in a sparse tick there is nothing to look ahead to, and a
// model that sparse fits in cache, where the requests are pure cost.
//
// The reference backend (SchedulerBackend::kHeap) bypasses the wheel
// and runs everything through one indexed heap — the pre-wheel ordering
// oracle for equivalence tests, and a sanity fallback.
//
// The scheduler is single-threaded by design; the MODEST/MOBIUS tool
// chain the paper used is likewise a sequential simulator. Concurrency
// lives in src/runtime and scenario::SweepRunner (one scheduler per
// worker), not here.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/inline_function.hpp"
#include "util/slab_pool.hpp"

namespace probemon::des {

/// Virtual simulation time, seconds.
using Time = double;

/// Sentinel for "never" / "no deadline".
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Move-only event callback with a 16-byte inline capture buffer: room
/// for the hot-path captures (a `this` pointer plus one scalar) and no
/// more, so an event slot fits one cache line. Larger captures spill to
/// the heap (and are counted via util::inline_function_heap_allocations());
/// kernel and core call sites static_assert fits_inline so spills
/// cannot creep in.
using InlineCallback = util::InlineFunction<void(), 16>;

enum class SchedulerBackend : std::uint8_t {
  kWheel,  ///< hashed timer wheel + overflow heap (default, fast path)
  kHeap,   ///< single indexed binary heap (reference ordering oracle)
};

struct SchedulerConfig {
  SchedulerBackend backend = SchedulerBackend::kWheel;
  /// Wheel tick granularity = 2^-tick_bits seconds. Default 2^-8 s
  /// (~3.9 ms): fine enough that probe timeouts (21-22 ms) spread over
  /// several slots, coarse enough that a 10 s SAPP delay stays in-span.
  int tick_bits = 8;
  /// Wheel size = 2^wheel_bits slots. Default 32768 slots * 2^-8 s
  /// = 128 s span — every bounded protocol delay, plus the coarse
  /// scenario scripting (departures, outages) common in experiments,
  /// lands in an O(1) slot. Cost: 128 KiB of slot heads plus a 4 KiB
  /// occupancy bitmap per scheduler. A build writes only the bitmap; a
  /// head is written when its slot opens, so the table's pages become
  /// resident as slots are first used.
  int wheel_bits = 15;
  /// Upper (coarse) wheel level: one coarse slot covers
  /// 2^coarse_tick_bits fine ticks. -1 resolves to
  /// min(13, wheel_bits - 1) — 32 s per coarse slot at the defaults.
  /// The resolved value must stay strictly below wheel_bits so a
  /// cascaded coarse slot always fits inside the fine window.
  int coarse_tick_bits = -1;
  /// Coarse wheel size = 2^coarse_bits slots; 0 disables the coarse
  /// level (fine wheel + overflow heap only, the pre-hierarchical
  /// layout). Default 4096 slots * 32 s ≈ 36 h span: δ_max-scale
  /// timers across 10^6 entities, plus multi-hour departure scripts,
  /// stay O(1) instead of churning the overflow heap.
  int coarse_bits = 12;
};

/// Opaque handle to a scheduled event, usable for cancellation.
/// Value 0 is reserved as "invalid handle".
class EventId {
 public:
  constexpr EventId() noexcept = default;
  constexpr bool valid() const noexcept { return raw_ != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;

 private:
  friend class Scheduler;
  explicit constexpr EventId(std::uint64_t raw) noexcept : raw_(raw) {}
  std::uint64_t raw_ = 0;
};

/// Event queue with stable same-time ordering and in-place reclamation.
class Scheduler {
 public:
  using Callback = InlineCallback;

  Scheduler() : Scheduler(SchedulerConfig{}) {}
  explicit Scheduler(const SchedulerConfig& config);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  SchedulerBackend backend() const noexcept { return config_.backend; }

  /// Schedule `fn` at absolute time `t >= now()`. Throws std::logic_error
  /// on scheduling into the past or at a non-finite time.
  EventId schedule_at(Time t, Callback fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(Time delay, Callback fn) {
    if (!(delay >= 0)) throw std::logic_error("schedule_after: negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Returns true if the event was pending (and is
  /// now guaranteed not to fire), false if unknown/already fired/cancelled.
  /// The event's slot is reclaimed immediately (generation-tagged, so the
  /// stale handle can never alias a later event); on the wheel its key
  /// is left as a bounded tombstone (see the file comment).
  bool cancel(EventId id);

  /// True if the event is still pending. O(1): a pool index + generation
  /// check, no hashing.
  bool pending(EventId id) const noexcept;

  /// Number of live pending events.
  std::size_t pending_count() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// Time of the next live event, or kTimeInfinity. Non-mutating.
  Time next_time() const;

  /// Execute the single next event. Returns false if none remain.
  bool step() { return fire_next(kTimeInfinity); }

  /// Run events with time <= horizon (INCLUSIVE — an event landing
  /// exactly on the horizon fires, even when scheduled during the run);
  /// afterwards now() == horizon for finite horizons. Returns the number
  /// of events executed.
  std::uint64_t run_until(Time horizon);

  /// Drain the queue completely (with a safety cap on executed events;
  /// throws std::runtime_error if exceeded, catching runaway models).
  std::uint64_t run_all(std::uint64_t max_events = 500'000'000ULL);

  /// Total events executed over the scheduler's lifetime.
  std::uint64_t executed_count() const noexcept { return executed_; }

  /// Peak live pending-event count over the scheduler's lifetime (queue
  /// depth high-water mark; a capacity-planning signal for big models).
  std::size_t queue_high_water() const noexcept { return high_water_; }

  /// Event-slot pool occupancy (telemetry: slabs only ever grow, so a
  /// steady-state model must show a flat pool_slots()).
  std::size_t pool_slots() const noexcept { return pool_.capacity(); }
  std::size_t pool_in_use() const noexcept { return pool_.in_use(); }

  /// Keys the wheel's storage can hold: the chunk pools (slabs only
  /// ever grow) plus the executing tick's arrays. Like pool_slots(), flat in
  /// a steady-state model, and O(live events) however many cancels
  /// leave tombstones behind.
  std::size_t key_slots() const noexcept;

  /// Residency split across the wheel hierarchy (telemetry/tests): with
  /// the coarse level enabled, the overflow heap should only ever hold
  /// events beyond the coarse span (~36 h at the defaults).
  std::size_t fine_resident() const noexcept { return wheel_count_; }
  std::size_t coarse_resident() const noexcept { return coarse_count_; }
  std::size_t overflow_resident() const noexcept { return overflow_.size(); }

  /// Test/trace hook invoked as (time, seq) immediately before each
  /// event executes. Used by the ordering-equivalence tests to diff the
  /// wheel path against the reference heap path bit-for-bit.
  using ExecutionProbe = util::InlineFunction<void(Time, std::uint64_t)>;
  void set_execution_probe(ExecutionProbe probe) {
    exec_probe_ = std::move(probe);
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Dispatch pipeline depth: while one event runs, the run entry this
  /// many positions ahead prefetches its target and the one twice as
  /// far ahead its slot line (see the file comment).
  static constexpr std::size_t kLookahead = 4;
  /// Smallest executing-tick population for which the pipeline runs.
  /// Below 2 * kLookahead + 1 entries the slot-line prefetch has nothing
  /// to reach, and a model whose ticks hold that few events keeps its
  /// events and targets in cache (docs/performance.md, "Streamed
  /// wheel").
  static constexpr std::size_t kPipelineMinTick = 2 * kLookahead + 1;

  /// Where an event waits: a tag in the top bits of Event::where and a
  /// fine or coarse slot, or a heap position, below it. An event in the
  /// executing tick keeps the tag and slot of the fine slot it was
  /// drained from, slot_of(cur_tick_): no fine resident can use that
  /// slot while its tick executes, so the pair names the tick.
  enum class Where : std::uint32_t {
    kFree = 0,
    kFine = 1,      ///< a fine wheel slot, or the executing tick
    kCoarse = 2,    ///< a coarse wheel slot
    kOverflow = 3,  ///< indexed overflow heap (tick beyond both windows)
    kHeap = 4,      ///< single heap of the kHeap reference backend
  };
  static constexpr int kWhereShift = 29;
  static constexpr std::uint32_t kWhereMask = (1u << kWhereShift) - 1;
  static std::uint32_t make_where(Where tag, std::size_t at) noexcept {
    return (static_cast<std::uint32_t>(tag) << kWhereShift) |
           static_cast<std::uint32_t>(at);
  }
  static Where where_tag(std::uint32_t where) noexcept {
    return static_cast<Where>(where >> kWhereShift);
  }
  static std::size_t where_at(std::uint32_t where) noexcept {
    return where & kWhereMask;
  }

  /// One event slot is 32 bytes, two per cache line: a fleet-sized model
  /// keeps one pending event per control point, so the pool is far
  /// larger than the caches and every pop or cancel is a miss per line
  /// touched. The time and sequence number live in the event's key.
  struct alignas(32) Event {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t where = 0;  ///< make_where(tag, slot or heap position)
  };
  static_assert(sizeof(Event) == 32, "two event slots must share a cache line");

  /// An event's sort key plus the generation it was scheduled under. The
  /// wheel's slots, the executing tick and the heaps all hold keys; on
  /// the wheel a key whose generation no longer matches its event's is a
  /// tombstone (the heaps are indexed and never hold one).
  struct Key {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t index = kNil;
    std::uint32_t gen = 0;
  };
  using Heap = std::vector<Key>;

  /// Keys of one wheel slot are kept in a chain of chunks linked from
  /// the newest back to the oldest, every chunk full except the newest.
  /// The newest chunk's header also carries the slot's key and live
  /// counts, so an insert or a cancel touches one chunk. The oldest
  /// chunk is one cache line holding kFirstKeys keys, so a lightly used
  /// slot costs what one event did before; every later chunk is four
  /// lines holding kChunkKeys, read front to back.
  struct ChunkHeader {
    std::uint32_t prev;  ///< next older chunk of the slot, kNil at the oldest
    std::uint32_t size;  ///< newest chunk: keys in the slot, dead ones too
    std::uint32_t live;  ///< newest chunk: live keys in the slot
    std::uint32_t unused;
  };
  static constexpr std::uint32_t kFirstKeys = 2;
  static constexpr std::uint32_t kChunkKeys = 10;
  struct FirstChunk {
    ChunkHeader head;
    Key keys[kFirstKeys];
  };
  struct Chunk {
    ChunkHeader head;
    Key keys[kChunkKeys];
  };
  static_assert(sizeof(FirstChunk) == 64, "a first chunk is one cache line");
  static_assert(sizeof(Chunk) == 256, "a chunk is four cache lines");
  /// A chunk reference is a FirstChunk index, or a Chunk index tagged
  /// with kBigChunk.
  static constexpr std::uint32_t kBigChunk = 0x80000000u;
  ChunkHeader& header(std::uint32_t ref) noexcept {
    return (ref & kBigChunk) != 0 ? chunks_[ref & ~kBigChunk].head
                                  : firsts_[ref].head;
  }
  const ChunkHeader& header(std::uint32_t ref) const noexcept {
    return (ref & kBigChunk) != 0 ? chunks_[ref & ~kBigChunk].head
                                  : firsts_[ref].head;
  }
  Key* chunk_keys(std::uint32_t ref) noexcept {
    return (ref & kBigChunk) != 0 ? chunks_[ref & ~kBigChunk].keys
                                  : firsts_[ref].keys;
  }
  const Key* chunk_keys(std::uint32_t ref) const noexcept {
    return (ref & kBigChunk) != 0 ? chunks_[ref & ~kBigChunk].keys
                                  : firsts_[ref].keys;
  }
  /// Keys held by the newest chunk of a chain of `size` keys.
  static std::uint32_t newest_keys(std::uint32_t size) noexcept {
    return size <= kFirstKeys ? size : (size - kFirstKeys - 1) % kChunkKeys + 1;
  }
  /// Tombstones are compacted only in a slot (or tick) of more keys than
  /// this: below it a rebuild would free at most one chunk.
  static constexpr std::uint32_t kCompactKeys = kFirstKeys + kChunkKeys;
  /// Keys held by a full chunk: what every chunk past the newest holds.
  static std::uint32_t full_keys(std::uint32_t ref) noexcept {
    return (ref & kBigChunk) != 0 ? kChunkKeys : kFirstKeys;
  }

  /// Executing-tick geometry: about kSubKeys keys per sub-bucket, at
  /// most 2^kMaxSubBits sub-buckets (15 us each at the default tick, a
  /// fraction of the shortest network delay), and a run under the
  /// cursor that grows past kSplitRun keys by inserts into its middle
  /// re-splits the tick, so no insert moves more than 6 KiB of keys
  /// (docs/performance.md, "Streamed wheel").
  static constexpr std::size_t kSubKeys = 8;
  static constexpr unsigned kMaxSubBits = 8;
  static constexpr std::size_t kMaxSubs = std::size_t{1} << kMaxSubBits;
  static constexpr std::size_t kSplitRun = kMaxSubs;

  // --- id packing -----------------------------------------------------------
  static std::uint64_t make_raw(std::uint32_t index, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(index) + 1);
  }
  bool decode(EventId id, std::uint32_t& index, std::uint32_t& gen) const {
    if (!id.valid()) return false;
    index = static_cast<std::uint32_t>(id.raw_ & 0xffffffffu) - 1;
    gen = static_cast<std::uint32_t>(id.raw_ >> 32);
    return index < pool_.capacity();
  }
  bool live(const Key& key) const noexcept {
    return pool_[key.index].gen == key.gen;
  }

  // --- tick arithmetic ------------------------------------------------------
  std::int64_t tick_of(Time t) const noexcept {
    const double scaled = t * tick_scale_;
    // Clamp absurdly distant times; ordering never depends on the tick
    // (every structure keys on exact (time, seq)), only window placement
    // does.
    constexpr double kClamp = 4.0e18;
    return scaled >= kClamp ? static_cast<std::int64_t>(4'000'000'000'000'000'000LL)
                            : static_cast<std::int64_t>(scaled);
  }
  std::int64_t wheel_span() const noexcept {
    return std::int64_t{1} << config_.wheel_bits;
  }
  std::size_t slot_of(std::int64_t tick) const noexcept {
    return static_cast<std::size_t>(tick) & wheel_mask_;
  }
  bool coarse_enabled() const noexcept { return coarse_shift_ > 0; }
  /// Coarse tick containing a fine tick (coarse level enabled only).
  std::int64_t coarse_tick_of(std::int64_t tick) const noexcept {
    return tick >> coarse_shift_;
  }
  std::int64_t coarse_slot_count() const noexcept {
    return static_cast<std::int64_t>(coarse_mask_) + 1;
  }
  std::size_t coarse_slot_of(std::int64_t ctick) const noexcept {
    return static_cast<std::size_t>(ctick) & coarse_mask_;
  }
  /// First fine tick NOT covered by the coarse window: events at or past
  /// it wait in the overflow heap.
  std::int64_t coarse_window_end() const noexcept {
    return (coarse_tick_of(cur_tick_) + coarse_slot_count()) << coarse_shift_;
  }

  // --- indexed-heap primitives (keyed by (time, seq), positions written
  // back into Event::where) --------------------------------------------------
  static bool before(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// before() as a function object, so the sorts and searches inline it.
  struct KeyOrder {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return before(a, b);
    }
  };
  void set_heap_pos(std::uint32_t index, std::size_t pos) noexcept {
    Event& ev = pool_[index];
    ev.where = make_where(where_tag(ev.where), pos);
  }
  void heap_push(Heap& heap, const Key& key, Where tag);
  void heap_remove_at(Heap& heap, std::size_t pos);
  void sift_up(Heap& heap, std::size_t pos);
  void sift_down(Heap& heap, std::size_t pos);

  // --- slot key chains (fine and coarse wheel) ------------------------------
  /// Append a key to the slot whose newest chunk is `chain`, opening the
  /// chain when it is empty (the caller sets the occupancy bit).
  void chain_append(std::uint32_t& chain, const Key& key);
  void release_chunk(std::uint32_t ref);
  void chain_release(std::uint32_t chain);
  /// Call f(keys, n) for every chunk of a chain (kNil is an empty chain).
  template <class F>
  void for_each_chunk(std::uint32_t chain, F&& f) const;
  /// Call f(key) for every key of a chain, releasing each chunk once it
  /// is read (f may append to other chains and reuse them).
  template <class F>
  void consume_chain(std::uint32_t chain, F&& f);
  /// Rebuild a chain from its live keys (kNil when none is left).
  void chain_rebuild(std::uint32_t& chain);
  /// A cancel left the slot with one live key fewer: release an emptied
  /// slot, or drop the tombstones of one that is mostly tombstones.
  /// Returns true when the slot was released; its head is then stale,
  /// and the caller closes the slot.
  bool chain_cancelled(std::uint32_t& chain);
  /// Earliest live key time in a chain (kTimeInfinity if none).
  Time chain_min_live(std::uint32_t chain) const;
  /// Every key of a slot shares its tick, tombstones included.
  Time chain_tick_time(std::uint32_t chain) const {
    return chunk_keys(chain)[0].time;
  }

  // --- slot heads -----------------------------------------------------------
  /// The newest chunk of an open fine (coarse) slot, read only while the
  /// slot's occupancy bit is set (checked builds verify it): a closed
  /// slot's head is stale or was never written.
  const std::uint32_t& fine_head(std::size_t slot) const noexcept;
  std::uint32_t& fine_head(std::size_t slot) noexcept {
    return const_cast<std::uint32_t&>(std::as_const(*this).fine_head(slot));
  }
  const std::uint32_t& coarse_head(std::size_t slot) const noexcept;
  std::uint32_t& coarse_head(std::size_t slot) noexcept {
    return const_cast<std::uint32_t&>(std::as_const(*this).coarse_head(slot));
  }

  // --- wheel primitives -----------------------------------------------------
  void wheel_insert(const Key& key);
  void drain_slot_into_tick(std::size_t slot);
  void promote_overflow();
  std::size_t next_occupied_slot() const;  ///< requires wheel_count_ > 0

  // --- coarse (upper-level) wheel primitives --------------------------------
  void coarse_insert(const Key& key);
  /// Move every live event of one coarse slot down into the fine wheel.
  /// The caller has already advanced cur_tick_ to just before the slot's
  /// window, so each event lands strictly inside the fine span.
  void cascade_coarse_slot(std::size_t slot);
  std::size_t next_occupied_coarse_slot() const;  ///< requires coarse_count_ > 0

  // --- the executing tick (calendar queue) ----------------------------------
  /// Sub-bucket of time t under the tick's current geometry; monotone
  /// non-decreasing in t, which is all exact ordering needs.
  std::size_t sub_of(Time t) const noexcept {
    const double x = (t - sub_base_) * sub_scale_;
    if (!(x > 0)) return 0;
    const double last = static_cast<double>(sub_count_ - 1);
    return x >= last ? sub_count_ - 1 : static_cast<std::size_t>(x);
  }
  /// Lay the tick out as 2^bits sub-buckets from `base`, `scale`
  /// sub-buckets per second.
  void set_tick_geometry(unsigned bits, Time base, double scale);
  void tick_insert(const Key& key);
  /// Put a key into its sub-bucket, or into the sorted run when its
  /// sub-bucket has already been merged into it. Returns the key's
  /// position in the run, or kNotInRun.
  static constexpr std::size_t kNotInRun = ~std::size_t{0};
  std::size_t tick_place(const Key& key);
  /// Merge sub-buckets into the sorted run until it holds at least
  /// `window` entries past the cursor or none are left.
  void top_up(std::size_t window);
  void resplit_tick();
  void compact_tick();
  void clear_tick();
  /// Earliest live key time in the executing tick (kTimeInfinity if none).
  Time tick_min_live() const;

  // --- core paths -----------------------------------------------------------
  void place(const Key& key);
  void cancel_in_fine(std::size_t slot);
  void cancel_in_coarse(std::size_t slot);
  bool refill_tick();
  /// Issue the dispatch pipeline's prefetches for the events after the
  /// one just taken (wheel backend).
  void prefetch_ahead() const noexcept;
  bool fire_next(Time horizon);
  void free_slot(std::uint32_t index);

  SchedulerConfig config_;
  double tick_scale_ = 256.0;  ///< 2^tick_bits
  double tick_width_ = 1.0 / 256.0;  ///< 2^-tick_bits, exact
  std::size_t wheel_mask_ = 0;

  util::SlabPool<Event> pool_;
  /// One-page (4 KiB) chunk slabs: a scheduler that holds a few events
  /// touches 16 KiB with its first event slab, as when events were 64
  /// bytes and keyless.
  util::SlabPool<FirstChunk, 6> firsts_;
  util::SlabPool<Chunk, 4> chunks_;

  // The executing tick. `run_` holds the keys of every sub-bucket below
  // next_sub_, sorted by (time, seq) and consumed from run_pos_; each
  // sub-bucket at or above it is an unsorted array, marked in sub_occ_
  // while non-empty.
  std::vector<Key> run_;
  std::size_t run_pos_ = 0;
  std::vector<std::vector<Key>> subs_;
  std::uint64_t sub_occ_[kMaxSubs / 64] = {};
  std::size_t sub_count_ = 1;
  unsigned sub_bits_ = 0;
  std::size_t next_sub_ = 1;
  Time sub_base_ = 0.0;
  double sub_scale_ = 0.0;
  std::size_t tick_keys_ = 0;  ///< keys left in the tick, tombstones too
  std::size_t tick_live_ = 0;  ///< live events left in the tick
  bool pipeline_ = false;      ///< tick_live_ >= kPipelineMinTick at drain
  std::vector<Key> scratch_;   ///< resplit_tick()'s staging array

  Heap overflow_;          ///< events beyond the wheel window
  Heap heap_;              ///< kHeap backend: the only structure in use
  /// Wheel slot -> newest chunk, not initialised (see fine_head()).
  std::unique_ptr<std::uint32_t[]> slot_chunk_;
  std::vector<std::uint64_t> slot_bits_;  ///< occupancy bitmap over slots
  std::size_t wheel_count_ = 0;           ///< live events in fine slots
  /// Coarse slot -> newest chunk, not initialised (see coarse_head()).
  std::unique_ptr<std::uint32_t[]> coarse_chunk_;
  std::vector<std::uint64_t> coarse_occ_;   ///< occupancy bitmap
  std::size_t coarse_count_ = 0;            ///< live events in coarse slots
  int coarse_shift_ = 0;  ///< log2 fine ticks per coarse slot; 0 = disabled
  std::size_t coarse_mask_ = 0;
  std::int64_t cur_tick_ = 0;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  ExecutionProbe exec_probe_;
};

}  // namespace probemon::des
