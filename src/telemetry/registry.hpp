// Registry: the metric store — named, labelled metric instances with
// point-in-time snapshots.
//
// Registration (finding or creating a metric by name + labels) takes
// the registry's mutex and returns a stable reference; callers hold
// that reference and update it lock-free afterwards. The intended
// pattern is therefore "register once at setup, increment forever":
//
//   auto& probes = registry.counter("probemon_cp_probes_sent_total",
//                                   "Probes transmitted by CPs",
//                                   {{"device", "7"}});
//   ...
//   probes.inc();                      // hot path, no registry involved
//
// Names, help text and label strings are interned once in a
// LabelInterner (u32 ids, lock-free reads) and entries are keyed by id
// sequences, so a lookup hashes a few u32s instead of building a key
// string. The id overloads (counter_ids() etc.) skip string handling
// entirely — the path for per-entity registration loops:
//
//   const auto name = reg.intern_name("probemon_entity_rtt_total");
//   const auto dev = reg.intern_label_name("device");
//   for (auto& e : fleet) {
//     e.rtt = &reg.counter_ids(name, {{dev, reg.intern(e.id_str)}});
//   }
//
// Interned strings live as long as the interner: remove() drops the
// series, not its strings.
//
// Besides owned metrics, registries accept *callback* metrics — a
// function evaluated at snapshot time — for values some component
// already tracks (scheduler event counts, device load). The callback's
// captures must outlive the registry or be removed via remove().
//
// Snapshots are sorted by (name, labels) in detail::make_key's byte
// order. The registry keeps that order as a cached permutation of its
// entries and rebuilds it only after a series was added or removed.
//
// Delta scrapes: snapshot_delta(since) bumps the registry's scrape
// epoch, stamps each entry whose value fingerprint moved since the last
// scrape with the new epoch, and returns only entries stamped after
// `since` — so a scraper that keeps its own `since` cursor pays
// O(changed) for serialization, not O(total). The epoch is taken under
// the same lock as the walk, so independent cursors never lose a
// change. See export.hpp's DeltaExporter.
//
// Naming follows Prometheus conventions: names match
// [a-zA-Z_:][a-zA-Z0-9_:]*, label names [a-zA-Z_][a-zA-Z0-9_]*, and the
// same name must always carry the same type and help text (enforced,
// throws std::logic_error on conflict).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/interner.hpp"
#include "telemetry/metric.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::telemetry {

/// Label set, e.g. {{"device", "7"}, {"protocol", "dcpp"}}. Order given
/// at registration is preserved in exposition.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* to_string(MetricType type) noexcept;

/// Point-in-time value of one metric instance.
struct Sample {
  std::string name;
  std::string help;
  Labels labels;
  MetricType type = MetricType::kCounter;
  double value = 0.0;  ///< counter / gauge reading
  // Histogram-only:
  std::vector<double> bounds;           ///< finite upper bounds
  std::vector<std::uint64_t> buckets;   ///< non-cumulative, +Inf last
  std::uint64_t count = 0;
  double sum = 0.0;
};

namespace detail {
bool valid_metric_name(std::string_view name);
bool valid_label_name(std::string_view name);
/// Sort key: name + label pairs with unprintable separators so distinct
/// label sets can never collide with a crafted name. Snapshots are
/// ordered by this key byte-wise.
std::string make_key(const std::string& name, const Labels& labels);
}  // namespace detail

class Registry {
 public:
  /// All registries sharing `interner` (default: the process-wide one)
  /// have comparable ids.
  explicit Registry(LabelInterner* interner = &LabelInterner::global());

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- string API: interns, then finds by ids --------------------------
  /// Find-or-create. Throws std::invalid_argument on a malformed name or
  /// label, std::logic_error if the name is already registered with a
  /// different type.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const Labels& labels = {}) PROBEMON_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const Labels& labels = {}) PROBEMON_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "",
                       const Labels& labels = {}) PROBEMON_EXCLUDES(mutex_);

  /// Callback metrics: `fn` is evaluated under the registry's lock at
  /// snapshot time. Re-registering the same name+labels replaces the
  /// callback (so a reconstructed component can rebind safely).
  void gauge_callback(const std::string& name, std::function<double()> fn,
                      const std::string& help = "",
                      const Labels& labels = {}) PROBEMON_EXCLUDES(mutex_);
  void counter_callback(const std::string& name, std::function<double()> fn,
                        const std::string& help = "",
                        const Labels& labels = {}) PROBEMON_EXCLUDES(mutex_);

  /// Drop one metric instance. Returns true if it existed. Use before a
  /// callback's captures die. References previously returned for the
  /// instance dangle afterwards.
  bool remove(const std::string& name, const Labels& labels = {})
      PROBEMON_EXCLUDES(mutex_);

  // --- id API: allocation-free find path for per-entity loops ----------
  /// Intern a metric/label name with validation (throws
  /// std::invalid_argument like the string API) — call once at setup.
  std::uint32_t intern_name(std::string_view name);
  std::uint32_t intern_label_name(std::string_view name);
  /// Intern an arbitrary label value or help text (no validation).
  std::uint32_t intern(std::string_view value);
  /// Intern a whole label set.
  LabelIds intern_labels(const Labels& labels);

  /// Find-or-create by interned ids. `name` must come from
  /// intern_name(), label-name ids from intern_label_name(); help_id 0
  /// means no help text.
  Counter& counter_ids(std::uint32_t name, LabelIds labels = {},
                       std::uint32_t help_id = 0) PROBEMON_EXCLUDES(mutex_);
  Gauge& gauge_ids(std::uint32_t name, LabelIds labels = {},
                   std::uint32_t help_id = 0) PROBEMON_EXCLUDES(mutex_);
  Histogram& histogram_ids(std::uint32_t name, std::vector<double> bounds,
                           LabelIds labels = {}, std::uint32_t help_id = 0)
      PROBEMON_EXCLUDES(mutex_);

  std::size_t size() const PROBEMON_EXCLUDES(mutex_);

  /// Consistent point-in-time copy, sorted by (name, labels).
  std::vector<Sample> snapshot() const PROBEMON_EXCLUDES(mutex_);

  /// Delta scrape: advance the scrape epoch, restamp entries whose value
  /// changed, and return entries changed since `since` (sorted like
  /// snapshot()); `since` is updated to the new epoch so the next call
  /// continues from here. `full` returns every entry but still advances
  /// the cursor — the "?full=1" escape hatch. since == 0 always yields
  /// a full snapshot (first scrape). Multiple independent scrapers each
  /// keep their own cursor.
  std::vector<Sample> snapshot_delta(std::uint64_t& since,
                                     bool full = false) const
      PROBEMON_EXCLUDES(mutex_);

  /// Fold another registry's owned metrics into this one (counters add
  /// exactly in u64, gauges take the source value, histograms merge
  /// bucket-wise; callback metrics are skipped — their captures belong
  /// to the source). Entries are visited in (name, labels) order, so
  /// the result is deterministic. This is the sweep-runner barrier step
  /// and the collector's aggregation step. Throws std::logic_error when
  /// a source entry conflicts with an existing registration (different
  /// type, or an owned/callback mismatch). Holds both locks (source
  /// first), so merges in opposite directions must not run concurrently.
  void merge_from(const Registry& other) PROBEMON_EXCLUDES(mutex_);

 private:
  PROBEMON_TSA_SELFTEST_HOOK

  struct Key {
    std::uint32_t name = 0;
    LabelIds labels;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  struct Entry {
    std::uint32_t help = 0;  ///< interned; 0 = none
    MetricType type = MetricType::kCounter;
    /// Help text inherited from merge_from, not an explicit
    /// registration; a later explicit registration may replace it (so a
    /// remove + merge cycle cannot resurrect stale help — see
    /// tests/test_telemetry.cpp RemoveThenMerge*).
    bool help_from_merge = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;  ///< exclusive with the three above
    std::size_t scan_index = 0;        ///< this entry's slot in scan_
  };

  /// Hot change-detection state, one slot per entry, in one contiguous
  /// vector. A delta scrape must fingerprint every series to find the
  /// changed ones; chasing hash-map nodes for that costs a cache miss
  /// per entry, while sweeping this array is sequential (the metric
  /// objects are allocated in registration order, so the one remaining
  /// indirection prefetches well). Slots point into the map's nodes,
  /// which are address-stable until erased; remove() swap-deletes the
  /// slot and patches the moved entry's scan_index.
  struct ScanSlot {
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    const std::function<double()>* callback = nullptr;
    const Key* key = nullptr;
    Entry* entry = nullptr;
    std::uint64_t fingerprint = 0;
    std::uint64_t change_epoch = 0;  ///< 0 = never scraped
  };

  Entry& find_or_create(std::uint32_t name, LabelIds labels,
                        std::uint32_t help_id, MetricType type,
                        bool is_callback, bool from_merge)
      PROBEMON_REQUIRES(mutex_);
  /// Point the entry's scan slot at its (lazily created) metric.
  void sync_slot(const Entry& entry) PROBEMON_REQUIRES(mutex_);
  /// Scan indices in (name, labels) key order; rebuilt here when a
  /// series was added or removed since the last call.
  const std::vector<std::uint32_t>& key_order() const
      PROBEMON_REQUIRES(mutex_);
  void set_callback(const std::string& name, std::function<double()> fn,
                    const std::string& help, const Labels& labels,
                    MetricType type) PROBEMON_EXCLUDES(mutex_);
  /// Materialize one slot's Sample back to strings.
  Sample sample_of(const ScanSlot& slot, double callback_value) const;

  LabelInterner* interner_;
  mutable util::Mutex mutex_{"telemetry.Registry"};
  std::unordered_map<Key, Entry, KeyHash> entries_ PROBEMON_GUARDED_BY(mutex_);
  /// Mutable: a delta scrape restamps fingerprints (observing change is
  /// logically const).
  mutable std::vector<ScanSlot> scan_ PROBEMON_GUARDED_BY(mutex_);
  /// A cache, empty while stale (cleared on add/remove); see key_order().
  mutable std::vector<std::uint32_t> order_ PROBEMON_GUARDED_BY(mutex_);
  mutable std::uint64_t scrape_epoch_ PROBEMON_GUARDED_BY(mutex_) = 0;
};

}  // namespace probemon::telemetry
