#include "telemetry/registry.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace probemon::telemetry {

namespace {

/// The one sort-key encoding, shared by make_key and the cached order.
void append_label(std::string& key, std::string_view k, std::string_view v) {
  key += '\x1f';
  key += k;
  key += '\x1e';
  key += v;
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Value fingerprint for delta scrapes: any observable mutation moves
/// it. Counters fingerprint as the value itself; gauges as the bit
/// pattern (set() to the identical value is not a change); histograms
/// mix count and sum so replayed/reset states with equal counts still
/// register.
std::uint64_t fingerprint_of(const Counter* counter, const Gauge* gauge,
                             const Histogram* histogram, bool has_callback,
                             double callback_value) {
  if (has_callback) return double_bits(callback_value);
  if (counter != nullptr) return counter->value();
  if (gauge != nullptr) return double_bits(gauge->value());
  if (histogram != nullptr) {
    return histogram->count() * 0x100000001b3ULL ^
           double_bits(histogram->sum());
  }
  return 0;
}

/// Sort materialized samples into snapshot() order.
void sort_samples(std::vector<Sample>& samples) {
  std::vector<std::string> keys;
  keys.reserve(samples.size());
  for (const Sample& s : samples) {
    keys.push_back(detail::make_key(s.name, s.labels));
  }
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&keys](std::size_t a, std::size_t b) {
    return keys[a] < keys[b];
  });
  std::vector<Sample> sorted;
  sorted.reserve(samples.size());
  for (std::size_t i : order) sorted.push_back(std::move(samples[i]));
  samples = std::move(sorted);
}

}  // namespace

namespace detail {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  return valid_metric_name(name) && name.find(':') == std::string_view::npos;
}

std::string make_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) append_label(key, k, v);
  return key;
}

}  // namespace detail

const char* to_string(MetricType type) noexcept {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

std::size_t Registry::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(key.name);
  for (const auto& [k, v] : key.labels) {
    mix(k);
    mix(v);
  }
  return static_cast<std::size_t>(h);
}

Registry::Registry(LabelInterner* interner) : interner_(interner) {}

std::uint32_t Registry::intern_name(std::string_view name) {
  if (!detail::valid_metric_name(name)) {
    throw std::invalid_argument("Registry: invalid metric name '" +
                                std::string(name) + "'");
  }
  return interner_->intern(name);
}

std::uint32_t Registry::intern_label_name(std::string_view name) {
  if (!detail::valid_label_name(name)) {
    throw std::invalid_argument("Registry: invalid label name '" +
                                std::string(name) + "'");
  }
  return interner_->intern(name);
}

std::uint32_t Registry::intern(std::string_view value) {
  return interner_->intern(value);
}

LabelIds Registry::intern_labels(const Labels& labels) {
  LabelIds out;
  out.reserve(labels.size());
  for (const auto& [k, v] : labels) {
    out.emplace_back(intern_label_name(k), interner_->intern(v));
  }
  return out;
}

Registry::Entry& Registry::find_or_create(std::uint32_t name,
                                          LabelIds labels,
                                          std::uint32_t help_id,
                                          MetricType type, bool is_callback,
                                          bool from_merge) {
  auto [it, inserted] = entries_.try_emplace(Key{name, std::move(labels)});
  Entry& entry = it->second;
  if (inserted) {
    entry.help = help_id;
    entry.type = type;
    entry.help_from_merge = from_merge;
    entry.scan_index = scan_.size();
    ScanSlot slot;
    slot.key = &it->first;
    slot.entry = &entry;
    scan_.push_back(slot);
    order_.clear();
    return entry;
  }
  if (entry.type != type) {
    throw std::logic_error("Registry: '" + std::string(interner_->str(name)) +
                           "' already registered as " +
                           std::string(to_string(entry.type)));
  }
  const bool was_callback = static_cast<bool>(entry.callback);
  if (was_callback != is_callback) {
    throw std::logic_error("Registry: '" + std::string(interner_->str(name)) +
                           "' mixes owned and callback registration");
  }
  // Help text: an explicit registration beats (and un-stales) help that
  // only arrived via merge_from; merges never overwrite existing help.
  if (help_id != 0) {
    if (entry.help == 0) {
      entry.help = help_id;
      entry.help_from_merge = from_merge;
    } else if (entry.help_from_merge && !from_merge) {
      entry.help = help_id;
      entry.help_from_merge = false;
    }
  }
  return entry;
}

void Registry::sync_slot(const Entry& entry) {
  ScanSlot& slot = scan_[entry.scan_index];
  slot.counter = entry.counter.get();
  slot.gauge = entry.gauge.get();
  slot.histogram = entry.histogram.get();
  slot.callback = entry.callback ? &entry.callback : nullptr;
}

Counter& Registry::counter_ids(std::uint32_t name, LabelIds labels,
                               std::uint32_t help_id) {
  util::MutexLock lock(mutex_);
  Entry& entry = find_or_create(name, std::move(labels), help_id,
                                MetricType::kCounter, false, false);
  if (!entry.counter) {
    entry.counter = std::make_unique<Counter>();
    sync_slot(entry);
  }
  return *entry.counter;
}

Gauge& Registry::gauge_ids(std::uint32_t name, LabelIds labels,
                           std::uint32_t help_id) {
  util::MutexLock lock(mutex_);
  Entry& entry = find_or_create(name, std::move(labels), help_id,
                                MetricType::kGauge, false, false);
  if (!entry.gauge) {
    entry.gauge = std::make_unique<Gauge>();
    sync_slot(entry);
  }
  return *entry.gauge;
}

Histogram& Registry::histogram_ids(std::uint32_t name,
                                   std::vector<double> bounds,
                                   LabelIds labels,
                                   std::uint32_t help_id) {
  util::MutexLock lock(mutex_);
  Entry& entry = find_or_create(name, std::move(labels), help_id,
                                MetricType::kHistogram, false, false);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
    sync_slot(entry);
  }
  return *entry.histogram;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  return counter_ids(intern_name(name), intern_labels(labels),
                     interner_->intern(help));
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  return gauge_ids(intern_name(name), intern_labels(labels),
                   interner_->intern(help));
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const std::string& help, const Labels& labels) {
  return histogram_ids(intern_name(name), std::move(bounds),
                       intern_labels(labels), interner_->intern(help));
}

void Registry::set_callback(const std::string& name,
                            std::function<double()> fn,
                            const std::string& help, const Labels& labels,
                            MetricType type) {
  if (!fn) throw std::invalid_argument("Registry: empty callback");
  const std::uint32_t name_id = intern_name(name);
  LabelIds label_ids = intern_labels(labels);
  const std::uint32_t help_id = interner_->intern(help);
  util::MutexLock lock(mutex_);
  Entry& entry =
      find_or_create(name_id, std::move(label_ids), help_id, type, true, false);
  entry.callback = std::move(fn);
  sync_slot(entry);
}

void Registry::gauge_callback(const std::string& name,
                              std::function<double()> fn,
                              const std::string& help, const Labels& labels) {
  set_callback(name, std::move(fn), help, labels, MetricType::kGauge);
}

void Registry::counter_callback(const std::string& name,
                                std::function<double()> fn,
                                const std::string& help,
                                const Labels& labels) {
  set_callback(name, std::move(fn), help, labels, MetricType::kCounter);
}

bool Registry::remove(const std::string& name, const Labels& labels) {
  Key key{interner_->intern(name), {}};
  key.labels.reserve(labels.size());
  for (const auto& [k, v] : labels) {
    key.labels.emplace_back(interner_->intern(k), interner_->intern(v));
  }
  util::MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  const std::size_t idx = it->second.scan_index;
  scan_[idx] = scan_.back();
  scan_[idx].entry->scan_index = idx;
  scan_.pop_back();
  entries_.erase(it);
  order_.clear();
  return true;
}

std::size_t Registry::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

const std::vector<std::uint32_t>& Registry::key_order() const {
  if (order_.size() == scan_.size()) return order_;
  std::vector<std::string> keys;
  keys.reserve(scan_.size());
  for (const ScanSlot& slot : scan_) {
    std::string key(interner_->str(slot.key->name));
    for (const auto& [k, v] : slot.key->labels) {
      append_label(key, interner_->str(k), interner_->str(v));
    }
    keys.push_back(std::move(key));
  }
  order_.resize(scan_.size());
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  std::sort(order_.begin(), order_.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              return keys[a] < keys[b];
            });
  return order_;
}

Sample Registry::sample_of(const ScanSlot& slot,
                           double callback_value) const {
  const LabelInterner& strings = *interner_;
  const Key& key = *slot.key;
  // Strings are constructed in place rather than assigned afterwards:
  // snapshot() is the history sampler's per-tick path, and the extra
  // default-construct + assign showed up in BM_HistorySample.
  Sample s{.name = std::string(strings.str(key.name)),
           .help = std::string(strings.str(slot.entry->help)),
           .labels = {},
           .type = slot.entry->type,
           .bounds = {},
           .buckets = {}};
  s.labels.reserve(key.labels.size());
  for (const auto& [k, v] : key.labels) {
    s.labels.emplace_back(strings.str(k), strings.str(v));
  }
  if (slot.callback != nullptr) {
    s.value = callback_value;
  } else if (slot.counter != nullptr) {
    s.value = static_cast<double>(slot.counter->value());
  } else if (slot.gauge != nullptr) {
    s.value = slot.gauge->value();
  } else if (const Histogram* h = slot.histogram; h != nullptr) {
    s.bounds = h->upper_bounds();
    s.buckets.reserve(h->bucket_count());
    for (std::size_t i = 0; i < h->bucket_count(); ++i) {
      s.buckets.push_back(h->bucket(i));
    }
    s.count = h->count();
    s.sum = h->sum();
  }
  return s;
}

std::vector<Sample> Registry::snapshot() const {
  util::MutexLock lock(mutex_);
  std::vector<Sample> out;
  out.reserve(scan_.size());
  for (const std::uint32_t idx : key_order()) {
    const ScanSlot& slot = scan_[idx];
    out.push_back(
        sample_of(slot, slot.callback != nullptr ? (*slot.callback)() : 0.0));
  }
  return out;
}

std::vector<Sample> Registry::snapshot_delta(std::uint64_t& since,
                                             bool full) const {
  util::MutexLock lock(mutex_);
  const std::uint64_t epoch = ++scrape_epoch_;
  // A full delta walks the cached key order; a partial one sweeps the
  // scan array sequentially and sorts only what changed.
  const bool all = full || since == 0;
  std::vector<Sample> out;
  auto visit = [this, &out, epoch, since, all](ScanSlot& slot) {
    const bool has_callback = slot.callback != nullptr;
    const double callback_value = has_callback ? (*slot.callback)() : 0.0;
    const std::uint64_t fp =
        fingerprint_of(slot.counter, slot.gauge, slot.histogram,
                       has_callback, callback_value);
    if (slot.change_epoch == 0 || fp != slot.fingerprint) {
      slot.fingerprint = fp;
      slot.change_epoch = epoch;
    }
    if (all || slot.change_epoch > since) {
      out.push_back(sample_of(slot, callback_value));
    }
  };
  if (all) {
    out.reserve(scan_.size());
    for (const std::uint32_t idx : key_order()) visit(scan_[idx]);
  } else {
    for (ScanSlot& slot : scan_) visit(slot);
    sort_samples(out);
  }
  since = epoch;
  return out;
}

void Registry::merge_from(const Registry& other) {
  if (&other == this) return;
  util::MutexLock source_lock(other.mutex_);
  util::MutexLock lock(mutex_);
  // Ids are shared when both registries use one interner; otherwise
  // each source string is re-interned here.
  const bool same_ids = other.interner_ == interner_;
  auto local = [this, &other, same_ids](std::uint32_t id) {
    return same_ids ? id : interner_->intern(other.interner_->str(id));
  };
  LabelIds labels;
  for (const std::uint32_t idx : other.key_order()) {
    const ScanSlot& source = other.scan_[idx];
    if (source.callback != nullptr) continue;  // closures stay home
    labels.clear();
    for (const auto& [k, v] : source.key->labels) {
      labels.emplace_back(local(k), local(v));
    }
    Entry& entry =
        find_or_create(local(source.key->name), labels,
                       local(source.entry->help), source.entry->type, false,
                       /*from_merge=*/true);
    if (source.counter != nullptr) {
      if (!entry.counter) {
        entry.counter = std::make_unique<Counter>();
        sync_slot(entry);
      }
      entry.counter->inc(source.counter->value());
    } else if (source.gauge != nullptr) {
      if (!entry.gauge) {
        entry.gauge = std::make_unique<Gauge>();
        sync_slot(entry);
      }
      entry.gauge->set(source.gauge->value());
    } else if (source.histogram != nullptr) {
      if (!entry.histogram) {
        entry.histogram =
            std::make_unique<Histogram>(source.histogram->upper_bounds());
        sync_slot(entry);
      }
      entry.histogram->merge_from(*source.histogram);
    }
  }
}

}  // namespace probemon::telemetry
