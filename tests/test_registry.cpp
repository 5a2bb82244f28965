// Registry internals: the interned-id API, the cached key order, delta
// scrape semantics (including cursors racing from several threads),
// merges across interners, and interner/registration thread-safety (the
// concurrent cases are what the TSan build exercises).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/registry.hpp"

namespace probemon::telemetry {
namespace {

/// Populate a registry with mixed content through the string API.
void populate_mixed(Registry& store) {
  store.counter("probemon_probes_total", "Probes sent", {{"cp", "a"}}).inc(7);
  store.counter("probemon_probes_total", "Probes sent", {{"cp", "b"}}).inc(2);
  store.counter("probemon_losses_total").inc(11);
  store.gauge("probemon_watches", "Watched devices").set(3);
  store.gauge("probemon_load", "", {{"device", "9"}, {"kind", "cpu"}})
      .set(0.25);
  auto& h = store.histogram("probemon_cycle_seconds", {0.1, 1.0, 10.0},
                            "Cycle latency");
  h.observe(0.05);
  h.observe(5.0);
  h.observe(100.0);
  store.gauge_callback("probemon_uptime", [] { return 42.0; }, "Uptime");
}

TEST(Registry, ExpositionIsIndependentOfInternerIds) {
  Registry plain;
  populate_mixed(plain);
  // A private interner seeded in reverse hands out different ids for
  // the same strings; the exposition is ordered by the strings.
  LabelInterner interner;
  for (const char* s : {"probemon_watches", "cpu", "kind", "b", "a",
                        "probemon_probes_total", "probemon_cycle_seconds"}) {
    interner.intern(s);
  }
  Registry reordered(&interner);
  populate_mixed(reordered);
  EXPECT_EQ(to_prometheus(reordered), to_prometheus(plain));
  EXPECT_EQ(to_json(reordered), to_json(plain));
}

TEST(Registry, IdAndStringApisReturnTheSameInstance) {
  LabelInterner interner;
  Registry reg(&interner);
  Counter& by_string =
      reg.counter("probemon_probes_total", "Probes", {{"cp", "a"}});
  const auto name = reg.intern_name("probemon_probes_total");
  const LabelIds labels{{reg.intern_label_name("cp"), reg.intern("a")}};
  Counter& by_id = reg.counter_ids(name, labels);
  EXPECT_EQ(&by_string, &by_id);
  by_id.inc(5);
  EXPECT_EQ(by_string.value(), 5u);
}

TEST(Registry, TypeAndCallbackConflictsThrow) {
  LabelInterner interner;
  Registry reg(&interner);
  reg.counter("probemon_x_total");
  EXPECT_THROW(reg.gauge("probemon_x_total"), std::logic_error);
  EXPECT_THROW(reg.counter_callback("probemon_x_total", [] { return 1.0; }),
               std::logic_error);
  EXPECT_THROW(reg.counter("9bad"), std::invalid_argument);
  EXPECT_THROW(reg.counter("probemon_ok_total", "", {{"9bad", "v"}}),
               std::invalid_argument);
}

TEST(Registry, RemoveKeepsScanIndexConsistent) {
  LabelInterner interner;
  Registry reg(&interner);
  for (int i = 0; i < 8; ++i) {
    reg.counter("probemon_c_total", "", {{"i", std::to_string(i)}})
        .inc(static_cast<std::uint64_t>(i));
  }
  EXPECT_TRUE(reg.remove("probemon_c_total", {{"i", "3"}}));
  EXPECT_FALSE(reg.remove("probemon_c_total", {{"i", "3"}}));
  EXPECT_EQ(reg.size(), 7u);
  // The swap-removed slot must still scrape every survivor exactly once.
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 7u);
  for (const Sample& s : samples) {
    EXPECT_NE(s.labels[0].second, "3");
  }
  // Re-creation after remove starts a fresh series (even as a new type).
  reg.gauge("probemon_c_total2").set(1.0);
  EXPECT_TRUE(reg.remove("probemon_c_total2", {}));
  reg.counter("probemon_c_total2").inc(9);
  EXPECT_EQ(reg.snapshot().size(), 8u);
}

TEST(Registry, CachedOrderSurvivesAddRemoveAndReAdd) {
  LabelInterner interner;
  Registry reg(&interner);
  reg.gauge("probemon_a", "A").set(1.5);
  for (int i = 0; i < 16; ++i) {
    reg.counter("probemon_c_total", "C", {{"i", std::to_string(i)}})
        .inc(static_cast<std::uint64_t>(i));
  }
  (void)to_prometheus(reg);  // builds the cached order
  // Removing the first slot and one from the middle swap-deletes scan
  // slots; scrape in between so the order is rebuilt over the holes.
  ASSERT_TRUE(reg.remove("probemon_a"));
  ASSERT_TRUE(reg.remove("probemon_c_total", {{"i", "3"}}));
  (void)to_prometheus(reg);
  reg.counter("probemon_b_total", "B").inc(4);
  reg.counter("probemon_c_total", "C", {{"i", "3"}}).inc(30);
  reg.gauge("probemon_a", "A").set(2.5);

  LabelInterner fresh_interner;
  Registry fresh(&fresh_interner);
  for (int i = 15; i >= 0; --i) {
    fresh.counter("probemon_c_total", "C", {{"i", std::to_string(i)}})
        .inc(i == 3 ? 30u : static_cast<std::uint64_t>(i));
  }
  fresh.counter("probemon_b_total", "B").inc(4);
  fresh.gauge("probemon_a", "A").set(2.5);
  const std::string want = to_prometheus(fresh);

  EXPECT_EQ(to_prometheus(reg), want);
  EXPECT_EQ(to_json(reg), to_json(fresh));
  // A full delta and a merge walk the same cached order.
  std::uint64_t cursor = 0;
  EXPECT_EQ(samples_to_prometheus(reg.snapshot_delta(cursor)), want);
  Registry merged(&fresh_interner);
  merged.merge_from(reg);
  EXPECT_EQ(to_prometheus(merged), want);
}

TEST(Registry, DeltaScrapeReturnsOnlyChangedSeries) {
  LabelInterner interner;
  Registry reg(&interner);
  auto& a = reg.counter("probemon_a_total");
  auto& b = reg.counter("probemon_b_total");
  reg.gauge("probemon_g").set(1.0);

  std::uint64_t cursor = 0;
  EXPECT_EQ(reg.snapshot_delta(cursor).size(), 3u);  // first scrape: full
  EXPECT_EQ(reg.snapshot_delta(cursor).size(), 0u);  // quiet: empty delta

  a.inc();
  auto delta = reg.snapshot_delta(cursor);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].name, "probemon_a_total");

  // full=true bypasses the cursor but still advances it.
  b.inc();
  EXPECT_EQ(reg.snapshot_delta(cursor, /*full=*/true).size(), 3u);
  EXPECT_EQ(reg.snapshot_delta(cursor).size(), 0u);
}

TEST(Registry, IndependentCursorsSeeIndependentDeltas) {
  LabelInterner interner;
  Registry reg(&interner);
  auto& c = reg.counter("probemon_a_total");
  std::uint64_t scraper1 = 0;
  std::uint64_t scraper2 = 0;
  EXPECT_EQ(reg.snapshot_delta(scraper1).size(), 1u);
  c.inc();
  EXPECT_EQ(reg.snapshot_delta(scraper1).size(), 1u);
  // A scraper arriving late still gets everything it has never seen.
  EXPECT_EQ(reg.snapshot_delta(scraper2).size(), 1u);
  EXPECT_EQ(reg.snapshot_delta(scraper2).size(), 0u);
}

TEST(Registry, ConcurrentDeltaCursorsNeverLoseAChange) {
  LabelInterner interner;
  Registry reg(&interner);
  Counter& x = reg.counter("probemon_x_total");
  Counter& y = reg.counter("probemon_y_total");
  // While armed, this callback parks whichever scrape evaluates it —
  // with the registry's lock held — so other scrapes queue up behind.
  std::atomic<bool> armed{false};
  std::atomic<bool> parked{false};
  reg.gauge_callback("probemon_gate", [&armed, &parked] {
    if (armed.load()) {
      parked.store(true);
      while (armed.load()) std::this_thread::yield();
    }
    return 0.0;
  });

  struct Cursor {
    std::uint64_t since = 0;
    std::map<std::string, double> view;
    void scrape(const Registry& r) {
      for (const Sample& s : r.snapshot_delta(since)) view[s.name] = s.value;
    }
  };
  Cursor a;
  Cursor b;
  std::uint64_t holder_since = 0;

  // Each round: a third scraper holds the lock inside the gate, cursor
  // A queues first and cursor B after it, then the gate opens (at a
  // varying point of B's way to the lock) and they race while a writer
  // bumps the counters until B's scrape returns. Were the epoch taken
  // outside the lock, B winning the race would let A restamp the last
  // change with A's older epoch, and B would lose it for good.
  for (int round = 0; round < 400; ++round) {
    std::atomic<bool> writing{true};
    std::thread writer([&x, &y, &writing] {
      while (writing.load()) {
        x.inc();
        y.inc();
      }
    });
    parked.store(false);
    armed.store(true);
    std::thread holder(
        [&reg, &holder_since] { (void)reg.snapshot_delta(holder_since); });
    while (!parked.load()) std::this_thread::yield();
    std::thread first([&reg, &a] { a.scrape(reg); });
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::thread second([&reg, &b, &writing] {
      b.scrape(reg);
      writing.store(false);
    });
    const auto open_at = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(round % 64);
    while (std::chrono::steady_clock::now() < open_at) {
    }
    armed.store(false);
    holder.join();
    first.join();
    second.join();
    writer.join();

    // With the writer stopped, one more delta per cursor must catch
    // each view up to the final values.
    a.scrape(reg);
    b.scrape(reg);
    for (const Cursor* cursor : {&a, &b}) {
      ASSERT_EQ(cursor->view.at("probemon_x_total"),
                static_cast<double>(x.value()))
          << "round " << round;
      ASSERT_EQ(cursor->view.at("probemon_y_total"),
                static_cast<double>(y.value()))
          << "round " << round;
    }
  }
}

TEST(Registry, DeltaSeesRemoveAndRecreate) {
  LabelInterner interner;
  Registry reg(&interner);
  reg.counter("probemon_a_total").inc(5);
  std::uint64_t cursor = 0;
  EXPECT_EQ(reg.snapshot_delta(cursor).size(), 1u);
  ASSERT_TRUE(reg.remove("probemon_a_total", {}));
  reg.counter("probemon_a_total").inc(9);
  const auto delta = reg.snapshot_delta(cursor);
  ASSERT_EQ(delta.size(), 1u);  // fresh entry has never been scraped
  EXPECT_EQ(delta[0].value, 9.0);
}

TEST(Registry, MergesDeterministicallyAcrossInterners) {
  // Merging between registries on different interners must land on the
  // same bytes as merging on one shared interner.
  Registry src_shared;
  populate_mixed(src_shared);
  LabelInterner src_interner;
  Registry src_private(&src_interner);
  populate_mixed(src_private);

  // Callbacks are skipped by merge (they are process-local), so the
  // golden holds only the owned series.
  Registry want;
  want.counter("probemon_probes_total", "", {{"cp", "a"}}).inc(1);
  want.merge_from(src_shared);
  const std::string golden = to_prometheus(want);
  EXPECT_EQ(golden.find("probemon_uptime"), std::string::npos);

  Registry into_shared;
  into_shared.counter("probemon_probes_total", "", {{"cp", "a"}}).inc(1);
  into_shared.merge_from(src_private);
  EXPECT_EQ(to_prometheus(into_shared), golden);

  LabelInterner dst_interner;
  Registry into_private(&dst_interner);
  into_private.counter("probemon_probes_total", "", {{"cp", "a"}}).inc(1);
  into_private.merge_from(src_shared);
  EXPECT_EQ(to_prometheus(into_private), golden);
}

TEST(Registry, ExplicitHelpBeatsMergeInheritedHelp) {
  Registry src;
  src.counter("probemon_m_total", "merge help").inc(1);
  LabelInterner interner;
  Registry dst(&interner);
  dst.merge_from(src);
  // Explicit registration upgrades help inherited from the merge...
  dst.counter("probemon_m_total", "explicit help");
  // ...and a later merge does not resurrect the stale text.
  dst.merge_from(src);
  const auto samples = dst.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].help, "explicit help");
}

TEST(LabelInterner, ConcurrentInternsAgreeOnIds) {
  LabelInterner interner;
  constexpr int kThreads = 8;
  constexpr int kStrings = 500;
  std::vector<std::vector<std::uint32_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&interner, &ids, t] {
      ids[t].reserve(kStrings);
      for (int i = 0; i < kStrings; ++i) {
        ids[t].push_back(interner.intern("label-" + std::to_string(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);  // same string -> same id, on every thread
  }
  for (int i = 0; i < kStrings; ++i) {
    EXPECT_EQ(interner.str(ids[0][i]), "label-" + std::to_string(i));
  }
  EXPECT_EQ(interner.str(0), "");  // id 0 is always the empty string
}

TEST(Registry, ConcurrentIdRegistrationKeepsSnapshotsStable) {
  LabelInterner interner;
  Registry reg(&interner);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      const auto name = reg.intern_name("probemon_conc_total");
      const auto key = reg.intern_label_name("i");
      for (int i = 0; i < kPerThread; ++i) {
        // Overlapping label sets across threads: find-or-create races.
        const LabelIds labels{{key, reg.intern(std::to_string(i))}};
        reg.counter_ids(name, labels).inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), static_cast<std::size_t>(kPerThread));
  double total = 0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    total += snap[i].value;
    if (i > 0) {
      // Ordering is the deterministic (name, labels) key order.
      EXPECT_LT(detail::make_key(snap[i - 1].name, snap[i - 1].labels),
                detail::make_key(snap[i].name, snap[i].labels));
    }
  }
  EXPECT_EQ(total, static_cast<double>(kThreads * kPerThread));
  // A second snapshot with no writes in between is byte-stable.
  EXPECT_EQ(to_prometheus(reg), to_prometheus(reg));
}

}  // namespace
}  // namespace probemon::telemetry
