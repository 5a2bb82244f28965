// Tests for runtime::EventLoop: task posting, wall-clock timers, fd
// dispatch, start/stop churn under a concurrent metrics scrape (the
// scenario the TSan CI leg exists for) and the exported loop counters.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "runtime/event_loop/event_loop.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"

namespace probemon::runtime {
namespace {

using namespace std::chrono_literals;

/// Spin (with sleeps) until `pred` holds or ~2 s pass.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(EventLoop, PostRunsTasksOnLoopThread) {
  EventLoop loop;
  loop.start();
  ASSERT_TRUE(loop.running());
  EXPECT_FALSE(loop.on_loop_thread());

  std::promise<std::thread::id> ran_on;
  loop.post([&loop, &ran_on] {
    EXPECT_TRUE(loop.on_loop_thread());
    ran_on.set_value(std::this_thread::get_id());
  });
  auto future = ran_on.get_future();
  ASSERT_EQ(future.wait_for(2s), std::future_status::ready);
  EXPECT_NE(future.get(), std::this_thread::get_id());
  // The counter is bumped after the batch runs; allow the loop thread
  // to get there.
  EXPECT_TRUE(eventually([&] { return loop.tasks_run() >= 1; }));
  loop.stop();
  EXPECT_FALSE(loop.running());
}

TEST(EventLoop, TimersFireThroughTheWheel) {
  EventLoop loop;
  loop.start();
  std::atomic<int> fired{0};
  // timers() is loop-confined, so arm it from a posted task.
  loop.post([&loop, &fired] {
    loop.timers().schedule_after(0.005, [&fired] { ++fired; });
    loop.timers().schedule_after(0.010, [&fired] { ++fired; });
  });
  EXPECT_TRUE(eventually([&] { return fired.load() == 2; }));
  EXPECT_GE(loop.timers_fired(), 2u);
  EXPECT_EQ(loop.timers_pending(), 0u);
  loop.stop();
}

TEST(EventLoop, DispatchesReadableFds) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_EQ(fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);

  std::atomic<int> bytes_seen{0};
  // Registered before start(): allowed while the loop is not running.
  loop.add_fd(fds[0], [&bytes_seen, read_fd = fds[0]](std::uint32_t) {
    char buf[16];
    ssize_t n;
    while ((n = read(read_fd, buf, sizeof buf)) > 0) {
      bytes_seen += static_cast<int>(n);
    }
  });
  loop.start();

  ASSERT_EQ(write(fds[1], "ab", 2), 2);
  EXPECT_TRUE(eventually([&] { return bytes_seen.load() == 2; }));
  ASSERT_EQ(write(fds[1], "c", 1), 1);
  EXPECT_TRUE(eventually([&] { return bytes_seen.load() == 3; }));
  EXPECT_GE(loop.fd_dispatches(), 2u);

  // remove_fd is loop-confined; hop onto the loop for it.
  std::promise<void> removed;
  loop.post([&loop, &removed, read_fd = fds[0]] {
    loop.remove_fd(read_fd);
    removed.set_value();
  });
  ASSERT_EQ(removed.get_future().wait_for(2s), std::future_status::ready);
  ASSERT_EQ(write(fds[1], "d", 1), 1);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(bytes_seen.load(), 3);  // no handler anymore

  loop.stop();
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoop, PostAfterStopRunsInline) {
  EventLoop loop;
  loop.start();
  loop.stop();
  bool ran = false;
  loop.post([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // queue is closed: the task ran on this thread
}

TEST(EventLoop, PostRightAfterRestartRunsOnLoopThread) {
  // start() reopens the task queue and clears the previous run's stop
  // flag before it returns, so a task posted at once after a restart
  // runs on the new loop thread, never inline on the caller.
  EventLoop loop;
  for (int round = 0; round < 200; ++round) {
    loop.start();
    std::promise<bool> ran;
    std::future<bool> on_loop_thread = ran.get_future();
    loop.post([&loop, &ran] { ran.set_value(loop.on_loop_thread()); });
    ASSERT_EQ(on_loop_thread.wait_for(2s), std::future_status::ready)
        << "round " << round;
    EXPECT_TRUE(on_loop_thread.get()) << "round " << round;
    loop.stop();
  }
}

TEST(EventLoop, StopFromLoopThreadCallback) {
  EventLoop loop;
  loop.start();
  loop.post([&loop] { loop.stop(); });  // self-stop defers the join
  EXPECT_TRUE(eventually([&] { return !loop.running(); }));
  loop.stop();  // joins the thread; idempotent
  EXPECT_FALSE(loop.running());
}

TEST(EventLoop, StartStopChurnUnderConcurrentScrape) {
  // The TSan scenario: one thread restarts the loop while another
  // scrapes /metrics-style state (counters, running(), registry
  // callbacks) the whole time.
  EventLoop loop;
  telemetry::Registry registry;
  loop.instrument(registry, "churn");

  std::atomic<bool> scraping{true};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (scraping.load()) {
      const std::string text = telemetry::to_prometheus(registry);
      EXPECT_NE(text.find("probemon_loop_wakeups_total"), std::string::npos);
      (void)loop.wakeups();
      (void)loop.tasks_run();
      (void)loop.timers_pending();
      (void)loop.running();
      ++scrapes;
    }
  });

  for (int round = 0; round < 15; ++round) {
    loop.start();
    std::atomic<int> fired{0};
    loop.post([&loop, &fired] {
      loop.timers().schedule_after(0.001, [&fired] { ++fired; });
    });
    EXPECT_TRUE(eventually([&] { return fired.load() == 1; }))
        << "round " << round;
    loop.stop();
    EXPECT_FALSE(loop.running());
  }

  scraping = false;
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);
}

TEST(EventLoop, InstrumentExportsLoopSeries) {
  EventLoop loop;
  telemetry::Registry registry;
  loop.instrument(registry, "7");
  loop.start();
  std::promise<void> done;
  loop.post([&done] { done.set_value(); });
  ASSERT_EQ(done.get_future().wait_for(2s), std::future_status::ready);
  loop.stop();

  const std::string text = telemetry::to_prometheus(registry);
  for (const char* series :
       {"probemon_loop_wakeups_total", "probemon_loop_fd_dispatches_total",
        "probemon_loop_tasks_total", "probemon_loop_timers_fired_total",
        "probemon_loop_timers_pending"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  EXPECT_NE(text.find("loop=\"7\""), std::string::npos);
}

}  // namespace
}  // namespace probemon::runtime
