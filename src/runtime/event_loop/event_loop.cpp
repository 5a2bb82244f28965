#include "runtime/event_loop/event_loop.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#ifdef PROBEMON_CHECKED
#include <cstdio>
#include <cstdlib>
#endif

namespace probemon::runtime {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// The batch instant the calling thread is dispatching under, and the
/// loop it belongs to (null outside any BatchInstant). Thread-local, so
/// only the thread that holds the scope sees the instant.
thread_local const EventLoop* t_batch_loop = nullptr;
thread_local double t_batch_time = 0;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("EventLoop: fcntl(O_NONBLOCK)");
  }
}

}  // namespace

EventLoop::EventLoop(Config config) : config_(config) {
#ifdef __linux__
  poll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (poll_fd_ < 0) throw_errno("EventLoop: epoll_create1");
  wake_fds_[0] = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fds_[0] < 0) throw_errno("EventLoop: eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fds_[0];
  if (::epoll_ctl(poll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) < 0) {
    throw_errno("EventLoop: epoll_ctl(wake)");
  }
#else
  if (::pipe(wake_fds_) < 0) throw_errno("EventLoop: pipe");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
#endif
}

EventLoop::~EventLoop() {
  stop();
  if (poll_fd_ >= 0) ::close(poll_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

double EventLoop::now() const {
  return t_batch_loop == this ? t_batch_time : timers_.now();
}

EventLoop::BatchInstant::BatchInstant(const EventLoop& loop)
    : outer_loop_(t_batch_loop), outer_time_(t_batch_time) {
  t_batch_time = loop.timers_.now();
  t_batch_loop = &loop;
}

EventLoop::BatchInstant::~BatchInstant() {
  t_batch_loop = outer_loop_;
  t_batch_time = outer_time_;
}

void EventLoop::add_fd(int fd, FdHandler handler) {
#ifdef PROBEMON_CHECKED
  if (running() && !on_loop_thread()) {
    std::fprintf(stderr, "EventLoop::add_fd off the loop thread\n");
    std::abort();
  }
#endif
  set_nonblocking(fd);
  handlers_[fd] = std::move(handler);
#ifdef __linux__
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(poll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    handlers_.erase(fd);
    throw_errno("EventLoop: epoll_ctl(add)");
  }
#endif
}

void EventLoop::remove_fd(int fd) {
#ifdef PROBEMON_CHECKED
  if (running() && !on_loop_thread()) {
    std::fprintf(stderr, "EventLoop::remove_fd off the loop thread\n");
    std::abort();
  }
#endif
  if (handlers_.erase(fd) == 0) return;
#ifdef __linux__
  ::epoll_ctl(poll_fd_, EPOLL_CTL_DEL, fd, nullptr);  // best effort
#endif
}

std::uint64_t EventLoop::add_flush_hook(Task hook) {
  const std::uint64_t handle = next_hook_id_++;
  flush_hooks_.emplace_back(handle, std::move(hook));
  return handle;
}

void EventLoop::remove_flush_hook(std::uint64_t handle) {
  for (auto it = flush_hooks_.begin(); it != flush_hooks_.end(); ++it) {
    if (it->first == handle) {
      flush_hooks_.erase(it);
      return;
    }
  }
}

void EventLoop::post(Task task) {
  bool queued = false;
  {
    util::MutexLock lock(task_mutex_);
    if (accepting_tasks_) {
      tasks_.push_back(std::move(task));
      queued = true;
    }
  }
  if (queued) {
    wake();
    return;
  }
  // Loop fully stopped: run inline on the caller so shutdown-ordered
  // teardown (e.g. AsyncPresenceService dtor) never strands work.
  task();
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::wake() {
#ifdef __linux__
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[0], &one, sizeof(one));
#else
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
#endif
}

void EventLoop::drain_tasks() {
  std::vector<Task> batch;
  {
    util::MutexLock lock(task_mutex_);
    batch.swap(tasks_);
  }
  for (auto& task : batch) task();
  if (!batch.empty()) {
    tasks_run_.fetch_add(batch.size(), std::memory_order_relaxed);
  }
}

void EventLoop::dispatch(int fd, std::uint32_t events) {
  if (fd == wake_fds_[0]) {
    // Drain the wake signal; the work it announces (tasks, stop flag)
    // is picked up by the surrounding iteration.
#ifdef __linux__
    std::uint64_t value = 0;
    while (::read(wake_fds_[0], &value, sizeof(value)) > 0) {
    }
#else
    char buf[64];
    while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
    }
#endif
    return;
  }
  auto it = handlers_.find(fd);
  // A handler earlier in this batch may have removed the fd.
  if (it == handlers_.end()) return;
  fd_dispatches_.fetch_add(1, std::memory_order_relaxed);
  it->second(events);
}

void EventLoop::run_iteration(bool& saw_stop) {
  drain_tasks();

  const std::uint64_t fired = timers_.poll();
  if (fired != 0) timers_fired_.fetch_add(fired, std::memory_order_relaxed);

  for (auto& [handle, hook] : flush_hooks_) hook();
  timers_pending_.store(timers_.pending_count(), std::memory_order_relaxed);

  if (stop_requested_.load(std::memory_order_acquire)) {
    saw_stop = true;
    return;
  }

  int timeout = timers_.timeout_ms(timers_.now(), config_.max_wait_ms);
  if (timeout < 0) timeout = config_.max_wait_ms;

#ifdef __linux__
  // Scratch batch reused across iterations — no per-wakeup allocation.
  static thread_local std::vector<epoll_event> events;
  events.resize(static_cast<std::size_t>(config_.max_fd_events));
  const int n =
      ::epoll_wait(poll_fd_, events.data(), config_.max_fd_events, timeout);
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (n < 0) {
    if (errno == EINTR) return;
    throw_errno("EventLoop: epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    dispatch(events[i].data.fd, events[i].events);
  }
#else
  std::vector<pollfd> fds;
  fds.reserve(handlers_.size() + 1);
  fds.push_back({wake_fds_[0], POLLIN, 0});
  for (const auto& [fd, handler] : handlers_) {
    fds.push_back({fd, POLLIN, 0});
  }
  const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (n < 0) {
    if (errno == EINTR) return;
    throw_errno("EventLoop: poll");
  }
  for (const auto& p : fds) {
    if (p.revents != 0) dispatch(p.fd, static_cast<std::uint32_t>(p.revents));
  }
#endif
}

void EventLoop::run() {
  open_for_run();
  run_until_stopped();
}

void EventLoop::open_for_run() {
  {
    util::MutexLock lock(task_mutex_);
    accepting_tasks_ = true;
  }
  stop_requested_.store(false, std::memory_order_release);
}

void EventLoop::run_until_stopped() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  running_.store(true, std::memory_order_release);

  bool saw_stop = false;
  while (!saw_stop) {
    run_iteration(saw_stop);
  }

  // Shutdown: close the task queue and run whatever raced in, so every
  // accepted post() executes on the loop thread.
  std::vector<Task> tail;
  {
    util::MutexLock lock(task_mutex_);
    accepting_tasks_ = false;
    tail.swap(tasks_);
  }
  for (auto& task : tail) task();
  if (!tail.empty()) {
    tasks_run_.fetch_add(tail.size(), std::memory_order_relaxed);
  }
  timers_pending_.store(timers_.pending_count(), std::memory_order_relaxed);

  running_.store(false, std::memory_order_release);
  loop_thread_.store(std::thread::id{}, std::memory_order_release);
}

void EventLoop::start() {
  util::MutexLock lock(lifecycle_mutex_);
  if (thread_.joinable()) {
    if (running()) return;  // already started
    thread_.join();         // previous run ended via loop-thread stop()
  }
  // Open the task queue and clear the previous run's stop request before
  // the thread exists. Left to the new thread, both race the caller
  // after a restart: the wait below sees the old stop flag and returns
  // at once, and a post() right after start() finds the queue closed and
  // runs inline on the caller while the loop thread polls its timers.
  open_for_run();
  thread_ = std::thread([this] { run_until_stopped(); });
  // Make start() synchronous with the loop being live: tests and callers
  // read running() right after start().
  while (!running() && !stop_requested_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
  if (on_loop_thread()) {
    // Called from a loop callback: the loop exits after this iteration;
    // the join happens in the destructor or the next start().
    return;
  }
  util::MutexLock lock(lifecycle_mutex_);
  if (thread_.joinable() &&
      std::this_thread::get_id() != thread_.get_id()) {
    thread_.join();
  }
}

void EventLoop::instrument(telemetry::Registry& registry,
                           const std::string& loop_name) {
  const telemetry::Labels labels{{"loop", loop_name}};
  registry.counter_callback(
      "probemon_loop_wakeups_total",
      [this] { return static_cast<double>(wakeups()); },
      "Event-loop scheduler wakeups (epoll_wait returns)", labels);
  registry.counter_callback(
      "probemon_loop_fd_dispatches_total",
      [this] { return static_cast<double>(fd_dispatches()); },
      "Readable-fd handler dispatches", labels);
  registry.counter_callback(
      "probemon_loop_tasks_total",
      [this] { return static_cast<double>(tasks_run()); },
      "Cross-thread tasks executed on the loop", labels);
  registry.counter_callback(
      "probemon_loop_timers_fired_total",
      [this] { return static_cast<double>(timers_fired()); },
      "Wall-clock wheel timers fired", labels);
  registry.gauge_callback(
      "probemon_loop_timers_pending",
      [this] { return static_cast<double>(timers_pending()); },
      "Timers currently armed on the loop's wheel", labels);
}

}  // namespace probemon::runtime
