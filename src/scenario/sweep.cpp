#include "scenario/sweep.hpp"

#include <chrono>
#include <string>

namespace probemon::scenario {

SweepRunner::SweepRunner(unsigned threads)
    : thread_count_(threads != 0 ? threads
                                 : std::max(1u,
                                            std::thread::hardware_concurrency())) {
  workers_.reserve(thread_count_);
  for (unsigned w = 0; w < thread_count_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

SweepRunner::~SweepRunner() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void SweepRunner::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    util::ReleasableMutexLock lock(mutex_);
    while (!stop_ && generation_ == seen) work_cv_.wait(mutex_);
    if (stop_) return;
    seen = generation_;
    const std::size_t job_count = job_count_;
    const Job* job = job_;
    std::deque<telemetry::Registry>* registries = registries_;
    std::vector<std::exception_ptr>* errors = errors_;
    lock.Release();

    SweepWorkerContext ctx{worker, &(*registries)[worker]};
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t j; (j = next_job_.fetch_add(
                             1, std::memory_order_relaxed)) < job_count;) {
      try {
        (*job)(j, ctx);
      } catch (...) {
        (*errors)[j] = std::current_exception();
      }
      jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                       std::memory_order_relaxed);

    lock.Reacquire();
    if (++workers_done_ == thread_count_) done_cv_.notify_all();
  }
}

void SweepRunner::run(std::size_t job_count, const Job& fn,
                      telemetry::Registry* merge_into) {
  if (!fn) throw std::invalid_argument("SweepRunner::run: empty job");

  // One private registry per worker, fresh per batch so merges never
  // double-count across run() calls.
  std::deque<telemetry::Registry> registries(thread_count_);
  std::vector<std::exception_ptr> errors(job_count);

  {
    util::MutexLock lock(mutex_);
    job_count_ = job_count;
    job_ = &fn;
    registries_ = &registries;
    errors_ = &errors;
    next_job_.store(0, std::memory_order_relaxed);
    workers_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();

  {
    util::MutexLock lock(mutex_);
    while (workers_done_ != thread_count_) done_cv_.wait(mutex_);
    job_ = nullptr;
    registries_ = nullptr;
    errors_ = nullptr;
  }

  if (merge_into != nullptr) {
    // Worker order: deterministic merge sequence. Counter/bucket values
    // are exact integer sums, so the *values* are thread-count-invariant
    // too (see the determinism contract in sweep.hpp).
    for (unsigned w = 0; w < thread_count_; ++w) {
      merge_into->merge_from(registries[w]);
    }
    merge_into->gauge("probemon_sweep_worker_busy_seconds",
                      "Cumulative wall-clock seconds workers spent in jobs")
        .set(busy_seconds());
    merge_into->gauge("probemon_sweep_threads",
                      "Worker threads in the sweep pool")
        .set(static_cast<double>(thread_count_));
    merge_into
        ->counter("probemon_sweep_jobs_total",
                  "Jobs completed by the sweep runner")
        .inc(job_count);
  }

  // Deterministic failure: the lowest-numbered job's exception wins,
  // regardless of which worker hit it first.
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

double SweepRunner::busy_seconds() const noexcept {
  return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

}  // namespace probemon::scenario
