// SweepRunner: a deterministic parallel harness for replication sweeps.
//
// Every paper artifact is "run K independent replications / parameter
// points, then aggregate" — embarrassingly parallel, as long as nothing
// is shared. The runner gives each worker thread its own world: the job
// function constructs its own Simulation/Experiment (one Scheduler, one
// RNG stream seeded from the job id, one telemetry Registry per
// worker), so no simulation state ever crosses a thread boundary.
//
// Determinism contract (verified by tests/test_sweep.cpp):
//   * Job results are collected into a vector indexed by job id —
//     byte-identical regardless of thread count or scheduling order,
//     because each job's output depends only on its id.
//   * Per-worker telemetry registries are merged at the barrier in
//     worker order. Counter values and histogram *bucket counts* are
//     exact u64 sums, identical for any thread count. Gauges (last-
//     write-wins) and histogram double `sum`s depend on which worker
//     ran which job; treat them as monitoring data, not results.
//   * Exceptions are captured per job and the lowest-numbered one is
//     rethrown after the barrier, so failure behaviour is also
//     independent of scheduling.
//
// Scheduling is work-sharing: workers pull the next job id from one
// atomic counter. With jobs >> threads this balances as well as
// work-stealing without per-worker deques, and job *assignment* is the
// only nondeterministic part — which the contract above makes harmless.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
// The Job callable below is the one sanctioned std::function here: a
// sweep dispatches whole replications, not per-event callbacks.
#include <functional>  // NOLINT(no-std-function)
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/thread_annotations.hpp"

namespace probemon::scenario {

/// Handed to each job invocation: which worker is running it and that
/// worker's private telemetry registry (never shared, merge at barrier).
/// Jobs registering per-entity series can use the registry's interned-id
/// API (counter_ids etc.) to stay off the string path.
struct SweepWorkerContext {
  unsigned worker = 0;
  telemetry::Registry* registry = nullptr;
};

class SweepRunner {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency().
  explicit SweepRunner(unsigned threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  unsigned thread_count() const noexcept { return thread_count_; }

  // One capture per sweep (amortized over thousands of replications), so
  // type erasure's heap cost is irrelevant here — unlike the event path.
  using Job =
      std::function<void(std::size_t job,  // NOLINT(no-std-function)
                         SweepWorkerContext& ctx)>;

  /// Run `fn` for every job id in [0, job_count); blocks until all jobs
  /// finish. When `merge_into` is non-null, each worker's registry is
  /// merged into it (worker order) and the runner's own health metrics
  /// (probemon_sweep_worker_busy_seconds, probemon_sweep_jobs_total)
  /// are registered there too.
  void run(std::size_t job_count, const Job& fn,
           telemetry::Registry* merge_into = nullptr)
      PROBEMON_EXCLUDES(mutex_);

  /// Map convenience: results land in a job-ordered vector (the
  /// determinism-friendly shape — see the header comment).
  template <class R, class F>
  std::vector<R> map(std::size_t job_count, F&& fn,
                     telemetry::Registry* merge_into = nullptr) {
    std::vector<R> out(job_count);
    run(
        job_count,
        [&](std::size_t job, SweepWorkerContext& ctx) {
          out[job] = fn(job, ctx);
        },
        merge_into);
    return out;
  }

  /// Cumulative wall-clock seconds workers spent inside jobs (all
  /// batches, all workers). Monitoring data: wall-clock, so not part of
  /// the determinism contract.
  double busy_seconds() const noexcept;
  /// Jobs completed over the runner's lifetime.
  std::uint64_t jobs_completed() const noexcept {
    return jobs_completed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(unsigned worker) PROBEMON_EXCLUDES(mutex_);

  unsigned thread_count_;
  std::vector<std::thread> workers_;

  util::Mutex mutex_{"scenario.SweepRunner"};
  util::CondVar work_cv_;
  util::CondVar done_cv_;
  /// bumped per run() batch
  std::uint64_t generation_ PROBEMON_GUARDED_BY(mutex_) = 0;
  bool stop_ PROBEMON_GUARDED_BY(mutex_) = false;

  // Current batch (valid while workers_running_ > 0):
  std::size_t job_count_ PROBEMON_GUARDED_BY(mutex_) = 0;
  const Job* job_ PROBEMON_GUARDED_BY(mutex_) = nullptr;
  std::deque<telemetry::Registry>* registries_
      PROBEMON_GUARDED_BY(mutex_) = nullptr;
  std::vector<std::exception_ptr>* errors_ PROBEMON_GUARDED_BY(mutex_) =
      nullptr;
  std::atomic<std::size_t> next_job_{0};
  unsigned workers_done_ PROBEMON_GUARDED_BY(mutex_) = 0;

  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
};

}  // namespace probemon::scenario
