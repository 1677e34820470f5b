/**
 * @file
 * A small reusable fixed-size worker pool for embarrassingly parallel
 * sweeps. Tasks are plain std::function<void()>; parallelFor() runs an
 * index range and blocks until every index completed, rethrowing the
 * first task exception (FatalError from fatal() included) on the
 * calling thread.
 *
 * A pool constructed with jobs == 0 takes its worker count from
 * jobsSetting(): --jobs, else MNPU_JOBS, else the hardware thread
 * count (common/settings.hh).
 *
 * A pool constructed with jobs == 1 runs everything inline on the
 * calling thread (no workers are spawned), which keeps the serial
 * reference path trivially single-threaded for determinism checks.
 */

#ifndef MNPU_COMMON_THREAD_POOL_HH
#define MNPU_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/settings.hh"

namespace mnpu
{

/** --jobs / MNPU_JOBS worker count; built-in: hardware threads. */
Setting<std::size_t> &jobsSetting();

class ThreadPool
{
  public:
    /** @param jobs worker count; 0 means jobsSetting(). */
    explicit ThreadPool(std::size_t jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers this pool runs on (>= 1); 1 means inline execution. */
    std::size_t jobs() const { return jobs_; }

    /**
     * Run fn(0) ... fn(count - 1) across the workers and block until
     * all completed. Indices are claimed in order, so with one worker
     * (or jobs() == 1) the execution order is exactly 0, 1, 2, ...
     * The first exception thrown by any fn(i) is rethrown here after
     * the remaining indices have been drained.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Failure-containment variant of parallelFor(): every index runs
     * to completion regardless of other indices' exceptions, and the
     * result holds fn(i)'s exception at slot i (null when it
     * succeeded). Nothing is rethrown — the caller decides what a
     * per-task failure means.
     */
    std::vector<std::exception_ptr>
    parallelForCollect(std::size_t count,
                       const std::function<void(std::size_t)> &fn);

  private:
    struct Batch;

    void workerLoop();
    void runBatch(Batch &batch);

    std::size_t jobs_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::deque<Batch *> queue_;
    bool stopping_ = false;
};

} // namespace mnpu

#endif // MNPU_COMMON_THREAD_POOL_HH
