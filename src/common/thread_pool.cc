#include "common/thread_pool.hh"

#include <algorithm>

namespace mnpu
{

Setting<std::size_t> &
jobsSetting()
{
    static Setting<std::size_t> setting(
        "worker count", "MNPU_JOBS",
        std::max<std::size_t>(1, std::thread::hardware_concurrency()));
    return setting;
}

/** One parallelFor() invocation, owned by the calling frame. */
struct ThreadPool::Batch
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;      //!< next unclaimed index (under mutex_)
    std::size_t completed = 0; //!< finished indices (under mutex_)
    std::exception_ptr error;  //!< first task exception (under mutex_)
    /** Collect mode: per-index exception slots instead of `error`. */
    std::vector<std::exception_ptr> *collected = nullptr;
    std::condition_variable done;
};

ThreadPool::ThreadPool(std::size_t jobs)
    : jobs_(jobs != 0 ? jobs : jobsSetting().effective(std::nullopt))
{
    if (jobs_ < 2)
        return; // inline mode: parallelFor runs on the caller
    workers_.reserve(jobs_);
    for (std::size_t i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workReady_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }
        Batch *batch = queue_.front();
        if (batch->next >= batch->count) {
            // Fully claimed; retire it from the queue.
            queue_.pop_front();
            continue;
        }
        const std::size_t index = batch->next++;
        lock.unlock();
        std::exception_ptr error;
        try {
            (*batch->fn)(index);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error) {
            if (batch->collected)
                (*batch->collected)[index] = error;
            else if (!batch->error)
                batch->error = error;
        }
        if (++batch->completed == batch->count)
            batch->done.notify_all();
    }
}

void
ThreadPool::runBatch(Batch &batch)
{
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(&batch);
    workReady_.notify_all();
    batch.done.wait(lock, [&] { return batch.completed == batch.count; });
    // The batch may still sit (fully claimed) in the queue; drop the
    // pointer before this frame's Batch goes out of scope.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == &batch) {
            queue_.erase(it);
            break;
        }
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers_.empty()) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    Batch batch;
    batch.fn = &fn;
    batch.count = count;
    runBatch(batch);
    if (batch.error)
        std::rethrow_exception(batch.error);
}

std::vector<std::exception_ptr>
ThreadPool::parallelForCollect(std::size_t count,
                               const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(count);
    if (count == 0)
        return errors;
    if (workers_.empty()) {
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        return errors;
    }
    Batch batch;
    batch.fn = &fn;
    batch.count = count;
    batch.collected = &errors;
    runBatch(batch);
    return errors;
}

} // namespace mnpu
