#include "parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>

namespace cap {

namespace {

/** 0-based pool-worker index of this thread; 0 off the pool. */
thread_local int t_worker_id = 0;

} // namespace

int
currentWorkerId()
{
    return t_worker_id;
}

ThreadPool::ThreadPool(int threads, size_t queue_capacity)
{
    int count = std::max(threads, 1);
    capacity_ = queue_capacity ? queue_capacity
                               : static_cast<size_t>(count) * 4;
    stats_.workers.resize(static_cast<size_t>(count));
    workers_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        workers_.emplace_back([this, i] {
            t_worker_id = i;
            workerLoop(i);
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    not_empty_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (tasks_.size() >= capacity_) {
            const auto blocked = std::chrono::steady_clock::now();
            not_full_.wait(lock,
                           [this] { return tasks_.size() < capacity_; });
            stats_.submit_block_seconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - blocked)
                    .count();
        }
        tasks_.push(std::move(task));
        ++stats_.submitted;
        stats_.max_queue_depth =
            std::max(stats_.max_queue_depth,
                     static_cast<uint64_t>(tasks_.size()));
    }
    not_empty_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return tasks_.empty() && running_ == 0; });
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop(int worker_id)
{
    Stats::Worker &me = stats_.workers[static_cast<size_t>(worker_id)];
    for (;;) {
        std::function<void()> task;
        std::chrono::steady_clock::time_point started;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const auto idle_from = std::chrono::steady_clock::now();
            not_empty_.wait(lock, [this] {
                return stopping_ || !tasks_.empty();
            });
            started = std::chrono::steady_clock::now();
            me.idle_seconds +=
                std::chrono::duration<double>(started - idle_from)
                    .count();
            if (tasks_.empty())
                return; // stopping_ with a drained queue
            task = std::move(tasks_.front());
            tasks_.pop();
            ++running_;
        }
        not_full_.notify_one();

        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++me.tasks;
            me.busy_seconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started)
                    .count();
            --running_;
            if (tasks_.empty() && running_ == 0)
                idle_.notify_all();
        }
    }
}

ThreadPool::Stats
ThreadPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ThreadPool::noteIndicesClaimed(uint64_t count)
{
    if (count == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    size_t worker = static_cast<size_t>(t_worker_id);
    if (worker >= stats_.workers.size())
        worker = 0;
    stats_.workers[worker].indices += count;
}

int
defaultJobs()
{
    if (const char *env = std::getenv("CAPSIM_JOBS")) {
        char *end = nullptr;
        long parsed = std::strtol(env, &end, 10);
        if (end && *end == '\0' && parsed > 0 &&
            parsed <= std::numeric_limits<int>::max())
            return static_cast<int>(parsed);
    }
    unsigned hardware = std::thread::hardware_concurrency();
    return hardware ? static_cast<int>(hardware) : 1;
}

void
parallelFor(ThreadPool &pool, size_t count,
            const std::function<void(size_t)> &body)
{
    if (count == 0)
        return;
    if (pool.threadCount() <= 1 || count == 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        pool.noteIndicesClaimed(count);
        return;
    }

    // Self-scheduling: each lane steals the next unclaimed index, so
    // expensive cells don't serialize behind a static partition.
    std::atomic<size_t> cursor{0};
    std::atomic<bool> failed{false};
    size_t lanes = std::min(static_cast<size_t>(pool.threadCount()), count);
    for (size_t lane = 0; lane < lanes; ++lane) {
        pool.submit([&cursor, &failed, &body, &pool, count] {
            size_t i;
            uint64_t claimed = 0;
            while (!failed.load(std::memory_order_relaxed) &&
                   (i = cursor.fetch_add(1)) < count) {
                ++claimed;
                try {
                    body(i);
                } catch (...) {
                    failed.store(true, std::memory_order_relaxed);
                    pool.noteIndicesClaimed(claimed);
                    throw;
                }
            }
            pool.noteIndicesClaimed(claimed);
        });
    }
    pool.wait();
}

void
parallelFor(int jobs, size_t count,
            const std::function<void(size_t)> &body)
{
    if (jobs <= 1 || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool pool(jobs);
    parallelFor(pool, count, body);
}

} // namespace cap
