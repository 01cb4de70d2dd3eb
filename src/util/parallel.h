/**
 * @file
 * Work-stealing thread pool and parallel-for for the experiment
 * runners.
 *
 * The studies behind the paper's figures are embarrassingly parallel:
 * every (application, configuration) cell owns its own simulator and
 * instruction/trace stream seeded from the application profile, so
 * cells can run on any thread in any order and still produce
 * bit-identical results.  ThreadPool provides the workers and a
 * bounded task queue; parallelFor() self-schedules an index range
 * across them (each worker steals the next unclaimed index from a
 * shared atomic cursor, so load imbalance between cells is absorbed
 * dynamically).
 *
 * Determinism contract: parallelFor(pool, n, body) invokes body(i)
 * exactly once for every i in [0, n).  As long as body(i) writes only
 * to state owned by index i (the pre-sized result matrices of the
 * studies), the outcome is independent of the thread count, and a
 * single-job run executes the body inline on the calling thread --
 * the exact serial path.
 */

#ifndef CAPSIM_UTIL_PARALLEL_H
#define CAPSIM_UTIL_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cap {

/**
 * Fixed-size worker pool with a bounded central task queue.
 *
 * submit() blocks while the queue is full (backpressure instead of
 * unbounded memory); wait() blocks until every submitted task has
 * finished and rethrows the first exception a task escaped with.
 * The destructor drains the queue (all submitted tasks run) and joins
 * the workers.  submit()/wait() are intended for a single orchestrator
 * thread; tasks themselves must not submit to the same pool.
 */
class ThreadPool
{
  public:
    /** Cumulative health counters of a pool (see stats()). */
    struct Stats
    {
        /** Per-worker accounting, one entry per pool worker. */
        struct Worker
        {
            /** Tasks the worker executed. */
            uint64_t tasks = 0;
            /** parallelFor indices the worker claimed from shared
             *  cursors (its share of the self-scheduled work). */
            uint64_t indices = 0;
            /** Seconds spent inside task bodies. */
            double busy_seconds = 0.0;
            /** Seconds spent blocked waiting for work. */
            double idle_seconds = 0.0;
        };

        uint64_t submitted = 0;
        /** Deepest the central queue ever got. */
        uint64_t max_queue_depth = 0;
        /** Seconds submit() spent blocked on a full queue
         *  (backpressure felt by the orchestrator). */
        double submit_block_seconds = 0.0;
        std::vector<Worker> workers;
    };

    /**
     * @param threads Worker count; clamped to at least 1.
     * @param queue_capacity Task-queue bound; 0 selects 4x threads.
     */
    explicit ThreadPool(int threads, size_t queue_capacity = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threadCount() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a task; blocks while the queue is at capacity. */
    void submit(std::function<void()> task);

    /**
     * Block until the pool is idle (queue empty, no task running),
     * then rethrow the first exception any task terminated with since
     * the last wait().
     */
    void wait();

    /**
     * Snapshot the cumulative health counters.  All accounting is
     * updated under the pool mutex at task granularity (never inside
     * a task body), so the gauge costs nothing on the hot path; a
     * worker currently blocked for work has its in-progress idle
     * stretch credited on wake.
     */
    Stats stats() const;

    /**
     * Credit @p count parallelFor index claims to the calling worker
     * (called once per lane, not per index).
     */
    void noteIndicesClaimed(uint64_t count);

  private:
    void workerLoop(int worker_id);

    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::condition_variable idle_;
    std::queue<std::function<void()>> tasks_;
    size_t capacity_;
    size_t running_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
    Stats stats_;
    std::vector<std::thread> workers_;
};

/**
 * Worker threads to use by default: the CAPSIM_JOBS environment
 * variable when set to a positive integer that fits an int, otherwise
 * the hardware concurrency (at least 1).
 */
int defaultJobs();

/**
 * Identity of the calling thread within its ThreadPool: 0-based
 * worker index, or 0 when called from a thread that is not a pool
 * worker (the orchestrator running a parallelFor body inline reports
 * 0, matching the serial path).  Telemetry uses this to attribute
 * per-cell cost to workers.
 */
int currentWorkerId();

/**
 * Invoke body(i) exactly once for every i in [0, count), fanned
 * across @p pool.  Indices are claimed dynamically from a shared
 * cursor (self-scheduling), so uneven cell costs balance out.  Blocks
 * until every index has completed; rethrows the first exception the
 * body escaped with (remaining indices are then abandoned).  Runs
 * inline on the calling thread when the pool has a single worker or
 * there is a single index.
 */
void parallelFor(ThreadPool &pool, size_t count,
                 const std::function<void(size_t)> &body);

/** Convenience overload: run on a transient pool of @p jobs workers. */
void parallelFor(int jobs, size_t count,
                 const std::function<void(size_t)> &body);

} // namespace cap

#endif // CAPSIM_UTIL_PARALLEL_H
