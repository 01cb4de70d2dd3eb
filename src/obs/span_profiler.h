/**
 * @file
 * Host-side span profiler: hierarchical scoped wall-clock spans over
 * the *orchestration* of a run (sweep cells, profiling, clustering,
 * replay, merges), as opposed to the simulated timeline the decision
 * trace records.
 *
 * Usage: wrap a stage in `CAPSIM_SPAN("sample.cluster");` -- the
 * macro opens a span on the calling thread's lane (its pool-worker
 * index, `cap::currentWorkerId()`) and closes it at scope exit on
 * `std::chrono::steady_clock`.  With no profiler armed the macro costs
 * one relaxed atomic load and a branch, so instrumentation can stay in
 * the hot orchestration paths permanently (bench/perf_smoke measures
 * the disarmed cost).
 *
 * Threading contract: each lane is only ever written by the thread
 * that owns that worker index, and the orchestrator (lane 0) never
 * records while a fan-out is in flight (it is blocked in
 * ThreadPool::wait(), whose mutex provides the happens-before edge for
 * the post-run merge).  Emission walks the lanes in index order and
 * each lane's records in completion order, so the merged artifact is
 * deterministic.
 *
 * Spans are host-side only: recording a span never touches simulator
 * state, so simulated results are bit-identical with profiling on or
 * off (pinned by tests/obs_test.cc HostProfile* differentials).
 *
 * Two emissions (docs/OBSERVABILITY.md):
 *  - Chrome trace_event complete-events ("ph":"X"), one Chrome thread
 *    per worker lane, nested by recorded depth;
 *  - an aggregated stage-attribution table: per span name, call
 *    count, total (inclusive) and self (exclusive) seconds, and the
 *    self-share of all profiled time.
 */

#ifndef CAPSIM_OBS_SPAN_PROFILER_H
#define CAPSIM_OBS_SPAN_PROFILER_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace cap::obs {

/** One closed span on a worker lane (times in ns since arm()). */
struct SpanRecord
{
    /** Static stage name (the CAPSIM_SPAN literal). */
    const char *name = "";
    /** Nesting depth at which the span ran (0 = lane root). */
    int depth = 0;
    uint64_t start_ns = 0;
    /** Inclusive duration. */
    uint64_t dur_ns = 0;
    /** Exclusive duration: dur_ns minus time spent in child spans. */
    uint64_t self_ns = 0;
};

/** One row of the aggregated stage-attribution table. */
struct StageRow
{
    std::string name;
    uint64_t calls = 0;
    /** Inclusive seconds (sum of span durations; nested stages
     *  overlap their parents). */
    double total_s = 0.0;
    /** Exclusive seconds (children subtracted; sums to the profiled
     *  wall time across rows). */
    double self_s = 0.0;
    /** self_s as a percentage of the sum of self_s over all rows. */
    double share_pct = 0.0;
};

/**
 * Collects spans from every worker lane of a run.  arm() installs the
 * profiler as the process-wide active one (ScopedSpan finds it with a
 * relaxed atomic load); the first arm() also allocates every lane, so
 * a worker never sees the lanes move.  disarm() uninstalls it.  Arm
 * and disarm only from the orchestrator thread while no fan-out is in
 * flight.
 */
class SpanProfiler
{
  public:
    /** Worker indices at or above this are folded into the last lane
     *  (far beyond any realistic --jobs value). */
    static constexpr int kMaxLanes = 256;

    SpanProfiler();
    ~SpanProfiler();

    SpanProfiler(const SpanProfiler &) = delete;
    SpanProfiler &operator=(const SpanProfiler &) = delete;

    /** Install as the active profiler and start the epoch. */
    void arm();

    /** Uninstall (records are kept for emission). */
    void disarm();

    /** The active profiler, or nullptr (one relaxed atomic load). */
    static SpanProfiler *active();

    /** Open a span on @p lane of a profiler armed at least once; pair
     *  with endSpan on the same thread. */
    void beginSpan(int lane, const char *name);

    /** Close the innermost open span of @p lane. */
    void endSpan(int lane);

    /** Closed records of @p lane, in completion order. */
    const std::vector<SpanRecord> &lane(int i) const;

    /** Highest lane index that recorded anything, plus one. */
    int laneCount() const;

    /** Total closed spans across all lanes. */
    size_t spanCount() const;

    /** Nanoseconds since arm() (0 before the first arm()). */
    uint64_t nowNs() const;

    /**
     * Aggregate the lanes into the stage-attribution table, one row
     * per distinct span name, in descending self_s order (ties broken
     * by name, so the table is deterministic).
     */
    std::vector<StageRow> stageTable() const;

    /** Render stageTable() as an aligned ASCII table. */
    void writeStageTable(std::ostream &os) const;

    /**
     * Chrome trace_event JSON: one Chrome thread per worker lane
     * ("worker N"), spans as complete events with ts/dur in
     * microseconds of host wall clock since arm().
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct OpenFrame
    {
        const char *name;
        uint64_t start_ns;
        /** Accumulated inclusive time of already-closed children. */
        uint64_t child_ns;
    };

    /** Per-lane state; padded so adjacent lanes never share a line. */
    struct alignas(64) Lane
    {
        std::vector<SpanRecord> records;
        std::vector<OpenFrame> open;
    };

    Lane &laneRef(int i);

    std::vector<Lane> lanes_;
    uint64_t epoch_ns_ = 0;
    bool armed_ = false;
};

/**
 * RAII span: opens on construction when a profiler is armed, closes on
 * destruction against the same profiler (so a disarm between the two
 * cannot unbalance the lane's stack).
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanProfiler *profiler_;
    int lane_ = 0;
};

#define CAPSIM_SPAN_CONCAT2(a, b) a##b
#define CAPSIM_SPAN_CONCAT(a, b) CAPSIM_SPAN_CONCAT2(a, b)

/** Profile the enclosing scope as stage @p name (a string literal). */
#define CAPSIM_SPAN(name)                                                 \
    ::cap::obs::ScopedSpan CAPSIM_SPAN_CONCAT(capsim_span_,              \
                                              __LINE__)(name)

} // namespace cap::obs

#endif // CAPSIM_OBS_SPAN_PROFILER_H
