/**
 * @file
 * Interval-based adaptive control of the cache hierarchy boundary --
 * the Section 6 mechanism applied to the D-cache CAS.
 *
 * Unlike the instruction queue, moving the L1/L2 boundary needs no
 * draining (exclusion + the fixed mapping make it a re-labelling), so
 * a reconfiguration costs only the clock-switch pause.  The
 * controller is the same confidence-gated hill climber as
 * IntervalAdaptiveIq; the probe runs against the *live* hierarchy, so
 * its measurement includes any transient the move causes -- exactly
 * what a hardware predictor would see.
 */

#ifndef CAPSIM_CORE_INTERVAL_CACHE_H
#define CAPSIM_CORE_INTERVAL_CACHE_H

#include <vector>

#include "core/adaptive_cache.h"
#include "core/machine.h"
#include "obs/hooks.h"
#include "trace/profile.h"
#include "util/units.h"

namespace cap::core {

/** Tunables of the cache interval controller. */
struct CacheIntervalParams
{
    /** EWMA weight of the newest interval measurement. */
    double ewma_alpha = 0.3;
    /** Minimum relative TPI gain a move must promise. */
    double switch_margin = 0.02;
    /** Consecutive confirming probes required before moving. */
    int confidence_needed = 2;
    /** Intervals between probes of a neighbouring boundary. */
    int probe_period = 8;
    /** Interval length in data-cache references. */
    uint64_t interval_refs = 1000;
    /** If false, the confidence gate is disabled (ablation). */
    bool use_confidence = true;
};

/** Outcome of an interval-controlled (or oracle) cache run. */
struct CacheIntervalResult
{
    uint64_t refs = 0;
    uint64_t instructions = 0;
    double total_time_ns = 0.0;
    int reconfigurations = 0;
    int committed_moves = 0;
    /** Boundary (L1 increments) active in each interval. */
    std::vector<int> boundary_trace;

    double tpi() const
    {
        return instructions ? total_time_ns /
                              static_cast<double>(instructions)
                            : 0.0;
    }
};

/** The Section-6 controller for the cache boundary. */
class IntervalAdaptiveCache
{
  public:
    IntervalAdaptiveCache(const AdaptiveCacheModel &model,
                          CacheIntervalParams params);

    /**
     * Run @p refs references of @p app starting at
     * @p initial_boundary, adapting at interval boundaries.  A final
     * partial interval (refs % interval_refs) is simulated and credited
     * at the boundary the run ends on.
     * @param max_boundary Largest boundary the controller may choose.
     */
    CacheIntervalResult run(const trace::AppProfile &app, uint64_t refs,
                            int initial_boundary,
                            int max_boundary = 8) const;

  private:
    const AdaptiveCacheModel *model_;
    CacheIntervalParams params_;
};

/** Time and retirement of one interval at one boundary. */
struct CacheIntervalCost
{
    double time_ns = 0.0;
    uint64_t instructions = 0;
    /** Miss stall measured by a dram clock (0 under flat), ns. */
    Nanoseconds mem_stall_ns = 0.0;

    bool operator==(const CacheIntervalCost &) const = default;
};

/**
 * The cache oracle's cost table: costs[li][interval] is what boundary
 * @p boundaries[li] spends on each @p interval_refs -reference
 * interval of @p refs (the last one partial when the length does not
 * divide), held at that boundary from the start.
 *
 * A single walk of the trace through the Mattson stack engine
 * (cache::StackSimulator) scores every boundary: the cumulative stats
 * reconstruction statsFor(k) is exact at *any* point of the walk, so
 * per-interval deltas of consecutive reconstructions equal the
 * per-interval stats deltas of a dedicated static hierarchy bit for
 * bit; under dram each boundary's MissClock lane (walkStack) accrues
 * that hierarchy's per-interval stall too.  That is O(refs +
 * intervals * ways) work instead of O(boundaries * refs) hierarchy
 * work (docs/PERF.md).  The walk is serial.
 */
std::vector<std::vector<CacheIntervalCost>>
cacheIntervalOracleCosts(const AdaptiveCacheModel &model,
                         const trace::AppProfile &app, uint64_t refs,
                         const std::vector<int> &boundaries,
                         uint64_t interval_refs);

/**
 * Per-interval oracle: each interval is charged the best candidate
 * boundary's time in cacheIntervalOracleCosts()' table (ties: the
 * earliest candidate), plus @p switch_penalty_cycles at the incoming
 * clock when the winner changes, if @p charge_switches.  The final
 * partial interval (refs % interval_refs) is simulated and credited
 * like any other.  The walk is serial; callers scale across
 * applications instead.  @p jobs is ignored.
 *
 * Observation: when @p hooks carry sinks, the reduction emits one
 * Interval record per interval and a Reconfig record on winner
 * changes (lane "app/oracle"), and the registry gains the `oracle.*`
 * counters -- matching runIntervalOracle on the IQ side.
 */
CacheIntervalResult runCacheIntervalOracle(
    const AdaptiveCacheModel &model, const trace::AppProfile &app,
    uint64_t refs, const std::vector<int> &boundaries,
    uint64_t interval_refs, bool charge_switches,
    Cycles switch_penalty_cycles = kClockSwitchPenaltyCycles,
    int jobs = 1, const obs::Hooks &hooks = {});

/** Tunables of the phase-predictive controller. */
struct PhasePredictorParams : CacheIntervalParams
{
    /**
     * Relative deviation of an interval's TPI from the current
     * boundary's expectation that signals a phase change.
     */
    double jump_threshold = 0.10;
    /** Intervals that must pass between recognized phase changes. */
    int min_stable_intervals = 5;
};

/**
 * The paper's "next-configuration prediction" sketch (Section 4 /
 * Section 6) realized with a phase-memory table: a sudden deviation of
 * measured TPI from the current boundary's expectation signals a
 * phase change, and the controller *jumps directly* to the boundary
 * remembered as best for the alternate phase instead of hill-climbing
 * across the whole configuration range.  Within a phase it refines
 * its choice exactly like IntervalAdaptiveCache and updates the
 * memory.  Hill climbing alone loses badly when phase optima are far
 * apart (see bench_ext_cache_interval); the predictor closes most of
 * the gap to the per-interval oracle.
 */
class PhasePredictiveCache
{
  public:
    PhasePredictiveCache(const AdaptiveCacheModel &model,
                         PhasePredictorParams params);

    CacheIntervalResult run(const trace::AppProfile &app, uint64_t refs,
                            int initial_boundary,
                            int max_boundary = 8) const;

  private:
    const AdaptiveCacheModel *model_;
    PhasePredictorParams params_;
};

} // namespace cap::core

#endif // CAPSIM_CORE_INTERVAL_CACHE_H
